#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/core/floc.h"

namespace deltaclus {
namespace {

TEST(ValidateConfigTest, DefaultConfigIsValid) {
  EXPECT_TRUE(FlocConfig{}.Validate().empty());
}

TEST(ValidateConfigTest, AlphaOutOfRange) {
  FlocConfig config;
  config.constraints.alpha = 1.5;
  EXPECT_FALSE(config.Validate().empty());
  config.constraints.alpha = -0.1;
  EXPECT_FALSE(config.Validate().empty());
  config.constraints.alpha = 1.0;
  EXPECT_TRUE(config.Validate().empty());
}

TEST(ValidateConfigTest, ProbabilityBounds) {
  FlocConfig config;
  config.seeding.row_probability = 1.2;
  EXPECT_FALSE(config.Validate().empty());
  config.seeding.row_probability = 0.5;
  config.seeding.col_probability = -0.2;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ValidateConfigTest, ContradictoryBounds) {
  FlocConfig config;
  config.constraints.min_rows = 10;
  config.constraints.max_rows = 5;
  EXPECT_FALSE(config.Validate().empty());

  FlocConfig volume;
  volume.constraints.min_volume = 100;
  volume.constraints.max_volume = 50;
  EXPECT_FALSE(volume.Validate().empty());
}

TEST(ValidateConfigTest, NegativeKnobs) {
  FlocConfig config;
  config.target_residue = -1.0;
  EXPECT_FALSE(config.Validate().empty());

  FlocConfig overlap;
  overlap.constraints.max_overlap = -0.5;
  EXPECT_FALSE(overlap.Validate().empty());

  FlocConfig coverage;
  coverage.constraints.min_row_coverage = 1.5;
  EXPECT_FALSE(coverage.Validate().empty());

  FlocConfig annealing;
  annealing.annealing_temperature = -2.0;
  EXPECT_FALSE(annealing.Validate().empty());
}

TEST(ValidateConfigTest, ThreadCounts) {
  // 0 is valid (hardware concurrency); negatives are not.
  FlocConfig config;
  config.threads = 0;
  EXPECT_TRUE(config.Validate().empty());
  config.threads = 8;
  EXPECT_TRUE(config.Validate().empty());
  config.threads = -1;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ValidateConfigTest, ZeroClustersRejected) {
  FlocConfig config;
  config.num_clusters = 0;
  EXPECT_FALSE(config.Validate().empty());
}

TEST(ValidateConfigTest, MultipleProblemsAllReported) {
  FlocConfig config;
  config.num_clusters = 0;
  config.constraints.alpha = 2.0;
  config.seeding.row_probability = 9.0;
  EXPECT_GE(config.Validate().size(), 3u);
}

TEST(ValidateConfigTest, ConstructorThrowsOnInvalidConfig) {
  FlocConfig config;
  config.constraints.alpha = 7.0;
  EXPECT_THROW(Floc{config}, std::invalid_argument);
}

TEST(ValidateConfigTest, MixedSeedingValidated) {
  FlocConfig config;
  config.seeding.mixed_volumes = true;
  config.seeding.volume_mean = -10.0;
  EXPECT_FALSE(config.Validate().empty());
  config.seeding.volume_mean = 100.0;
  config.seeding.volume_variance = -5.0;
  EXPECT_FALSE(config.Validate().empty());
}

// One case per double knob: NaN and both infinities are rejected (every
// Validate() comparison used to be `x < 0`, which NaN passes), and the
// problem names the field; a representative finite value is accepted.
TEST(ValidateConfigTest, NonFiniteDoublesRejectedPerField) {
  struct Case {
    std::string field;
    std::function<double&(FlocConfig&)> knob;
    double valid;
  };
  const std::vector<Case> cases = {
      {"seeding.row_probability",
       [](FlocConfig& c) -> double& { return c.seeding.row_probability; },
       0.5},
      {"seeding.col_probability",
       [](FlocConfig& c) -> double& { return c.seeding.col_probability; },
       0.5},
      {"seeding.volume_mean",
       [](FlocConfig& c) -> double& { return c.seeding.volume_mean; },
       100.0},
      {"seeding.volume_variance",
       [](FlocConfig& c) -> double& { return c.seeding.volume_variance; },
       10.0},
      {"constraints.alpha",
       [](FlocConfig& c) -> double& { return c.constraints.alpha; }, 0.5},
      {"constraints.max_overlap",
       [](FlocConfig& c) -> double& { return c.constraints.max_overlap; },
       0.25},
      {"constraints.min_row_coverage",
       [](FlocConfig& c) -> double& {
         return c.constraints.min_row_coverage;
       },
       0.5},
      {"constraints.min_col_coverage",
       [](FlocConfig& c) -> double& {
         return c.constraints.min_col_coverage;
       },
       0.5},
      {"target_residue",
       [](FlocConfig& c) -> double& { return c.target_residue; }, 1.0},
      {"min_improvement",
       [](FlocConfig& c) -> double& { return c.min_improvement; }, 1e-6},
      {"relative_improvement",
       [](FlocConfig& c) -> double& { return c.relative_improvement; },
       0.01},
      {"annealing_temperature",
       [](FlocConfig& c) -> double& { return c.annealing_temperature; },
       2.0},
      {"deadline_seconds",
       [](FlocConfig& c) -> double& { return c.deadline_seconds; }, 30.0},
  };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Case& c : cases) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInf, -kInf}) {
      FlocConfig config;
      c.knob(config) = bad;
      std::vector<std::string> problems = config.Validate();
      ASSERT_EQ(problems.size(), 1u) << c.field << " = " << bad;
      EXPECT_NE(problems[0].find(c.field), std::string::npos) << problems[0];
      EXPECT_THROW(Floc{config}, std::invalid_argument) << c.field;
    }
    FlocConfig config;
    c.knob(config) = c.valid;
    EXPECT_TRUE(config.Validate().empty()) << c.field << " = " << c.valid;
  }
}

}  // namespace
}  // namespace deltaclus
