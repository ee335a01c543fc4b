#include "src/data/synthetic.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace deltaclus {

void PlantShiftCluster(DataMatrix* matrix, const Cluster& members,
                       double base, double offset_range, double noise_stddev,
                       Rng& rng) {
  std::vector<double> row_offset(members.NumRows());
  std::vector<double> col_offset(members.NumCols());
  for (double& v : row_offset) v = rng.Uniform(-offset_range, offset_range);
  for (double& v : col_offset) v = rng.Uniform(-offset_range, offset_range);

  const auto& rows = members.row_ids();
  const auto& cols = members.col_ids();
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < cols.size(); ++c) {
      double noise = noise_stddev > 0 ? rng.Normal(0.0, noise_stddev) : 0.0;
      matrix->Set(rows[r], cols[c],
                  base + row_offset[r] + col_offset[c] + noise);
    }
  }
}

std::vector<std::string> SyntheticConfig::Validate() const {
  std::vector<std::string> problems;
  // As in FlocConfig::Validate, every test below is false for NaN.
  for (auto [name, v] : {std::pair{"volume_mean", volume_mean},
                         std::pair{"volume_variance", volume_variance},
                         std::pair{"offset_range", offset_range},
                         std::pair{"noise_stddev", noise_stddev}}) {
    if (!(std::isfinite(v) && v >= 0.0)) {
      problems.push_back(std::string(name) + " must be finite and >= 0");
    }
  }
  for (auto [name, v] : {std::pair{"col_fraction", col_fraction},
                         std::pair{"missing_fraction", missing_fraction}}) {
    if (!(v >= 0.0 && v <= 1.0)) {
      problems.push_back(std::string(name) + " must be in [0, 1]");
    }
  }
  if (!(std::isfinite(background_lo) && std::isfinite(background_hi) &&
        background_lo <= background_hi)) {
    problems.push_back(
        "background_lo and background_hi must be finite with lo <= hi");
  }
  return problems;
}

SyntheticDataset GenerateSynthetic(const SyntheticConfig& config) {
  std::vector<std::string> problems = config.Validate();
  if (!problems.empty()) {
    std::string message = "invalid SyntheticConfig:";
    for (const std::string& p : problems) message += "\n  - " + p;
    throw std::invalid_argument(message);
  }
  Rng rng(config.seed);
  SyntheticDataset out;
  out.matrix = DataMatrix(config.rows, config.cols);

  // Background.
  for (size_t i = 0; i < config.rows; ++i) {
    for (size_t j = 0; j < config.cols; ++j) {
      out.matrix.Set(i, j,
                     rng.Uniform(config.background_lo, config.background_hi));
    }
  }

  double volume_mean = config.volume_mean > 0
                           ? config.volume_mean
                           : (0.04 * config.rows) * (0.1 * config.cols);

  // Row pool for preferentially-disjoint row assignment.
  std::vector<size_t> row_pool(config.rows);
  for (size_t i = 0; i < config.rows; ++i) row_pool[i] = i;
  rng.Shuffle(row_pool);
  size_t pool_next = 0;

  for (size_t c = 0; c < config.num_clusters; ++c) {
    double volume = rng.ErlangMeanVar(volume_mean, config.volume_variance);
    volume = std::max(volume, 4.0);

    size_t num_cols = static_cast<size_t>(
        std::lround(config.col_fraction * config.cols));
    num_cols = std::clamp<size_t>(num_cols, 2, config.cols);
    size_t num_rows = static_cast<size_t>(std::lround(volume / num_cols));
    num_rows = std::clamp<size_t>(num_rows, 2, config.rows);

    std::vector<size_t> rows;
    rows.reserve(num_rows);
    if (config.prefer_disjoint_rows) {
      // Draw from the shuffled pool while it lasts, then fall back to
      // uniform sampling (allowing overlap with earlier clusters).
      while (rows.size() < num_rows && pool_next < row_pool.size()) {
        rows.push_back(row_pool[pool_next++]);
      }
      while (rows.size() < num_rows) {
        size_t i = rng.UniformIndex(config.rows);
        if (std::find(rows.begin(), rows.end(), i) == rows.end()) {
          rows.push_back(i);
        }
      }
    } else {
      rows = rng.SampleWithoutReplacement(config.rows, num_rows);
    }
    std::vector<size_t> cols =
        rng.SampleWithoutReplacement(config.cols, num_cols);

    Cluster cluster =
        Cluster::FromMembers(config.rows, config.cols, rows, cols);
    double base = rng.Uniform(config.background_lo, config.background_hi);
    PlantShiftCluster(&out.matrix, cluster, base, config.offset_range,
                      config.noise_stddev, rng);
    out.embedded.push_back(std::move(cluster));
  }

  if (config.missing_fraction > 0.0) {
    for (size_t i = 0; i < config.rows; ++i) {
      for (size_t j = 0; j < config.cols; ++j) {
        if (rng.Bernoulli(config.missing_fraction)) {
          out.matrix.SetMissing(i, j);
        }
      }
    }
  }
  return out;
}

}  // namespace deltaclus
