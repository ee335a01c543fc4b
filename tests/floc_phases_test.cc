// Unit tests for the four FLOC phase components (src/core/floc_phases.h)
// in isolation -- Floc::Run wires them together, floc_test.cc and
// floc_determinism_test.cc cover the composition.
//
// The headline check is the serial/pooled agreement of GainDeterminer:
// the inline path below the serial cutoff and the pooled path above it
// iterate the same shard boundaries, so the determined actions and the
// blocked-toggle tallies must be bit-identical either way.
#include "src/core/floc_phases.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <vector>

#include "src/core/cluster.h"
#include "src/core/constraints.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/data/synthetic.h"
#include "src/core/gain_memo.h"
#include "src/core/residue.h"
#include "src/engine/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

// A planted matrix plus a clustering state (views / scores / tracker)
// shaped like the middle of a FLOC run.
struct Fixture {
  explicit Fixture(size_t rows, size_t cols, uint64_t seed,
                   ResidueNorm norm = ResidueNorm::kMeanAbsolute,
                   double missing = 0.0)
      : norm(norm) {
    SyntheticConfig config;
    config.rows = rows;
    config.cols = cols;
    config.num_clusters = 3;
    config.volume_mean = rows;
    config.col_fraction = 0.3;
    config.noise_stddev = 0.5;
    config.missing_fraction = missing;
    config.seed = seed;
    data = GenerateSynthetic(config);

    Constraints constraints;
    constraints.alpha = 0.5;
    constraints.max_overlap = 0.6;
    tracker = std::make_unique<ConstraintTracker>(data.matrix, constraints);

    // Three overlapping rectangular seeds.
    Rng rng(seed + 1);
    for (size_t c = 0; c < 3; ++c) {
      Cluster cluster(data.matrix.rows(), data.matrix.cols());
      for (size_t i = c * 5; i < c * 5 + rows / 2 && i < rows; ++i) {
        cluster.AddRow(i);
      }
      for (size_t j = c * 2; j < c * 2 + cols / 2 && j < cols; ++j) {
        cluster.AddCol(j);
      }
      views.emplace_back(data.matrix, std::move(cluster));
    }
    tracker->Rebuild(views);

    RescoreAll();
  }

  void RescoreAll() {
    ResidueEngine engine(norm);
    scores.clear();
    for (const ClusterWorkspace& ws : views) {
      scores.push_back(ObjectiveScore(engine.Residue(ws),
                                      ws.stats().Volume(), kTarget));
    }
  }

  GainContext Context(GainMemo* memo = nullptr, bool audit = false,
                      bool drop_nonpositive = false) const {
    return GainContext{&views, &scores,  tracker.get(), kTarget,
                       nullptr, memo,     audit,         drop_nonpositive};
  }

  // Drops the overlap cap, under which the overlapping seeds block most
  // toggles; keeps the occupancy threshold.
  void RelaxConstraints() {
    Constraints constraints;
    constraints.alpha = 0.5;
    tracker = std::make_unique<ConstraintTracker>(data.matrix, constraints);
    tracker->Rebuild(views);
  }

  static constexpr double kTarget = 1.0;

  ResidueNorm norm;

  SyntheticDataset data;
  std::vector<ClusterWorkspace> views;
  std::vector<double> scores;
  std::unique_ptr<ConstraintTracker> tracker;
};

void ExpectSameActions(const std::vector<Action>& a,
                       const std::vector<Action>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].target, b[t].target) << "action " << t;
    EXPECT_EQ(a[t].index, b[t].index) << "action " << t;
    EXPECT_EQ(a[t].cluster, b[t].cluster) << "action " << t;
    EXPECT_EQ(a[t].gain, b[t].gain) << "action " << t;  // bit-identical
  }
}

TEST(GainDeterminerTest, SerialAndPooledAgreeAboveCutoff) {
  // 120 rows + 30 cols = 150 work items, above the default cutoff of 64:
  // the pooled run fans out while the null-pool run stays inline.
  Fixture fx(120, 30, 41);
  GainDeterminer serial(ResidueNorm::kMeanAbsolute, Fixture::kTarget,
                        /*pool=*/nullptr);
  std::vector<Action> base = serial.Determine(fx.data.matrix, fx.views,
                                              fx.scores, *fx.tracker,
                                              /*blocked=*/nullptr);
  ASSERT_EQ(base.size(), fx.data.matrix.rows() + fx.data.matrix.cols());

  for (int threads : {2, 3, 8}) {
    engine::ThreadPool pool(threads);
    GainDeterminer pooled(ResidueNorm::kMeanAbsolute, Fixture::kTarget,
                          &pool);
    std::vector<Action> got = pooled.Determine(fx.data.matrix, fx.views,
                                               fx.scores, *fx.tracker,
                                               /*blocked=*/nullptr);
    ExpectSameActions(base, got);
  }
}

TEST(GainDeterminerTest, SerialAndPooledAgreeBelowCutoff) {
  // 30 rows + 10 cols = 40 work items, below kDefaultSerialCutoff: the
  // determiner must stay inline even with a live pool. Forcing the pooled
  // path with serial_cutoff=0 must still give the same actions.
  Fixture fx(30, 10, 43);
  ASSERT_LT(fx.data.matrix.rows() + fx.data.matrix.cols(),
            engine::EngineConfig::kDefaultSerialCutoff);

  GainDeterminer serial(ResidueNorm::kMeanAbsolute, Fixture::kTarget,
                        /*pool=*/nullptr);
  std::vector<Action> base = serial.Determine(fx.data.matrix, fx.views,
                                              fx.scores, *fx.tracker,
                                              nullptr);

  engine::ThreadPool pool(4);
  GainDeterminer defaulted(ResidueNorm::kMeanAbsolute, Fixture::kTarget,
                           &pool);
  ExpectSameActions(base, defaulted.Determine(fx.data.matrix, fx.views,
                                              fx.scores, *fx.tracker,
                                              nullptr));

  GainDeterminer forced(ResidueNorm::kMeanAbsolute, Fixture::kTarget, &pool,
                        /*serial_cutoff=*/0);
  ExpectSameActions(base, forced.Determine(fx.data.matrix, fx.views,
                                           fx.scores, *fx.tracker, nullptr));
}

TEST(GainDeterminerTest, BlockCountsIdenticalSerialAndPooled) {
  // The per-shard blocked-toggle tallies are merged in shard order, so
  // the telemetry counts match the serial scan exactly.
  Fixture fx(120, 30, 47);
  GainDeterminer serial(ResidueNorm::kMeanAbsolute, Fixture::kTarget,
                        nullptr);
  obs::BlockCounts serial_blocked;
  serial.Determine(fx.data.matrix, fx.views, fx.scores, *fx.tracker,
                   &serial_blocked);
  EXPECT_GT(serial_blocked.Total(), 0u);  // alpha + overlap bite here

  engine::ThreadPool pool(8);
  GainDeterminer pooled(ResidueNorm::kMeanAbsolute, Fixture::kTarget, &pool);
  obs::BlockCounts pooled_blocked;
  pooled.Determine(fx.data.matrix, fx.views, fx.scores, *fx.tracker,
                   &pooled_blocked);
  EXPECT_EQ(serial_blocked.counts, pooled_blocked.counts);
}

// The decision rule before bound-and-prune, verbatim: every unblocked
// candidate scanned, strict > in ascending cluster order.
Action ExhaustiveBestAction(bool is_row, size_t index, const Fixture& fx) {
  Action best;
  best.target = is_row ? ActionTarget::kRow : ActionTarget::kCol;
  best.index = index;
  ResidueEngine engine(fx.norm);
  for (size_t c = 0; c < fx.views.size(); ++c) {
    bool allowed = is_row ? fx.tracker->RowToggleAllowed(fx.views, c, index)
                          : fx.tracker->ColToggleAllowed(fx.views, c, index);
    if (!allowed) continue;
    size_t volume = 0;
    double residue =
        is_row ? engine.ResidueAfterToggleRow(fx.views[c], index, &volume)
               : engine.ResidueAfterToggleCol(fx.views[c], index, &volume);
    double gain =
        fx.scores[c] - ObjectiveScore(residue, volume, Fixture::kTarget);
    if (best.blocked() || gain > best.gain) {
      best.gain = gain;
      best.cluster = c;
    }
  }
  return best;
}

// Checks BestActionFor against the exhaustive rule for every row and
// column. Under drop_nonpositive only a positive exhaustive best must be
// reproduced; otherwise the pruned decision must be one the caller drops.
void ExpectPrunedMatchesExhaustive(const Fixture& fx, GainMemo* memo,
                                   bool drop_nonpositive = false) {
  GainEvaluator eval(fx.Context(memo, /*audit=*/false, drop_nonpositive),
                     fx.norm);
  size_t rows = fx.data.matrix.rows();
  size_t total = rows + fx.data.matrix.cols();
  for (size_t t = 0; t < total; ++t) {
    bool is_row = t < rows;
    size_t index = is_row ? t : t - rows;
    Action want = ExhaustiveBestAction(is_row, index, fx);
    Action got = BestActionFor(is_row, index, eval);
    if (drop_nonpositive && (want.blocked() || want.gain <= 0.0)) {
      EXPECT_TRUE(got.blocked() || got.gain <= 0.0) << "entity " << t;
      continue;
    }
    EXPECT_EQ(got.cluster, want.cluster) << "entity " << t;
    EXPECT_EQ(got.gain, want.gain) << "entity " << t;  // bit-identical
  }
}

TEST(BestActionForTest, PrunedMatchesExhaustiveBothNorms) {
  for (ResidueNorm norm :
       {ResidueNorm::kMeanAbsolute, ResidueNorm::kMeanSquared}) {
    Fixture fx(120, 30, 53, norm);
    ExpectPrunedMatchesExhaustive(fx, nullptr);
    fx.RelaxConstraints();
    ExpectPrunedMatchesExhaustive(fx, nullptr);
    // With a memo: the first sweep fills exact entries and cached
    // bounds, the second is served from them.
    GainMemo memo;
    memo.Configure(fx.data.matrix.rows(), fx.data.matrix.cols(),
                   fx.views.size());
    ExpectPrunedMatchesExhaustive(fx, &memo);
    ExpectPrunedMatchesExhaustive(fx, &memo);
    // One cluster moves: its entries go stale, the rest still serve.
    fx.views[1].ToggleRow(100);
    fx.tracker->Rebuild(fx.views);
    fx.RescoreAll();
    ExpectPrunedMatchesExhaustive(fx, &memo);
  }
}

TEST(BestActionForTest, ExactTiesGoToTheLowestCluster) {
  // Clusters 1 and 2 are the same membership with stats built the same
  // way, so every candidate gain ties bit for bit between them.
  Fixture fx(60, 20, 59);
  fx.views[2] = ClusterWorkspace(fx.data.matrix, fx.views[1].cluster());
  fx.RelaxConstraints();
  fx.RescoreAll();
  ASSERT_EQ(fx.scores[1], fx.scores[2]);
  ExpectPrunedMatchesExhaustive(fx, nullptr);

  // Tie between a memo hit on cluster 2 and a scan of cluster 1: reset
  // cluster 1 to the same membership (a fresh epoch, the same stats
  // bits) so only cluster 2's entries still serve.
  GainMemo memo;
  memo.Configure(fx.data.matrix.rows(), fx.data.matrix.cols(),
                 fx.views.size());
  ExpectPrunedMatchesExhaustive(fx, &memo);
  fx.views[1].Reset(fx.views[1].cluster());
  fx.RescoreAll();
  ASSERT_EQ(fx.scores[1], fx.scores[2]);
  ExpectPrunedMatchesExhaustive(fx, &memo);
  size_t ties = 0;
  for (size_t i = 0; i < fx.data.matrix.rows(); ++i) {
    if (ExhaustiveBestAction(true, i, fx).cluster == 1) ++ties;
  }
  EXPECT_GT(ties, 0u);  // the tie actually decides some rows
}

TEST(BestActionForTest, ZeroFloorSkipsOnlyDecisionsTheCallerDrops) {
  for (ResidueNorm norm :
       {ResidueNorm::kMeanAbsolute, ResidueNorm::kMeanSquared}) {
    Fixture fx(120, 30, 61, norm);
    fx.RelaxConstraints();
    ExpectPrunedMatchesExhaustive(fx, nullptr, /*drop_nonpositive=*/true);
    GainMemo memo;
    memo.Configure(fx.data.matrix.rows(), fx.data.matrix.cols(),
                   fx.views.size());
    ExpectPrunedMatchesExhaustive(fx, &memo, true);
    ExpectPrunedMatchesExhaustive(fx, &memo, true);
  }
}

TEST(BestActionForTest, AuditModeAgreesAndLeavesScanCountsAlone) {
  Fixture fx(120, 30, 67);
  fx.RelaxConstraints();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* scanned =
      registry.GetCounter("floc.gain_eval_entries_scanned");
  size_t rows = fx.data.matrix.rows();
  size_t total = rows + fx.data.matrix.cols();
  auto sweep = [&](bool audit, std::vector<Action>* out) {
    GainMemo memo;
    memo.Configure(rows, fx.data.matrix.cols(), fx.views.size());
    GainEvaluator eval(fx.Context(&memo, audit), fx.norm);
    uint64_t before = scanned->Value();
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t t = 0; t < total; ++t) {
        bool is_row = t < rows;
        out->push_back(
            BestActionFor(is_row, is_row ? t : t - rows, eval));
      }
    }
    return scanned->Value() - before;
  };
  std::vector<Action> plain;
  std::vector<Action> audited;
  uint64_t plain_scanned = sweep(false, &plain);
  uint64_t audited_scanned = sweep(true, &audited);
  obs::MetricsRegistry::SetEnabled(was_enabled);
  ExpectSameActions(plain, audited);
  EXPECT_EQ(plain_scanned, audited_scanned);
}

TEST(BestActionForDeathTest, AuditCatchesACorruptedCachedBound) {
  Fixture fx(60, 20, 71);
  fx.RelaxConstraints();
  GainMemo memo;
  memo.Configure(fx.data.matrix.rows(), fx.data.matrix.cols(),
                 fx.views.size());
  GainEvaluator eval(fx.Context(&memo), fx.norm);
  // Find a row whose decision left a cached bound behind, and raise that
  // bound past the truth: without audit the corrupted entry is trusted.
  for (size_t i = 0; i < fx.data.matrix.rows(); ++i) {
    BestActionFor(true, i, eval);
    for (size_t c = 0; c < fx.views.size(); ++c) {
      GainMemo::Entry* slot = memo.Slot(true, i, c);
      if (slot->epoch != (fx.views[c].epoch() | GainMemo::kBoundTag)) continue;
      slot->after_residue += 1.0;
      GainEvaluator audited(fx.Context(&memo, /*audit=*/true), fx.norm);
      EXPECT_DEATH(BestActionFor(true, i, audited),
                   "gain memo bound drift");
      return;
    }
  }
  FAIL() << "no decision was settled by a bound";
}

// Floc::RefineSweep's candidate scan before bound-and-prune: every
// allowed toggle scanned, kept when its gain clears the threshold.
std::vector<Action> ExhaustiveRefineCandidates(size_t c,
                                               double min_improvement,
                                               const Fixture& fx) {
  std::vector<Action> out;
  ResidueEngine engine(fx.norm);
  auto consider = [&](bool is_row, size_t index) {
    size_t volume = 0;
    double residue =
        is_row ? engine.ResidueAfterToggleRow(fx.views[c], index, &volume)
               : engine.ResidueAfterToggleCol(fx.views[c], index, &volume);
    double gain =
        fx.scores[c] - ObjectiveScore(residue, volume, Fixture::kTarget);
    if (gain > min_improvement) {
      out.push_back(
          {is_row ? ActionTarget::kRow : ActionTarget::kCol, index, c, gain});
    }
  };
  for (size_t i = 0; i < fx.data.matrix.rows(); ++i) {
    if (fx.tracker->RowToggleAllowed(fx.views, c, i)) consider(true, i);
  }
  for (size_t j = 0; j < fx.data.matrix.cols(); ++j) {
    if (fx.tracker->ColToggleAllowed(fx.views, c, j)) consider(false, j);
  }
  return out;
}

TEST(RefineCandidatesTest, PrunedMatchesExhaustive) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* pruned = registry.GetCounter("floc.gain.pruned");
  for (ResidueNorm norm :
       {ResidueNorm::kMeanAbsolute, ResidueNorm::kMeanSquared}) {
    for (double missing : {0.0, 0.3}) {
      for (bool audit : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "norm " << static_cast<int>(norm) << " missing "
                     << missing << " audit " << audit);
        Fixture fx(90, 24, 79, norm, missing);
        fx.RelaxConstraints();
        std::vector<Action> got;
        size_t found = 0;
        uint64_t pruned_before = pruned->Value();
        {
          GainEvaluator eval(fx.Context(nullptr, audit), fx.norm);
          // Two rounds: the second runs on clusters that the first
          // round's best toggles moved, so their bound stats are rebuilt.
          for (int round = 0; round < 2; ++round) {
            for (double min_improvement : {1e-9, 0.05}) {
              for (size_t c = 0; c < fx.views.size(); ++c) {
                std::vector<Action> want =
                    ExhaustiveRefineCandidates(c, min_improvement, fx);
                RefineCandidates(c, min_improvement, eval, &got);
                ASSERT_EQ(got.size(), want.size()) << "cluster " << c;
                for (size_t t = 0; t < got.size(); ++t) {
                  EXPECT_EQ(got[t].target, want[t].target) << t;
                  EXPECT_EQ(got[t].index, want[t].index) << t;
                  EXPECT_EQ(got[t].cluster, c) << t;
                  EXPECT_EQ(got[t].gain, want[t].gain) << t;  // bit-identical
                }
                found += got.size();
              }
            }
            for (size_t c = 0; c < fx.views.size(); ++c) {
              RefineCandidates(c, 1e-9, eval, &got);
              if (got.empty()) continue;
              const Action& best = *std::max_element(
                  got.begin(), got.end(),
                  [](const Action& a, const Action& b) {
                    return a.gain < b.gain;
                  });
              fx.scores[c] =
                  CommitToggle(best, fx.views, *fx.tracker, eval.engine(),
                               Fixture::kTarget, nullptr, nullptr);
            }
          }
        }  // the evaluator flushes its counts here
        // Both outcomes occur: candidates kept and candidates pruned.
        EXPECT_GT(found, 0u);
        EXPECT_GT(pruned->Value(), pruned_before);
      }
    }
  }
  obs::MetricsRegistry::SetEnabled(was_enabled);
}

// A test-local ActionApplier::Apply with the exhaustive decision rule:
// same acceptance policy, same RNG draws, same bookkeeping.
std::vector<AppliedAction> ExhaustiveApply(const FlocConfig& config,
                                           const std::vector<Action>& actions,
                                           size_t iteration, Fixture& fx,
                                           Rng& rng) {
  std::vector<AppliedAction> applied;
  ResidueEngine engine(config.norm);
  for (const Action& planned : actions) {
    bool is_row = planned.target == ActionTarget::kRow;
    Action action = ExhaustiveBestAction(is_row, planned.index, fx);
    if (action.blocked()) continue;
    if (action.gain <= 0 && !config.perform_negative_actions) {
      if (config.annealing_temperature <= 0) continue;
      double temperature = config.annealing_temperature *
                           std::pow(0.8, static_cast<double>(iteration));
      if (temperature <= 0 ||
          !rng.Bernoulli(std::exp(action.gain / temperature))) {
        continue;
      }
    }
    ClusterWorkspace& view = fx.views[action.cluster];
    if (is_row) {
      view.ToggleRow(action.index);
      fx.tracker->OnRowToggled(fx.views, action.cluster, action.index);
    } else {
      view.ToggleCol(action.index);
      fx.tracker->OnColToggled(fx.views, action.cluster, action.index);
    }
    applied.push_back({action.target, action.index, action.cluster});
    fx.scores[action.cluster] = ObjectiveScore(
        engine.Residue(view), view.stats().Volume(), config.target_residue);
  }
  return applied;
}

TEST(ActionApplierTest, FreshGainSweepMatchesExhaustiveRule) {
  struct Variant {
    const char* name;
    ResidueNorm norm;
    bool negatives;
    double temperature;
  };
  for (const Variant& v :
       {Variant{"greedy", ResidueNorm::kMeanAbsolute, false, 0.0},
        Variant{"greedy-squared", ResidueNorm::kMeanSquared, false, 0.0},
        Variant{"annealing", ResidueNorm::kMeanAbsolute, false, 0.5},
        Variant{"annealing-squared", ResidueNorm::kMeanSquared, false, 2.0},
        Variant{"paper", ResidueNorm::kMeanAbsolute, true, 0.0}}) {
    FlocConfig config;
    config.norm = v.norm;
    config.target_residue = Fixture::kTarget;
    config.perform_negative_actions = v.negatives;
    config.annealing_temperature = v.temperature;
    Fixture pruned(90, 24, 73, v.norm);
    Fixture reference(90, 24, 73, v.norm);
    pruned.RelaxConstraints();
    reference.RelaxConstraints();
    GainMemo memo;
    memo.Configure(90, 24, pruned.views.size());
    GainDeterminer determiner(v.norm, Fixture::kTarget, nullptr,
                              engine::EngineConfig::kDefaultSerialCutoff,
                              &memo);
    std::vector<Action> actions =
        determiner.Determine(pruned.data.matrix, pruned.views, pruned.scores,
                             *pruned.tracker, nullptr);
    std::vector<size_t> order(actions.size());
    std::iota(order.begin(), order.end(), 0);

    double score_sum = 0.0;
    for (double s : pruned.scores) score_sum += s;
    BestPrefixSelector selector(score_sum / pruned.scores.size());
    Rng rng_pruned(11);
    Rng rng_reference(11);
    std::vector<AppliedAction> got =
        ActionApplier(config, nullptr, nullptr, &memo)
            .Apply(actions, order, /*iteration=*/1, pruned.views,
                   pruned.scores, score_sum, *pruned.tracker, rng_pruned,
                   selector);
    std::vector<AppliedAction> want = ExhaustiveApply(
        config, actions, /*iteration=*/1, reference, rng_reference);
    ASSERT_EQ(got.size(), want.size()) << v.name;
    EXPECT_GT(got.size(), 0u) << v.name;
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t].target, want[t].target) << v.name << " step " << t;
      EXPECT_EQ(got[t].index, want[t].index) << v.name << " step " << t;
      EXPECT_EQ(got[t].cluster, want[t].cluster) << v.name << " step " << t;
    }
    EXPECT_EQ(pruned.scores, reference.scores) << v.name;
  }
}

TEST(ActionSchedulerTest, FixedOrderingIsIdentity) {
  std::vector<Action> actions(10);
  Rng rng(5);
  std::vector<size_t> order = ActionScheduler(ActionOrdering::kFixed)
                                  .Order(actions, rng);
  std::vector<size_t> identity(10);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(order, identity);
}

TEST(ActionSchedulerTest, RandomOrderingsArePermutations) {
  std::vector<Action> actions(25);
  for (size_t t = 0; t < actions.size(); ++t) {
    actions[t].gain = static_cast<double>(t % 7) - 3.0;
  }
  for (ActionOrdering ordering :
       {ActionOrdering::kRandom, ActionOrdering::kWeightedRandom}) {
    Rng rng(9);
    std::vector<size_t> order = ActionScheduler(ordering).Order(actions, rng);
    std::vector<size_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    std::vector<size_t> identity(actions.size());
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_EQ(sorted, identity);
  }
}

TEST(ActionSchedulerTest, SameSeedSameOrder) {
  std::vector<Action> actions(40);
  for (size_t t = 0; t < actions.size(); ++t) {
    actions[t].gain = static_cast<double>((t * 13) % 11);
  }
  ActionScheduler scheduler(ActionOrdering::kWeightedRandom);
  Rng a(77);
  Rng b(77);
  EXPECT_EQ(scheduler.Order(actions, a), scheduler.Order(actions, b));
}

TEST(BestPrefixSelectorTest, TracksBestObservedPrefix) {
  BestPrefixSelector selector(/*incumbent_average=*/2.0);
  EXPECT_FALSE(selector.has_best());
  EXPECT_DOUBLE_EQ(selector.best_average(), 2.0);

  // The first observation always becomes the best, even when worse than
  // the incumbent -- "did the iteration improve" is Floc's separate
  // judgement downstream.
  selector.Observe(2.5, 1);
  EXPECT_TRUE(selector.has_best());
  EXPECT_DOUBLE_EQ(selector.best_average(), 2.5);
  EXPECT_EQ(selector.best_prefix(), 1u);

  selector.Observe(1.5, 2);
  EXPECT_DOUBLE_EQ(selector.best_average(), 1.5);
  EXPECT_EQ(selector.best_prefix(), 2u);

  selector.Observe(1.5, 3);  // tie: earliest prefix kept
  EXPECT_EQ(selector.best_prefix(), 2u);

  selector.Observe(1.0, 4);
  EXPECT_DOUBLE_EQ(selector.best_average(), 1.0);
  EXPECT_EQ(selector.best_prefix(), 4u);
}

TEST(BestPrefixSelectorTest, NothingObservedReportsIncumbent) {
  // A sweep that applies zero actions leaves the selector untouched; the
  // incumbent average flows back out and best_prefix stays 0.
  BestPrefixSelector selector(1.0);
  EXPECT_FALSE(selector.has_best());
  EXPECT_DOUBLE_EQ(selector.best_average(), 1.0);
  EXPECT_EQ(selector.best_prefix(), 0u);
}

TEST(ObjectiveScoreTest, PaperModeIsPlainResidue) {
  EXPECT_DOUBLE_EQ(ObjectiveScore(3.25, 1000, /*target_residue=*/0.0), 3.25);
}

TEST(ObjectiveScoreTest, VolumeSeekingRewardsVolume) {
  double small = ObjectiveScore(1.0, 10, 1.0);
  double large = ObjectiveScore(1.0, 1000, 1.0);
  EXPECT_LT(large, small);  // lower objective = better
  // Empty cluster: volume clamps to 1, no -inf from log(0).
  EXPECT_DOUBLE_EQ(ObjectiveScore(0.0, 0, 1.0), 0.0);
}

}  // namespace
}  // namespace deltaclus
