// Tests for the epoch-stamped gain memo (src/core/gain_memo.h) and its
// integration into FLOC: memoization must be a pure optimization --
// identical clusters at any thread count, with measurably less scanning
// -- and audit mode must cross-check every served entry.
#include "src/core/gain_memo.h"

#include <gtest/gtest.h>

#include "src/core/cluster_workspace.h"
#include "src/core/floc.h"
#include "src/core/residue.h"
#include "src/data/synthetic.h"
#include "src/obs/metrics.h"

namespace deltaclus {
namespace {

// The smallest Table 2 scaling point (100 x 20, k = 10): big enough
// that FLOC iterates and the memo sees hits from both the parallel
// determination sweep and the sequential apply-phase re-decisions.
SyntheticDataset Table2SmallData() {
  SyntheticConfig config;
  config.rows = 100;
  config.cols = 20;
  config.num_clusters = 5;
  config.volume_mean = 60;
  config.col_fraction = 0.25;
  config.noise_stddev = 0.5;
  config.seed = 19;
  return GenerateSynthetic(config);
}

FlocConfig Table2Config() {
  FlocConfig config;
  config.num_clusters = 10;
  config.target_residue = 1.0;
  config.refine_passes = 2;
  config.rng_seed = 7;
  return config;
}

void ExpectSameClusters(const FlocResult& a, const FlocResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].row_ids(), b.clusters[c].row_ids())
        << "cluster " << c;
    EXPECT_EQ(a.clusters[c].col_ids(), b.clusters[c].col_ids())
        << "cluster " << c;
  }
  EXPECT_EQ(a.residues, b.residues);
}

TEST(GainMemoTest, SlotsAreEntityMajorAndZeroInitialized) {
  GainMemo memo;
  EXPECT_EQ(memo.bytes(), 0u);
  memo.Configure(/*rows=*/3, /*cols=*/2, /*clusters=*/4);
  // One entry per (entity, cluster): (3 + 2) x 4.
  EXPECT_EQ(memo.bytes(), 20 * sizeof(GainMemo::Entry));
  // Every slot starts at epoch 0, which can never match a live workspace
  // epoch (NextMembershipEpoch starts at 1).
  EXPECT_EQ(memo.Slot(true, 0, 0)->epoch, 0u);
  EXPECT_EQ(memo.Slot(false, 1, 3)->epoch, 0u);

  // Distinct (entity, cluster) pairs get distinct slots: stamping one
  // leaves the others untouched.
  memo.Slot(true, 2, 1)->epoch = 42;
  memo.Slot(false, 0, 1)->epoch = 43;  // col 0 = entity rows + 0
  EXPECT_EQ(memo.Slot(true, 2, 1)->epoch, 42u);
  EXPECT_EQ(memo.Slot(false, 0, 1)->epoch, 43u);
  EXPECT_EQ(memo.Slot(true, 2, 0)->epoch, 0u);
  EXPECT_EQ(memo.Slot(true, 0, 1)->epoch, 0u);
  // The last row's stripe ends right before the first column's.
  EXPECT_EQ(memo.Slot(true, 2, 3) + 1, memo.Slot(false, 0, 0));

  // Reconfiguring clears every entry.
  memo.Configure(/*rows=*/3, /*cols=*/2, /*clusters=*/4);
  EXPECT_EQ(memo.Slot(true, 2, 1)->epoch, 0u);
}

TEST(GainMemoTest, EverySlotIsResidentAndDistinctForAnyShape) {
  // No residency policy: every (entity, cluster) pair owns its own
  // entry, at entities x clusters bytes, however many clusters there
  // are, and reconfiguring to a new shape resizes the table.
  GainMemo memo;
  for (size_t clusters : {size_t{64}, size_t{1}, size_t{7}}) {
    memo.Configure(/*rows=*/3, /*cols=*/2, clusters);
    EXPECT_EQ(memo.bytes(), 5 * clusters * sizeof(GainMemo::Entry));
    GainMemo::Entry* first = memo.Slot(true, 0, 0);
    size_t expected = 0;
    for (bool is_row : {true, false}) {
      for (size_t index = 0; index < (is_row ? 3u : 2u); ++index) {
        for (size_t cluster = 0; cluster < clusters; ++cluster) {
          GainMemo::Entry* slot = memo.Slot(is_row, index, cluster);
          ASSERT_EQ(slot, first + expected) << clusters;
          EXPECT_EQ(slot->epoch, 0u);
          slot->epoch = expected + 1;
          ++expected;
        }
      }
    }
    // Each write landed in its own entry.
    EXPECT_EQ(memo.Slot(false, 1, clusters - 1)->epoch, expected);
    EXPECT_EQ(memo.Slot(true, 0, 0)->epoch, 1u);
  }
}

TEST(GainMemoTest, WorkspaceEpochAdvancesOnEveryMutation) {
  DataMatrix m = DataMatrix::FromOptionalRows({
      {1.0, 2.0, 3.0},
      {2.0, 3.0, 4.0},
      {3.0, 4.0, 5.0},
  });
  ClusterWorkspace ws(m, Cluster::FromMembers(3, 3, {0, 1}, {0, 1}));
  uint64_t e0 = ws.epoch();
  EXPECT_GT(e0, 0u);

  ws.ToggleRow(2);
  uint64_t e1 = ws.epoch();
  EXPECT_GT(e1, e0);
  ws.ToggleRow(2);  // Toggling back still advances: stats bits may differ.
  uint64_t e2 = ws.epoch();
  EXPECT_GT(e2, e1);
  ws.ToggleCol(2);
  uint64_t e3 = ws.epoch();
  EXPECT_GT(e3, e2);
  ws.Reset(Cluster::FromMembers(3, 3, {0, 1}, {0, 1}));
  EXPECT_GT(ws.epoch(), e3);

  // Copies share the membership, hence the epoch; a mutation of either
  // side diverges them.
  ClusterWorkspace copy(ws);
  EXPECT_EQ(copy.epoch(), ws.epoch());
  copy.ToggleRow(0);
  EXPECT_NE(copy.epoch(), ws.epoch());

  // Epochs are process-unique: two independently-built workspaces never
  // share one.
  ClusterWorkspace other(m, Cluster::FromMembers(3, 3, {0, 1}, {0, 1}));
  EXPECT_NE(other.epoch(), ws.epoch());
}

TEST(GainMemoTest, MemoizationOnAndOffProduceIdenticalClusters) {
  SyntheticDataset data = Table2SmallData();
  FlocConfig on = Table2Config();
  on.memoize_gains = true;
  FlocConfig off = Table2Config();
  off.memoize_gains = false;
  FlocResult with_memo = Floc(on).Run(data.matrix);
  FlocResult without_memo = Floc(off).Run(data.matrix);
  ExpectSameClusters(with_memo, without_memo);
}

TEST(GainMemoTest, MemoizedRunIsThreadCountInvariant) {
  SyntheticDataset data = Table2SmallData();
  FlocConfig t1 = Table2Config();
  t1.threads = 1;
  // Force the parallel path even at this size so the sharded memo writes
  // are actually exercised.
  FlocConfig t4 = Table2Config();
  t4.threads = 4;
  ExpectSameClusters(Floc(t1).Run(data.matrix), Floc(t4).Run(data.matrix));
}

TEST(GainMemoTest, AuditModeCrossChecksServedEntries) {
  SyntheticDataset data = Table2SmallData();
  FlocConfig config = Table2Config();
  config.memoize_gains = true;
  config.audit = true;  // DC_CHECKs cached == recomputed on every hit.
  FlocResult audited = Floc(config).Run(data.matrix);
  FlocConfig plain = Table2Config();
  ExpectSameClusters(audited, Floc(plain).Run(data.matrix));
}

// Audit mode also rescans every candidate the gain bound pruned and
// checks it could not have won -- the exhaustive decision rule, checked
// at every decision of the run -- across the norms and acceptance
// policies the CLI cannot select.
TEST(GainMemoTest, AuditModeCrossChecksPrunedCandidates) {
  SyntheticDataset data = Table2SmallData();
  struct Variant {
    ResidueNorm norm;
    bool negatives;
    double temperature;
  };
  for (const Variant& v :
       {Variant{ResidueNorm::kMeanSquared, false, 0.0},
        Variant{ResidueNorm::kMeanAbsolute, false, 0.5},
        Variant{ResidueNorm::kMeanSquared, false, 2.0},
        Variant{ResidueNorm::kMeanSquared, true, 0.0}}) {
    FlocConfig plain = Table2Config();
    plain.norm = v.norm;
    plain.perform_negative_actions = v.negatives;
    plain.annealing_temperature = v.temperature;
    FlocConfig audited = plain;
    audited.audit = true;
    ExpectSameClusters(Floc(audited).Run(data.matrix),
                       Floc(plain).Run(data.matrix));
  }
}

// The metrics-regression guard from the perf work: with memoization on,
// the same run must (a) scan strictly fewer entries, (b) serve a
// non-trivial number of evaluations from the cache, and (c) produce
// byte-identical clusters. Fixed dataset and seeds make the counter
// values deterministic.
TEST(GainMemoTest, MemoizationReducesEntriesScanned) {
  SyntheticDataset data = Table2SmallData();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* scanned =
      registry.GetCounter("floc.gain_eval_entries_scanned");
  obs::Counter* served =
      registry.GetCounter("floc.gain_evals_served_from_cache");

  FlocConfig off = Table2Config();
  off.memoize_gains = false;
  registry.ResetAll();
  FlocResult without_memo = Floc(off).Run(data.matrix);
  uint64_t scanned_off = scanned->Value();
  uint64_t served_off = served->Value();

  FlocConfig on = Table2Config();
  on.memoize_gains = true;
  registry.ResetAll();
  FlocResult with_memo = Floc(on).Run(data.matrix);
  uint64_t scanned_on = scanned->Value();
  uint64_t served_on = served->Value();

  obs::MetricsRegistry::SetEnabled(was_enabled);

  EXPECT_EQ(served_off, 0u);
  EXPECT_GT(served_on, 0u);
  EXPECT_LT(scanned_on, scanned_off);
  ExpectSameClusters(with_memo, without_memo);
}

}  // namespace
}  // namespace deltaclus
