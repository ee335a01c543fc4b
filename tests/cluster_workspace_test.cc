#include "src/core/cluster_workspace.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/audit.h"
#include "src/core/residue.h"
#include "src/obs/metrics.h"
#include "src/data/synthetic.h"
#include "src/util/rng.h"

namespace deltaclus {
namespace {

DataMatrix SmallMatrix() {
  return DataMatrix::FromOptionalRows({
      {1.0, 2.0, 3.0, 4.0},
      {2.0, 3.0, 4.0, 5.0},
      {5.0, std::nullopt, 7.0, 8.0},
      {1.0, 1.0, std::nullopt, 9.0},
  });
}

Cluster SmallCluster() {
  return Cluster::FromMembers(4, 4, {0, 1, 2}, {0, 2, 3});
}

TEST(ClusterWorkspaceTest, CachedResidueMatchesClusterViewResidue) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ClusterView view(m, SmallCluster());
  ResidueEngine engine;
  // First call fills the cache; repeated calls serve from it. All must be
  // bit-identical to the ClusterView path, which rescans every time.
  double expected = engine.Residue(view);
  EXPECT_EQ(engine.Residue(ws), expected);
  EXPECT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  EXPECT_EQ(engine.Residue(ws), expected);
  EXPECT_EQ(engine.Residue(ws), expected);
}

TEST(ClusterWorkspaceTest, TogglesInvalidateTheCache) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  engine.Residue(ws);
  ASSERT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));

  ws.ToggleRow(3);
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  engine.Residue(ws);
  ASSERT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));

  ws.ToggleCol(1);
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  engine.Residue(ws);

  ws.Reset(SmallCluster());
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
}

TEST(ClusterWorkspaceTest, NormChangeMissesTheCache) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine abs_engine(ResidueNorm::kMeanAbsolute);
  ResidueEngine sq_engine(ResidueNorm::kMeanSquared);
  double abs_residue = abs_engine.Residue(ws);
  // A cache filled under one norm must not satisfy the other.
  EXPECT_FALSE(ws.ResidueCached(CachedNormTag::kMeanSquared));
  double sq_residue = sq_engine.Residue(ws);
  EXPECT_TRUE(ws.ResidueCached(CachedNormTag::kMeanSquared));
  // And refilling under the second norm computed the right value.
  ClusterView view(m, SmallCluster());
  EXPECT_EQ(sq_residue, sq_engine.Residue(view));
  EXPECT_EQ(abs_residue, abs_engine.Residue(view));
}

TEST(ClusterWorkspaceTest, AfterToggleAndGainMatchViewOverloads) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ClusterView view(m, SmallCluster());
  ResidueEngine engine;
  for (size_t i = 0; i < m.rows(); ++i) {
    size_t ws_volume = 0;
    size_t view_volume = 0;
    EXPECT_EQ(engine.ResidueAfterToggleRow(ws, i, &ws_volume),
              engine.ResidueAfterToggleRow(view, i, &view_volume));
    EXPECT_EQ(ws_volume, view_volume);
    EXPECT_EQ(engine.GainToggleRow(ws, i), engine.GainToggleRow(view, i));
  }
  for (size_t j = 0; j < m.cols(); ++j) {
    EXPECT_EQ(engine.ResidueAfterToggleCol(ws, j),
              engine.ResidueAfterToggleCol(view, j));
    EXPECT_EQ(engine.GainToggleCol(ws, j), engine.GainToggleCol(view, j));
  }
}

TEST(ClusterWorkspaceTest, RandomizedToggleWalkStaysBitIdenticalToView) {
  SyntheticConfig config;
  config.rows = 40;
  config.cols = 30;
  config.num_clusters = 3;
  config.noise_stddev = 1.0;
  config.missing_fraction = 0.2;
  config.seed = 11;
  SyntheticDataset data = GenerateSynthetic(config);

  ClusterWorkspace ws(data.matrix,
                      Cluster::FromMembers(40, 30, {0, 1, 2, 3}, {0, 1, 2}));
  ClusterView view(data.matrix,
                   Cluster::FromMembers(40, 30, {0, 1, 2, 3}, {0, 1, 2}));
  ResidueEngine engine;
  Rng rng(99);
  for (int step = 0; step < 400; ++step) {
    if (rng.Bernoulli(0.5)) {
      size_t i = rng.UniformIndex(40);
      ws.ToggleRow(i);
      view.ToggleRow(i);
    } else {
      size_t j = rng.UniformIndex(30);
      ws.ToggleCol(j);
      view.ToggleCol(j);
    }
    // Read the cached residue twice per step (fill + hit) and require
    // bit-identity with the always-rescanning view path.
    double expected = engine.Residue(view);
    ASSERT_EQ(engine.Residue(ws), expected) << "step " << step;
    ASSERT_EQ(engine.Residue(ws), expected) << "step " << step;
  }
}

TEST(ClusterWorkspaceTest, AuditAcceptsConsistentWorkspace) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  engine.Residue(ws);  // fill the cache so the audit exercises it
  Constraints cons;
  AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                        kDefaultAuditTolerance, "test");
  // Also fine with an empty (invalidated) cache.
  ws.InvalidateResidue();
  AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                        kDefaultAuditTolerance, "test");
}

TEST(ClusterWorkspaceDeathTest, AuditCatchesStaleCache) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ResidueEngine engine;
  engine.Residue(ws);
  // Forge a stale cache: membership moves but the cache is restored as if
  // no toggle had happened. The audit must flag it.
  double numerator = ws.CachedResidueNumerator();
  size_t volume = ws.CachedResidueVolume();
  ws.ToggleRow(3);
  ws.CacheResidue(CachedNormTag::kMeanAbsolute, numerator, volume);
  Constraints cons;
  EXPECT_DEATH(AuditClusterWorkspace(ws, cons, ResidueNorm::kMeanAbsolute,
                                     kDefaultAuditTolerance, "stale"),
               "stale");
}

TEST(ClusterWorkspaceTest, EmptyClusterHasZeroResidue) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m);
  ResidueEngine engine;
  EXPECT_EQ(engine.Residue(ws), 0.0);
  EXPECT_TRUE(ws.ResidueCached(CachedNormTag::kMeanAbsolute));
  EXPECT_EQ(ws.CachedResidueVolume(), 0u);
}

TEST(ClusterWorkspaceTest, AlternatingNormsNeverServeStaleNumerators) {
  // The cross-norm interplay the residue cache must survive: one
  // workspace queried by a kMeanAbsolute engine and a kMeanSquared
  // engine back and forth, with mutations in between. Each read must be
  // bit-identical to a fresh rescan under that engine's norm -- a cached
  // numerator accumulated under the other norm must never leak through.
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  ClusterView view(m, SmallCluster());
  ResidueEngine abs_engine(ResidueNorm::kMeanAbsolute);
  ResidueEngine sq_engine(ResidueNorm::kMeanSquared);
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(abs_engine.Residue(ws), abs_engine.Residue(view));
    ASSERT_EQ(sq_engine.Residue(ws), sq_engine.Residue(view));
    ASSERT_EQ(abs_engine.Residue(ws), abs_engine.Residue(view));
    size_t i = static_cast<size_t>(round) % m.rows();
    ws.ToggleRow(i);
    view.ToggleRow(i);
  }
}

// The logical pane contents (resolved through both indirections) must
// mirror the cluster's submatrix exactly.
void ExpectPaneMirrorsCluster(const ClusterWorkspace& ws) {
  const PackedPane& pane = ws.EnsurePane();
  const Cluster& c = ws.cluster();
  const DataMatrix& m = ws.matrix();
  ASSERT_EQ(pane.num_cols, c.col_ids().size());
  ASSERT_EQ(pane.row_slots.size(), c.row_ids().size());
  for (size_t pr = 0; pr < c.row_ids().size(); ++pr) {
    for (size_t pc = 0; pc < c.col_ids().size(); ++pc) {
      size_t i = c.row_ids()[pr];
      size_t j = c.col_ids()[pc];
      ASSERT_EQ(pane.MaskAt(pr, pc) != 0, m.IsSpecified(i, j))
          << "pr=" << pr << " pc=" << pc;
      if (m.IsSpecified(i, j)) {
        ASSERT_EQ(pane.ValueAt(pr, pc), m.Value(i, j))
            << "pr=" << pr << " pc=" << pc;
      }
    }
  }
}

TEST(ClusterWorkspaceTest, PaneTracksMembershipEpoch) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  EXPECT_FALSE(ws.PaneValid());
  ws.EnsurePane();
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);

  // A single toggle against a fresh pane *patches* it -- the pane stays
  // valid without a rebuild and still mirrors the new membership.
  ws.ToggleCol(1);
  EXPECT_TRUE(ws.PaneValid());
  ExpectPaneMirrorsCluster(ws);

  // Reset is a wholesale change: the pane goes stale and EnsurePane
  // performs the compacting rebuild for the new shape.
  ws.Reset(SmallCluster());
  EXPECT_FALSE(ws.PaneValid());
  const PackedPane& rebuilt = ws.EnsurePane();
  EXPECT_TRUE(ws.PaneValid());
  EXPECT_EQ(rebuilt.num_cols, ws.cluster().col_ids().size());
  EXPECT_EQ(rebuilt.dead_rows, 0u);  // canonical compact layout
  EXPECT_GE(rebuilt.phys_stride, rebuilt.num_cols);
}

TEST(ClusterWorkspaceTest, SingleTogglesPatchThePaneWithoutRebuilds) {
  DataMatrix m = SmallMatrix();
  ClusterWorkspace ws(m, SmallCluster());
  bool was_enabled = obs::MetricsRegistry::Enabled();
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter* rebuilds = registry.GetCounter("floc.pane.rebuilds");
  obs::Counter* patches = registry.GetCounter("floc.pane.patches");

  ws.EnsurePane();
  uint64_t rebuilds_before = rebuilds->Value();
  uint64_t patches_before = patches->Value();

  // The FLOC sweep's only mutations are single toggles; none of these
  // may pay a full pane rebuild.
  ws.ToggleRow(3);   // add a row
  ws.ToggleCol(1);   // add a column
  ws.ToggleRow(0);   // remove a row
  ws.ToggleCol(3);   // remove a column
  EXPECT_TRUE(ws.PaneValid());
  ws.EnsurePane();
  EXPECT_EQ(rebuilds->Value(), rebuilds_before);
  EXPECT_EQ(patches->Value(), patches_before + 4);
  ExpectPaneMirrorsCluster(ws);

  obs::MetricsRegistry::SetEnabled(was_enabled);
}

TEST(ClusterWorkspaceTest, RandomizedTogglePatchingMatchesRebuild) {
  SyntheticConfig config;
  config.rows = 60;
  config.cols = 40;
  config.num_clusters = 3;
  config.noise_stddev = 1.0;
  config.missing_fraction = 0.15;
  config.seed = 23;
  SyntheticDataset data = GenerateSynthetic(config);

  ClusterWorkspace ws(data.matrix,
                      Cluster::FromMembers(60, 40, {0, 1, 2, 3, 4},
                                           {0, 1, 2, 3}));
  ws.EnsurePane();
  Rng rng(7);
  // Long biased walk: more adds than removals early, then flip, so the
  // pane crosses append-capacity and dead-fraction compaction
  // boundaries as well as interior column shifts. After *every* toggle
  // the logical pane must equal a from-scratch gather of the cluster's
  // submatrix, entry for entry -- whether the toggle was patched or the
  // pane was rebuilt.
  for (int step = 0; step < 600; ++step) {
    if (rng.Bernoulli(0.5)) {
      ws.ToggleRow(rng.UniformIndex(60));
    } else {
      ws.ToggleCol(rng.UniformIndex(40));
    }
    ExpectPaneMirrorsCluster(ws);
    if (HasFatalFailure()) return;
  }
}

// --- Bound stats and the after-toggle residue lower bounds ---

TEST(ClusterWorkspaceTest, BoundStatsMatchNaiveResidues) {
  DataMatrix m = SmallMatrix();
  Cluster c = SmallCluster();
  ClusterWorkspace ws(m, c);
  const ResidueBoundStats& bs =
      ws.EnsureBoundStats(CachedNormTag::kMeanAbsolute);
  ASSERT_EQ(bs.cols.mass.size(), c.NumCols());
  ASSERT_EQ(bs.rows.mass.size(), c.NumRows());
  for (size_t idx = 0; idx < c.NumCols(); ++idx) {
    size_t j = c.col_ids()[idx];
    double mass = 0.0;
    uint32_t pos = 0;
    uint32_t neg = 0;
    for (uint32_t i : c.row_ids()) {
      if (!m.IsSpecified(i, j)) continue;
      double r = EntryResidueNaive(m, c, i, j);
      mass += std::abs(r);
      // Residues within rounding of 0 may land on either side.
      if (r > 1e-12) ++pos;
      if (r < -1e-12) ++neg;
    }
    EXPECT_NEAR(bs.cols.mass[idx], mass, 1e-12) << "column " << j;
    EXPECT_GE(bs.cols.pos[idx], pos);
    EXPECT_GE(bs.cols.neg[idx], neg);
    EXPECT_EQ(bs.cols.count[idx], ws.stats().ColCount(j));
    EXPECT_EQ(bs.cols.base[idx], ws.stats().ColBase(j));
  }
  EXPECT_EQ(bs.max_abs_value, 8.0);  // row 3's 9.0 is outside I
  // Rebuilt under the other norm: squared sums instead of sign counts.
  const ResidueBoundStats& sq =
      ws.EnsureBoundStats(CachedNormTag::kMeanSquared);
  EXPECT_TRUE(sq.cols.pos.empty());
  EXPECT_EQ(sq.cols.sum.size(), c.NumCols());
}

// Randomized sweep: on dense and masked matrices, for random clusters
// and every row and column add/remove, under both norms, the bound
// never exceeds the exact after-toggle residue and reports the exact
// post-toggle volume. The bound is also required to be useful: on
// average it recovers most of the exact residue.
TEST(ClusterWorkspaceTest, LowerBoundsNeverExceedExactAfterToggleResidue) {
  for (double missing : {0.0, 0.3}) {
    SyntheticConfig config;
    config.rows = 40;
    config.cols = 24;
    config.num_clusters = 3;
    config.volume_mean = 120;
    config.noise_stddev = 1.5;
    config.missing_fraction = missing;
    config.seed = 31;
    SyntheticDataset data = GenerateSynthetic(config);
    const DataMatrix& m = data.matrix;
    for (ResidueNorm norm :
         {ResidueNorm::kMeanAbsolute, ResidueNorm::kMeanSquared}) {
      ResidueEngine engine(norm);
      Rng rng(missing > 0 ? 5 : 6);
      double bound_mass = 0.0;
      double exact_mass = 0.0;
      for (int trial = 0; trial < 12; ++trial) {
        Cluster c(m.rows(), m.cols());
        for (size_t i = 0; i < m.rows(); ++i) {
          if (rng.Bernoulli(0.4)) c.AddRow(i);
        }
        for (size_t j = 0; j < m.cols(); ++j) {
          if (rng.Bernoulli(0.5)) c.AddCol(j);
        }
        ClusterWorkspace ws(m, c);
        auto check = [&](bool is_row, size_t x) {
          size_t bound_volume = 0;
          size_t exact_volume = 0;
          double bound =
              is_row ? engine.ResidueLowerBoundAfterToggleRow(ws, x,
                                                              &bound_volume)
                     : engine.ResidueLowerBoundAfterToggleCol(ws, x,
                                                              &bound_volume);
          double exact =
              is_row ? engine.ResidueAfterToggleRow(ws, x, &exact_volume)
                     : engine.ResidueAfterToggleCol(ws, x, &exact_volume);
          EXPECT_LE(bound, exact)
              << (is_row ? "row " : "col ") << x << " trial " << trial;
          EXPECT_EQ(bound_volume, exact_volume);
          bound_mass += bound;
          exact_mass += exact;
        };
        for (size_t i = 0; i < m.rows(); ++i) check(true, i);
        for (size_t j = 0; j < m.cols(); ++j) check(false, j);
        if (HasFailure()) return;
      }
      EXPECT_GT(bound_mass, 0.5 * exact_mass)
          << "missing " << missing << " squared "
          << (norm == ResidueNorm::kMeanSquared);
    }
  }
}

TEST(ClusterWorkspaceTest, SquaredNormBoundIsTheExactIdentityLessMargin) {
  // Under the mean-squared norm the bound is the identity
  // sum (r + e)^2 = Q + 2eT + n e^2, so it matches the scan to within
  // its floating-point margin (about 1e-9 x max|d|^2 per entry).
  SyntheticConfig config;
  config.rows = 30;
  config.cols = 12;
  config.num_clusters = 2;
  config.noise_stddev = 2.0;
  config.seed = 17;
  SyntheticDataset data = GenerateSynthetic(config);
  const DataMatrix& m = data.matrix;
  ClusterWorkspace ws(m, Cluster::FromMembers(30, 12, {0, 2, 4, 6, 8, 10, 12},
                                              {1, 3, 5, 7, 9}));
  ResidueEngine engine(ResidueNorm::kMeanSquared);
  for (size_t i = 0; i < m.rows(); ++i) {
    size_t volume = 0;
    double bound = engine.ResidueLowerBoundAfterToggleRow(ws, i, &volume);
    double exact = engine.ResidueAfterToggleRow(ws, i);
    EXPECT_LE(bound, exact);
    EXPECT_NEAR(bound, exact, 1e-6 * (1.0 + exact)) << "row " << i;
  }
  for (size_t j = 0; j < m.cols(); ++j) {
    size_t volume = 0;
    double bound = engine.ResidueLowerBoundAfterToggleCol(ws, j, &volume);
    double exact = engine.ResidueAfterToggleCol(ws, j);
    EXPECT_LE(bound, exact);
    EXPECT_NEAR(bound, exact, 1e-6 * (1.0 + exact)) << "col " << j;
  }
}

}  // namespace
}  // namespace deltaclus
