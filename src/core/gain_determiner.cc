#include <utility>

#include "src/core/floc_metrics.h"
#include "src/core/floc_phases.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/check.h"

namespace deltaclus {

namespace {

// After-toggle evaluations answered by the epoch-stamped gain memo
// instead of an O(volume) rescan. Together with
// floc.gain_eval_entries_scanned this measures how much scanning the
// memoization avoids.
obs::Counter* GainMemoServedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_evals_served_from_cache");
  return counter;
}

// After-toggle evaluations that had to rescan (cold or stale memo slot,
// or no memo configured, and a bound that could not settle them).
// served / (served + recomputed) is the memo hit rate reported by
// obs::PerfReport.
obs::Counter* GainMemoRecomputedCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "floc.gain_evals_recomputed");
  return counter;
}

// The strict-> loop over ascending cluster indices, restated for
// candidates visited in any order: a higher gain wins, an equal gain
// wins only from a lower index.
bool Beats(double gain, size_t cluster, const Action& best) {
  return best.blocked() || gain > best.gain ||
         (gain == best.gain && cluster < best.cluster);
}

void Take(Action& best, double gain, size_t cluster) {
  best.gain = gain;
  best.cluster = cluster;
}

}  // namespace

Action BestActionFor(bool is_row, size_t index, const GainContext& ctx,
                     GainScratch& scratch) {
  Action best;
  best.target = is_row ? ActionTarget::kRow : ActionTarget::kCol;
  best.index = index;
  const std::vector<ClusterWorkspace>& views = *ctx.views;
  ResidueEngine& engine = scratch.engine;
  std::vector<GainScratch::Pending>& pending = scratch.pending;
  pending.clear();
  auto scan = [&](size_t c, size_t* new_volume) {
    return is_row ? engine.ResidueAfterToggleRow(views[c], index, new_volume)
                  : engine.ResidueAfterToggleCol(views[c], index, new_volume);
  };
  auto bound = [&](size_t c, size_t* new_volume) {
    return is_row ? engine.ResidueLowerBoundAfterToggleRow(views[c], index,
                                                           new_volume)
                  : engine.ResidueLowerBoundAfterToggleCol(views[c], index,
                                                           new_volume);
  };
  // Audit rescans take the ClusterView gather path: bit-identical to the
  // pane scan by contract, independent of the pane, and outside the
  // floc.gain_eval_entries_* counters, so audit mode leaves the measured
  // scan counts as they are.
  auto audit_scan = [&](size_t c, size_t* new_volume) {
    const ClusterView& view = views[c].view();
    return is_row ? engine.ResidueAfterToggleRow(view, index, new_volume)
                  : engine.ResidueAfterToggleCol(view, index, new_volume);
  };
  auto gain_of = [&](size_t c, double after_residue, size_t new_volume) {
    // The gain is re-derived from the *current* score vector even on
    // memo hits: scores move whenever any cluster's residue moves, and
    // the epoch only vouches for this cluster's membership.
    return (*ctx.scores)[c] -
           ObjectiveScore(after_residue, new_volume, ctx.target_residue);
  };

  // Pass 1: constraints, memo hits (exact), and a gain bound per miss.
  for (size_t c = 0; c < views.size(); ++c) {
    // Constraint checks always run fresh: whether a toggle is blocked
    // depends on *other* clusters (overlap, coverage), which the target
    // cluster's epoch does not cover.
    if (ctx.blocked != nullptr) {
      BlockReason reason =
          is_row ? ctx.tracker->RowToggleBlockReason(views, c, index)
                 : ctx.tracker->ColToggleBlockReason(views, c, index);
      if (reason != BlockReason::kNone) {
        ctx.blocked->Add(reason);
        continue;
      }
    } else {
      bool allowed = is_row ? ctx.tracker->RowToggleAllowed(views, c, index)
                            : ctx.tracker->ColToggleAllowed(views, c, index);
      if (!allowed) continue;
    }
    GainMemo::Entry* slot =
        ctx.memo != nullptr ? ctx.memo->Slot(is_row, index, c) : nullptr;
    uint64_t epoch = views[c].epoch();
    if (slot != nullptr && slot->epoch == epoch) {
      // Cache hit: the cluster's membership (hence its stats, hence the
      // whole after-toggle scan) is unchanged since the entry was
      // stamped, so the stored residue/volume are bit-identical to what
      // a rescan would produce.
      GainMemoServedCounter()->Inc();
      if (ctx.audit) {
        size_t check_volume = 0;
        double check_residue = audit_scan(c, &check_volume);
        DC_CHECK(check_residue == slot->after_residue &&
                 check_volume == slot->new_volume)
            << "gain memo drift at (" << (is_row ? "row " : "col ") << index
            << ", cluster " << c << "): cached residue="
            << slot->after_residue << " volume=" << slot->new_volume
            << " vs recomputed " << check_residue << " / " << check_volume;
      }
      double gain = gain_of(c, slot->after_residue, slot->new_volume);
      if (Beats(gain, c, best)) Take(best, gain, c);
      continue;
    }
    // Otherwise a residue lower bound, itself memoized under the tagged
    // epoch: a pair the bound settled keeps it until the cluster moves.
    uint64_t bound_stamp = epoch | GainMemo::kBoundTag;
    size_t new_volume = 0;
    double lower = 0.0;
    if (slot != nullptr && slot->epoch == bound_stamp) {
      lower = slot->after_residue;
      new_volume = slot->new_volume;
      if (ctx.audit) {
        size_t check_volume = 0;
        double check = bound(c, &check_volume);
        DC_CHECK(check == lower && check_volume == new_volume)
            << "gain memo bound drift at (" << (is_row ? "row " : "col ")
            << index << ", cluster " << c << "): cached " << lower
            << " vs recomputed " << check;
      }
    } else {
      lower = bound(c, &new_volume);
      if (slot != nullptr) *slot = {bound_stamp, lower, new_volume};
    }
    // ObjectiveScore is monotone in the residue, so a residue lower
    // bound is a gain upper bound.
    pending.push_back({gain_of(c, lower, new_volume), c, slot});
  }

  // Pass 2: scan the pending candidates highest bound first (ties to
  // the lowest cluster) while the top one could still win. In that
  // order "cannot win" is monotone: once the top candidate cannot beat
  // the best exact gain, no remaining one can. Usually one or two scans
  // settle it, so the top is found by selection rather than a sort.
  auto could_win = [&](const GainScratch::Pending& p) {
    if (ctx.drop_nonpositive && p.bound <= 0.0) return false;
    return Beats(p.bound, p.cluster, best);
  };
  auto check_bound = [&](const GainScratch::Pending& p, double gain) {
    DC_CHECK(gain <= p.bound)
        << "gain bound violated at (" << (is_row ? "row " : "col ") << index
        << ", cluster " << p.cluster << "): gain " << gain << " > bound "
        << p.bound;
  };
  size_t scanned = 0;
  while (scanned < pending.size()) {
    size_t top = scanned;
    for (size_t t = scanned + 1; t < pending.size(); ++t) {
      if (pending[t].bound > pending[top].bound ||
          (pending[t].bound == pending[top].bound &&
           pending[t].cluster < pending[top].cluster)) {
        top = t;
      }
    }
    if (!could_win(pending[top])) break;
    std::swap(pending[scanned], pending[top]);
    const GainScratch::Pending& p = pending[scanned++];
    size_t new_volume = 0;
    double after_residue = scan(p.cluster, &new_volume);
    GainMemoRecomputedCounter()->Inc();
    if (p.slot != nullptr) {
      *p.slot = {views[p.cluster].epoch(), after_residue, new_volume};
    }
    double gain = gain_of(p.cluster, after_residue, new_volume);
    if (ctx.audit) check_bound(p, gain);
    if (Beats(gain, p.cluster, best)) Take(best, gain, p.cluster);
  }
  // floc.gain.pruned: memo misses settled by their bound (pruned /
  // (pruned + recomputed) is the PerfReport prune rate).
  // floc.gain.apply_skipped: re-decisions dropped without any scan.
  size_t pruned = pending.size() - scanned;
  if (pruned > 0) FlocMetrics::Get().gain_pruned->Inc(pruned);
  if (ctx.drop_nonpositive && scanned == 0 && !pending.empty() &&
      (best.blocked() || best.gain <= 0.0)) {
    FlocMetrics::Get().gain_apply_skipped->Inc();
  }
  if (ctx.audit) {
    // Every pruned candidate, rescanned (without touching the memo):
    // within its bound, and unable to change the decision.
    for (size_t t = scanned; t < pending.size(); ++t) {
      const GainScratch::Pending& p = pending[t];
      size_t new_volume = 0;
      double gain = gain_of(p.cluster, audit_scan(p.cluster, &new_volume),
                            new_volume);
      check_bound(p, gain);
      bool dropped_anyway = ctx.drop_nonpositive && gain <= 0.0 &&
                            (best.blocked() || best.gain <= 0.0);
      DC_CHECK(!Beats(gain, p.cluster, best) || dropped_anyway)
          << "pruned candidate would have won at ("
          << (is_row ? "row " : "col ") << index << ", cluster "
          << p.cluster << "): gain " << gain << " vs best " << best.gain;
    }
  }
  return best;
}

std::vector<Action> GainDeterminer::Determine(
    const DataMatrix& matrix, const std::vector<ClusterWorkspace>& views,
    const std::vector<double>& scores, const ConstraintTracker& tracker,
    obs::BlockCounts* blocked, const StopToken* stop) const {
  DC_TRACE_SPAN("floc/determine_actions");
  size_t num_rows = matrix.rows();
  size_t total = num_rows + matrix.cols();
  std::vector<Action> actions(total);

  // Build every cluster's packed pane and bound stats on the
  // coordinating thread before fanning out: the fills are not
  // thread-safe, but once the epoch stamps match, the shard bodies'
  // Ensure calls are read-only.
  for (const ClusterWorkspace& ws : views) {
    ws.EnsurePane();
    ws.EnsureBoundStats(NormTag(norm_));
  }

  // Per-shard blocked-toggle tallies, merged in shard order after the
  // sweep. Shard count is a function of `total` only, so the merged
  // counts -- like the action vector -- are identical at any pool size.
  size_t shards = engine::ShardCount(total, engine::ShardGrain(total));
  std::vector<obs::BlockCounts> shard_counts(blocked != nullptr ? shards : 0);

  engine::ParallelApply(
      pool_, total,
      [&](size_t begin, size_t end, size_t shard) {
        GainContext ctx{&views, &scores, &tracker, target_residue_,
                        blocked != nullptr ? &shard_counts[shard] : nullptr,
                        memo_, audit_};
        // Per-shard scratch: the engine's buffers and the pending list
        // must not be shared across threads, and construction is trivial
        // next to the scan.
        GainScratch scratch(norm_);
        for (size_t t = begin; t < end; ++t) {
          bool is_row = t < num_rows;
          size_t index = is_row ? t : t - num_rows;
          actions[t] = BestActionFor(is_row, index, ctx, scratch);
        }
      },
      serial_cutoff_, stop);

  if (blocked != nullptr) {
    for (const obs::BlockCounts& sc : shard_counts) blocked->Merge(sc);
  }
  return actions;
}

}  // namespace deltaclus
