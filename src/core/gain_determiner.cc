#include <utility>

#include "src/core/floc_metrics.h"
#include "src/core/floc_phases.h"
#include "src/obs/trace.h"

namespace deltaclus {

namespace {

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

Action BestActionFor(bool is_row, size_t index, GainEvaluator& eval) {
  Action best;
  best.target = is_row ? ActionTarget::kRow : ActionTarget::kCol;
  best.index = index;
  const GainContext& ctx = eval.ctx();
  const std::vector<ClusterWorkspace>& views = *ctx.views;
  std::vector<GainEvaluator::Pending>& pending = eval.pending();
  pending.clear();

  // Pass 1: constraints, memo hits (exact), and a gain bound per miss.
  for (size_t c = 0; c < views.size(); ++c) {
    // Constraint checks always run fresh: whether a toggle is blocked
    // depends on *other* clusters (overlap, coverage), which the target
    // cluster's epoch does not cover.
    BlockReason reason =
        is_row ? ctx.tracker->RowToggleBlockReason(views, c, index)
               : ctx.tracker->ColToggleBlockReason(views, c, index);
    if (reason != BlockReason::kNone) {
      if (ctx.blocked != nullptr) ctx.blocked->Add(reason);
      continue;
    }
    GainMemo::Entry* slot =
        ctx.memo != nullptr ? ctx.memo->Slot(is_row, index, c) : nullptr;
    uint64_t epoch = views[c].epoch();
    if (slot != nullptr && slot->epoch == epoch) {
      // Cache hit: the cluster's membership (hence its stats, hence the
      // whole after-toggle scan) is unchanged since the entry was
      // stamped, so the stored residue/volume are bit-identical to what
      // a rescan would produce.
      FlocMetrics::Get().gain_evals_served->Inc();
      if (ctx.audit) eval.CheckMemo(is_row, index, c, *slot, false);
      double gain = eval.Gain(c, slot->after_residue, slot->new_volume);
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
      if (ctx.audit) eval.CheckMemo(is_row, index, c, *slot, true);
    } else {
      lower = eval.ResidueBound(is_row, index, c, &new_volume);
      if (slot != nullptr) *slot = {bound_stamp, lower, new_volume};
    }
    pending.push_back({eval.Gain(c, lower, new_volume), c, slot});
  }

  // Pass 2: scan the pending candidates highest bound first (ties to
  // the lowest cluster) while the top one could still win. In that
  // order "cannot win" is monotone: once the top candidate cannot beat
  // the best exact gain, no remaining one can. Usually one or two scans
  // settle it, so the top is found by selection rather than a sort.
  auto could_win = [&](const GainEvaluator::Pending& p) {
    if (ctx.drop_nonpositive && p.bound <= 0.0) return false;
    return Beats(p.bound, p.cluster, best);
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
    const GainEvaluator::Pending& p = pending[scanned++];
    double gain = eval.BoundedGain(is_row, index, p.cluster, p.bound, p.slot);
    if (Beats(gain, p.cluster, best)) Take(best, gain, p.cluster);
  }
  // The rest are settled by their bounds: none can change the decision,
  // except into one the caller drops anyway.
  for (size_t t = scanned; t < pending.size(); ++t) {
    const GainEvaluator::Pending& p = pending[t];
    eval.Prune(is_row, index, p.cluster, p.bound, [&](double gain) {
      bool dropped_anyway = ctx.drop_nonpositive && gain <= 0.0 &&
                            (best.blocked() || best.gain <= 0.0);
      return !Beats(gain, p.cluster, best) || dropped_anyway;
    });
  }
  // floc.gain.apply_skipped: re-decisions dropped without any scan.
  if (ctx.drop_nonpositive && scanned == 0 && !pending.empty() &&
      (best.blocked() || best.gain <= 0.0)) {
    FlocMetrics::Get().gain_apply_skipped->Inc();
  }
  return best;
}

void RefineCandidates(size_t c, double min_improvement, GainEvaluator& eval,
                      std::vector<Action>* out) {
  const GainContext& ctx = eval.ctx();
  const std::vector<ClusterWorkspace>& views = *ctx.views;
  out->clear();
  size_t rows = views[c].matrix().rows();
  size_t total = rows + views[c].matrix().cols();
  for (size_t t = 0; t < total; ++t) {
    bool is_row = t < rows;
    size_t index = is_row ? t : t - rows;
    bool allowed = is_row ? ctx.tracker->RowToggleAllowed(views, c, index)
                          : ctx.tracker->ColToggleAllowed(views, c, index);
    if (!allowed) continue;
    size_t new_volume = 0;
    double lower = eval.ResidueBound(is_row, index, c, &new_volume);
    double bound = eval.Gain(c, lower, new_volume);
    if (bound <= min_improvement) {
      eval.Prune(is_row, index, c, bound,
                 [&](double gain) { return gain <= min_improvement; });
      continue;
    }
    double gain = eval.BoundedGain(is_row, index, c, bound, nullptr);
    if (gain > min_improvement) {
      out->push_back(
          {is_row ? ActionTarget::kRow : ActionTarget::kCol, index, c, gain});
    }
  }
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
        // Per-shard evaluator: the engine's buffers and the pending list
        // must not be shared across threads, and construction is trivial
        // next to the scan.
        GainEvaluator eval(
            {&views, &scores, &tracker, target_residue_,
             blocked != nullptr ? &shard_counts[shard] : nullptr, memo_,
             audit_},
            norm_);
        for (size_t t = begin; t < end; ++t) {
          bool is_row = t < num_rows;
          size_t index = is_row ? t : t - num_rows;
          actions[t] = BestActionFor(is_row, index, eval);
        }
      },
      serial_cutoff_, stop);

  if (blocked != nullptr) {
    for (const obs::BlockCounts& sc : shard_counts) blocked->Merge(sc);
  }
  return actions;
}

}  // namespace deltaclus
