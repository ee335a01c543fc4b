// The four phase components of a FLOC Phase-2 iteration (paper Section
// 4.1 / Figure 5), extracted from the former monolithic Floc::Run so
// each is unit-testable and schedulable on the execution engine:
//
//   GainDeterminer     step 1: the best action per row/column, fanned
//                      out over the thread pool in deterministic shards.
//   ActionScheduler    step 2: the order the N + M actions are performed
//                      in (wraps the three orderings of Section 5.2).
//   ActionApplier      step 3: the sequential apply sweep -- re-deciding
//                      or re-validating each action against the current
//                      state, annealing negatives, toggling memberships.
//   BestPrefixSelector step 4: which intermediate clustering (prefix of
//                      the applied actions) the iteration keeps.
//
// Determination is the only data-parallel phase: it is read-only over
// the clustering, so shards evaluate virtual toggles concurrently and
// write disjoint slots of the action vector. Apply is inherently
// sequential (each toggle changes what the next action sees), exactly
// as the paper specifies.
#ifndef DELTACLUS_CORE_FLOC_PHASES_H_
#define DELTACLUS_CORE_FLOC_PHASES_H_

#include <cmath>
#include <cstddef>
#include <vector>

#include "src/core/actions.h"
#include "src/core/cluster_workspace.h"
#include "src/core/constraints.h"
#include "src/core/data_matrix.h"
#include "src/core/floc.h"
#include "src/core/floc_metrics.h"
#include "src/core/gain_memo.h"
#include "src/core/ordering.h"
#include "src/core/residue.h"
#include "src/engine/thread_pool.h"
#include "src/obs/telemetry.h"
#include "src/util/check.h"
#include "src/util/rng.h"

namespace deltaclus {

/// Per-cluster objective value: the residue when target_residue == 0
/// (the paper's literal objective), residue - target * ln(volume) in
/// volume-seeking mode (see FlocConfig::target_residue).
inline double ObjectiveScore(double residue, size_t volume,
                             double target_residue) {
  if (target_residue <= 0.0) return residue;
  return residue - target_residue *
                       std::log(static_cast<double>(std::max<size_t>(volume, 1)));
}

/// Read-only inputs of one best-action decision. Shared by the parallel
/// determination shards and the (sequential) fresh-gain re-decisions of
/// the apply sweep.
struct GainContext {
  const std::vector<ClusterWorkspace>* views;
  const std::vector<double>* scores;
  const ConstraintTracker* tracker;
  double target_residue;
  // When non-null, blocked candidate toggles are tallied by constraint
  // (telemetry collecting).
  obs::BlockCounts* blocked = nullptr;
  // When non-null, after-toggle residue evaluations are served from /
  // stored into this epoch-stamped per-(entity, cluster) memo (see
  // src/core/gain_memo.h). Blocked pairs bypass the memo entirely;
  // gains are always re-derived from `scores`, never cached.
  GainMemo* memo = nullptr;
  // Audit mode: every memo hit and cached bound is recomputed and
  // DC_CHECKed bit-equal to the cached value; the GainEvaluator checks
  // every scanned gain against its bound and rescans every pruned
  // candidate to confirm it could not have won.
  bool audit = false;
  // The caller drops any action whose gain is <= 0 (greedy apply: no
  // negative actions, no annealing). Candidates whose gain bound is <= 0
  // then need no scan, and when none is left the decision settles
  // without one; the returned action is then blocked() or has gain <= 0.
  bool drop_nonpositive = false;
};

/// The one bounded gain evaluator of determine, apply and refine
/// (BestActionFor, RefineCandidates, Floc::RefineSweep's re-check): the
/// only code that picks the row or column form of the after-toggle scan
/// and of its bound, and that audits them (every scanned gain against its
/// bound, every pruned candidate rescanned). Candidate (is_row, index, c)
/// toggles row or column `index` in cluster c. Exact pane scans count in
/// floc.gain_evals_recomputed and pruned candidates in floc.gain.pruned,
/// flushed on destruction. Holds the residue engine's buffers, so one per
/// thread; inline, as callers evaluate per candidate.
class GainEvaluator {
 public:
  /// A candidate awaiting an exact scan in BestActionFor.
  struct Pending {
    double bound;  ///< upper bound on the candidate's gain
    size_t cluster;
    GainMemo::Entry* slot;  ///< memo slot to fill, or null
  };

  GainEvaluator(const GainContext& ctx, ResidueNorm norm)
      : ctx_(ctx), engine_(norm) {}
  GainEvaluator(const GainEvaluator&) = delete;
  GainEvaluator& operator=(const GainEvaluator&) = delete;
  ~GainEvaluator() {
    if (scanned_ > 0) FlocMetrics::Get().gain_evals_recomputed->Inc(scanned_);
    if (pruned_ > 0) FlocMetrics::Get().gain_pruned->Inc(pruned_);
  }

  const GainContext& ctx() const { return ctx_; }
  ResidueEngine& engine() { return engine_; }
  std::vector<Pending>& pending() { return pending_; }

  /// scores[c] minus c's objective after the toggle, from the current
  /// scores even for a memoized residue. The objective is monotone in the
  /// residue, so a residue lower bound gives a gain upper bound.
  double Gain(size_t c, double after_residue, size_t new_volume) const {
    return (*ctx_.scores)[c] -
           ObjectiveScore(after_residue, new_volume, ctx_.target_residue);
  }

  /// O(|J|) / O(|I|) lower bound on the after-toggle residue.
  double ResidueBound(bool is_row, size_t index, size_t c,
                      size_t* new_volume) {
    const ClusterWorkspace& ws = (*ctx_.views)[c];
    return is_row
               ? engine_.ResidueLowerBoundAfterToggleRow(ws, index, new_volume)
               : engine_.ResidueLowerBoundAfterToggleCol(ws, index, new_volume);
  }

  /// The exact gain from a counted pane scan; a non-null `slot` memoizes
  /// the residue under the cluster's epoch.
  double ExactGain(bool is_row, size_t index, size_t c,
                   GainMemo::Entry* slot = nullptr) {
    const ClusterWorkspace& ws = (*ctx_.views)[c];
    size_t new_volume = 0;
    double after_residue = After(ws, is_row, index, &new_volume);
    ++scanned_;
    if (slot != nullptr) *slot = {ws.epoch(), after_residue, new_volume};
    return Gain(c, after_residue, new_volume);
  }

  /// Audit: a memo entry for this candidate must equal a recompute bit
  /// for bit, be it an exact residue or (`is_bound`) a residue bound.
  void CheckMemo(bool is_row, size_t index, size_t c,
                 const GainMemo::Entry& entry, bool is_bound) {
    size_t new_volume = 0;
    double residue = is_bound ? ResidueBound(is_row, index, c, &new_volume)
                              : AuditResidue(is_row, index, c, &new_volume);
    DC_CHECK(residue == entry.after_residue && new_volume == entry.new_volume)
        << "gain memo " << (is_bound ? "bound " : "") << "drift at ("
        << (is_row ? "row " : "col ") << index << ", cluster " << c
        << "): cached " << entry.after_residue << " / " << entry.new_volume
        << " vs recomputed " << residue << " / " << new_volume;
  }

  /// ExactGain of a candidate whose gain bound is `bound`.
  double BoundedGain(bool is_row, size_t index, size_t c, double bound,
                     GainMemo::Entry* slot) {
    double gain = ExactGain(is_row, index, c, slot);
    if (ctx_.audit) CheckBound(is_row, index, c, gain, bound);
    return gain;
  }

  /// Settles a candidate by its gain bound, without a scan. Audit
  /// rescans it and requires `loses(gain)`: the exact gain would have
  /// left the caller's decision as it is.
  template <typename Loses>
  void Prune(bool is_row, size_t index, size_t c, double bound,
             const Loses& loses) {
    ++pruned_;
    if (ctx_.audit) AuditPruned(is_row, index, c, bound, loses);
  }

 private:
  // The after-toggle residue on the ClusterView gather path: bit-identical
  // to the pane scan, independent of the pane, and outside the scan
  // counters, so audit cross-checks leave the measured counts alone.
  double AuditResidue(bool is_row, size_t index, size_t c,
                      size_t* new_volume) {
    return After((*ctx_.views)[c].view(), is_row, index, new_volume);
  }

  // Prune's audit, out of line so that Prune stays small enough to inline.
  template <typename Loses>
  [[gnu::noinline]] void AuditPruned(bool is_row, size_t index, size_t c,
                                     double bound, const Loses& loses) {
    size_t new_volume = 0;
    double after_residue = AuditResidue(is_row, index, c, &new_volume);
    double gain = Gain(c, after_residue, new_volume);
    CheckBound(is_row, index, c, gain, bound);
    DC_CHECK(loses(gain)) << "pruned candidate would have won at ("
                          << (is_row ? "row " : "col ") << index
                          << ", cluster " << c << "): gain " << gain;
  }

  template <typename Members>  // ClusterWorkspace or ClusterView
  double After(const Members& members, bool is_row, size_t index,
               size_t* new_volume) {
    return is_row ? engine_.ResidueAfterToggleRow(members, index, new_volume)
                  : engine_.ResidueAfterToggleCol(members, index, new_volume);
  }

  static void CheckBound(bool is_row, size_t index, size_t c, double gain,
                         double bound) {
    DC_CHECK(gain <= bound)
        << "gain bound violated at (" << (is_row ? "row " : "col ") << index
        << ", cluster " << c << "): gain " << gain << " > bound " << bound;
  }

  GainContext ctx_;
  ResidueEngine engine_;
  std::vector<Pending> pending_;
  uint64_t scanned_ = 0;
  uint64_t pruned_ = 0;
};

/// The best of the k candidate actions for one row (is_row) or column:
/// the membership toggle with the highest objective gain among those not
/// blocked by constraints, ties going to the lowest cluster index. Memo
/// hits are exact; every other candidate first gets an O(|J|) / O(|I|)
/// gain upper bound, and only those whose bound could still beat the
/// best exact gain found so far are scanned, highest bound first. The
/// result is identical to scanning every candidate. Read-only over the
/// clustering once every cluster's pane and bound stats are built, so
/// concurrent calls (each with its own evaluator) are safe.
Action BestActionFor(bool is_row, size_t index, GainEvaluator& eval);

/// Floc::RefineSweep's candidate scan of cluster c: the toggles of rows,
/// then of columns, in index order, that the tracker allows and whose
/// exact gain exceeds `min_improvement`. Only toggles whose gain bound
/// clears `min_improvement` are scanned; the list is identical to
/// scanning every allowed toggle. Replaces the contents of `out`.
void RefineCandidates(size_t c, double min_improvement, GainEvaluator& eval,
                      std::vector<Action>* out);

/// Runs after a committed toggle on the mutated workspace (Floc's
/// audit-mode hook); `self` is the object the hook serves.
using ToggleHook = void (*)(void* self, const ClusterWorkspace& ws);

/// The one toggle commit of the apply and refine sweeps: flips `action`
/// in its cluster, tells the tracker, runs `hook` (when non-null) and
/// returns the cluster's new objective score.
double CommitToggle(const Action& action, std::vector<ClusterWorkspace>& views,
                    ConstraintTracker& tracker, ResidueEngine& engine,
                    double target_residue, ToggleHook hook, void* hook_self);

/// Phase-2 step 1: determines the best action for every row and column
/// against the current clustering, sharded over the thread pool.
///
/// Determinism contract: shard boundaries depend only on the row+column
/// count (engine::ShardGrain); every shard writes disjoint elements of
/// the action vector and tallies blocked toggles into its own slot,
/// merged in shard order afterwards -- so the result is bit-identical
/// for any pool size, including the inline serial path below
/// `serial_cutoff` (see EngineConfig::kDefaultSerialCutoff).
class GainDeterminer {
 public:
  /// `pool` is non-owning and may be null (serial). `serial_cutoff` is
  /// the work-item count below which the scan always runs inline.
  /// `memo` is a non-owning, optional gain memo shared with the apply
  /// sweep (must be Configure()d for this matrix/cluster-count and
  /// outlive the determiner); `audit` cross-checks every memo hit and
  /// every bound (GainContext::audit).
  GainDeterminer(ResidueNorm norm, double target_residue,
                 engine::ThreadPool* pool,
                 size_t serial_cutoff = engine::EngineConfig::kDefaultSerialCutoff,
                 GainMemo* memo = nullptr, bool audit = false)
      : norm_(norm),
        target_residue_(target_residue),
        pool_(pool),
        serial_cutoff_(serial_cutoff),
        memo_(memo),
        audit_(audit) {}

  /// Returns rows() + cols() actions: rows first (action t targets row t
  /// for t < rows()), then columns. `scores` holds the current
  /// per-cluster objective values. When `blocked` is non-null, candidate
  /// toggles rejected by a constraint are tallied into it by reason.
  /// `stop` (optional) cancels at shard boundaries per the ParallelApply
  /// contract; the caller must check stop_requested() afterwards and
  /// discard the (partially filled) action vector wholesale.
  std::vector<Action> Determine(const DataMatrix& matrix,
                                const std::vector<ClusterWorkspace>& views,
                                const std::vector<double>& scores,
                                const ConstraintTracker& tracker,
                                obs::BlockCounts* blocked,
                                const StopToken* stop = nullptr) const;

 private:
  ResidueNorm norm_;
  double target_residue_;
  engine::ThreadPool* pool_;
  size_t serial_cutoff_;
  GainMemo* memo_;
  bool audit_;
};

/// Phase-2 step 2: the order in which the N + M determined actions are
/// performed. Wraps the three ordering schemes (fixed / random /
/// gain-weighted random, Section 5.2); the gains feeding the weighted
/// scheme are the determination-time gains even when the applier later
/// re-decides actions freshly.
class ActionScheduler {
 public:
  explicit ActionScheduler(ActionOrdering ordering) : ordering_(ordering) {}

  /// A permutation `order` of [0, actions.size()): the action performed
  /// t-th is actions[order[t]].
  std::vector<size_t> Order(const std::vector<Action>& actions,
                            Rng& rng) const;

 private:
  ActionOrdering ordering_;
};

/// Phase-2 step 4: tracks the best intermediate clustering of the apply
/// sweep -- the shortest applied-action prefix with the lowest average
/// objective among all prefixes observed this iteration. The first
/// observation always becomes the best (even when worse than the
/// incumbent it was seeded with); whether the iteration *improved* is
/// Floc's separate judgement of best_average() against the incumbent.
class BestPrefixSelector {
 public:
  /// `incumbent_average` is only reported back by best_average() while
  /// nothing has been observed (a sweep that applied zero actions).
  explicit BestPrefixSelector(double incumbent_average)
      : best_average_(incumbent_average) {}

  /// Records the clustering average after `prefix_length` applied
  /// actions. Strict improvement keeps the earliest best prefix on ties.
  void Observe(double average, size_t prefix_length) {
    if (!has_best_ || average < best_average_) {
      best_average_ = average;
      best_prefix_ = prefix_length;
      has_best_ = true;
    }
  }

  /// Whether any prefix was observed this sweep.
  bool has_best() const { return has_best_; }
  /// Best average observed; the incumbent when has_best() is false.
  double best_average() const { return best_average_; }
  /// Applied-action count of the best prefix (0 until has_best()).
  size_t best_prefix() const { return best_prefix_; }

 private:
  double best_average_;
  size_t best_prefix_ = 0;
  bool has_best_ = false;
};

/// One performed membership toggle (the apply sweep's journal, replayed
/// by Floc when rewinding to the best prefix).
struct AppliedAction {
  ActionTarget target;
  size_t index;
  size_t cluster;
};

/// Phase-2 step 3: performs the ordered actions sequentially against the
/// live clustering. Depending on FlocConfig::fresh_gains_at_apply each
/// action is either re-decided from scratch (the paper's "decided and
/// performed" reading) or re-validated and applied verbatim; non-positive
/// gains pass through the negative-action/annealing policy. Mutates
/// views, scores, score_sum, and the constraint tracker in place and
/// feeds every intermediate average to the BestPrefixSelector.
class ActionApplier {
 public:
  /// `after_toggle` runs after every performed toggle with the mutated
  /// workspace (Floc's audit-mode hook); null disables.
  /// `memo` (optional, non-owning) is the gain memo shared with the
  /// determiner: the sweep's fresh re-decisions hit the entries the
  /// determination phase just wrote for every cluster not yet mutated
  /// this sweep. Audit follows FlocConfig::audit.
  ActionApplier(const FlocConfig& config, ToggleHook after_toggle = nullptr,
                void* hook_self = nullptr, GainMemo* memo = nullptr)
      : config_(&config),
        after_toggle_(after_toggle),
        hook_self_(hook_self),
        memo_(memo) {}

  /// Runs the sweep; returns the journal of performed toggles in order.
  /// `iteration` feeds the annealing temperature decay.
  std::vector<AppliedAction> Apply(const std::vector<Action>& actions,
                                   const std::vector<size_t>& order,
                                   size_t iteration,
                                   std::vector<ClusterWorkspace>& views,
                                   std::vector<double>& scores,
                                   double& score_sum,
                                   ConstraintTracker& tracker, Rng& rng,
                                   BestPrefixSelector& selector) const;

 private:
  const FlocConfig* config_;
  ToggleHook after_toggle_;
  void* hook_self_;
  GainMemo* memo_;
};

}  // namespace deltaclus

#endif  // DELTACLUS_CORE_FLOC_PHASES_H_
