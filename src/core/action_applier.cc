#include <cmath>

#include "src/core/floc_phases.h"

namespace deltaclus {

double CommitToggle(const Action& action, std::vector<ClusterWorkspace>& views,
                    ConstraintTracker& tracker, ResidueEngine& engine,
                    double target_residue, ToggleHook hook, void* hook_self) {
  ClusterWorkspace& view = views[action.cluster];
  if (action.target == ActionTarget::kRow) {
    view.ToggleRow(action.index);
    tracker.OnRowToggled(views, action.cluster, action.index);
  } else {
    view.ToggleCol(action.index);
    tracker.OnColToggled(views, action.cluster, action.index);
  }
  if (hook != nullptr) hook(hook_self, view);
  return ObjectiveScore(engine.Residue(view), view.stats().Volume(),
                        target_residue);
}

std::vector<AppliedAction> ActionApplier::Apply(
    const std::vector<Action>& actions, const std::vector<size_t>& order,
    size_t iteration, std::vector<ClusterWorkspace>& views,
    std::vector<double>& scores, double& score_sum, ConstraintTracker& tracker,
    Rng& rng, BestPrefixSelector& selector) const {
  const FlocConfig& config = *config_;
  size_t k = views.size();
  // Greedy mode drops every non-positive action below, so re-decisions
  // whose gain bounds are all <= 0 settle without a scan.
  bool drop_nonpositive = !config.perform_negative_actions &&
                          config.annealing_temperature <= 0;
  GainEvaluator eval({&views, &scores, &tracker, config.target_residue,
                      nullptr, memo_, config.audit, drop_nonpositive},
                     config.norm);

  std::vector<AppliedAction> applied;
  applied.reserve(actions.size());

  // Whether a non-positive-gain action should still be performed: always
  // in the paper's mode; with probability exp(gain / T) under annealing;
  // never in pure greedy mode.
  auto accept_negative = [&](double gain) {
    if (config.perform_negative_actions) return true;
    if (config.annealing_temperature <= 0) return false;
    double temperature = config.annealing_temperature *
                         std::pow(0.8, static_cast<double>(iteration));
    if (temperature <= 0) return false;
    return rng.Bernoulli(std::exp(gain / temperature));
  };

  for (size_t t : order) {
    Action action = actions[t];
    bool is_row = action.target == ActionTarget::kRow;
    if (config.fresh_gains_at_apply) {
      // Re-decide this row/column's best action against the current
      // state: earlier actions in the sweep have already moved it.
      action = BestActionFor(is_row, action.index, eval);
      if (action.blocked()) continue;
      if (action.gain <= 0 && !accept_negative(action.gain)) continue;
    } else {
      if (action.blocked()) continue;
      if (action.gain <= 0 && !accept_negative(action.gain)) continue;
      // Re-check constraints against the *current* state: earlier
      // actions in this iteration may have changed what is admissible.
      bool allowed =
          is_row ? tracker.RowToggleAllowed(views, action.cluster, action.index)
                 : tracker.ColToggleAllowed(views, action.cluster,
                                            action.index);
      if (!allowed) continue;
    }

    double new_score = CommitToggle(action, views, tracker, eval.engine(),
                                    config.target_residue, after_toggle_,
                                    hook_self_);
    applied.push_back({action.target, action.index, action.cluster});
    score_sum += new_score - scores[action.cluster];
    scores[action.cluster] = new_score;

    selector.Observe(score_sum / k, applied.size());
  }
  return applied;
}

}  // namespace deltaclus
