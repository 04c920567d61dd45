// The fan-out CF recommender service: a request is dispatched to every
// component (each holding one subset of the rating matrix) and the partial
// results are merged into the final prediction.
//
// The service is evaluated *post hoc*: the cluster simulator decides, per
// request and component, whether the component's result was included
// (partial execution) or how many ranked sets it processed
// (AccuracyTrader); this class assembles the corresponding prediction and
// scores its accuracy.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/sharded_executor.h"
#include "core/outcome.h"
#include "core/technique.h"
#include "services/recommender/component.h"

namespace at::reco {

/// What the simulator observed for one component while serving one request.
using ComponentOutcome = core::ComponentOutcome;

struct CfEvalResult {
  double rmse = 0.0;
  double accuracy = 0.0;      // 1 - rmse/range, clamped
  double loss_pct = 0.0;      // vs. the exact accuracy
  std::size_t requests = 0;
};

class CfService {
 public:
  CfService(std::vector<RecommenderComponent> components, double min_rating,
            double max_rating);

  std::size_t num_components() const { return components_.size(); }
  const RecommenderComponent& component(std::size_t i) const {
    return components_.at(i);
  }
  RecommenderComponent& component(std::size_t i) { return components_.at(i); }
  double min_rating() const { return min_rating_; }
  double max_rating() const { return max_rating_; }
  double rating_range() const { return max_rating_ - min_rating_; }

  /// Sum of every component's epoch version (changes on any publish).
  std::uint64_t data_version() const;
  /// Aggregated epoch counters across all components.
  common::EpochStats epoch_stats() const;

  /// Installs a topology-aware executor: each component is homed on one
  /// executor group (round-robin), its synopsis updates run on that
  /// group's pinned pool, and request fan-out dispatches every component
  /// to its home group. Partial results merge in component order, so
  /// predictions are bit-identical to the sequential path. Caller owns the
  /// executor's lifetime; pass nullptr to run every component
  /// sequentially on the calling thread.
  void set_executor(common::ShardedExecutor* exec);
  common::ShardedExecutor* executor() const { return exec_; }

  /// Routes an input-data change batch to component `c`, on its home group
  /// when an executor is installed.
  synopsis::UpdateReport update_component(std::size_t c,
                                          const synopsis::UpdateBatch& batch);

  /// Exact prediction: every component contributes its full subset.
  double predict_exact(const CfRequest& request) const;

  /// Prediction under a technique, given the per-component outcomes
  /// (ignored for exact techniques). Returns NaN when the technique
  /// produced no result at all (partial execution with every component
  /// skipped) — callers charge the worst-case error.
  double predict(const CfRequest& request, core::Technique technique,
                 const std::vector<ComponentOutcome>& outcomes) const;

  /// Scores a request batch under a technique. `outcome_for(r)` supplies
  /// the per-component outcomes of request r.
  CfEvalResult evaluate(
      const std::vector<CfRequest>& requests,
      const std::vector<double>& actuals, core::Technique technique,
      const std::function<std::vector<ComponentOutcome>(std::size_t)>&
          outcome_for) const;

  /// Convenience: same outcome on every component for every request.
  CfEvalResult evaluate_uniform(const std::vector<CfRequest>& requests,
                                const std::vector<double>& actuals,
                                core::Technique technique,
                                ComponentOutcome outcome) const;

 private:
  /// Runs fn(c) for every component: on its home group when an executor
  /// is installed, else sequentially in component order.
  void for_each_component(
      const std::function<void(std::size_t)>& fn) const;

  std::vector<RecommenderComponent> components_;
  double min_rating_;
  double max_rating_;
  common::ShardedExecutor* exec_ = nullptr;
};

}  // namespace at::reco
