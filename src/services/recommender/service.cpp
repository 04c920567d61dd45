#include "services/recommender/service.h"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/algorithm1.h"

namespace at::reco {

CfService::CfService(std::vector<RecommenderComponent> components,
                     double min_rating, double max_rating)
    : components_(std::move(components)),
      min_rating_(min_rating),
      max_rating_(max_rating) {
  if (components_.empty())
    throw std::invalid_argument("CfService: no components");
  if (!(max_rating_ > min_rating_))
    throw std::invalid_argument("CfService: bad rating range");
}

std::uint64_t CfService::data_version() const {
  std::uint64_t v = 0;
  for (const auto& c : components_) v += c.epoch_version();
  return v;
}

common::EpochStats CfService::epoch_stats() const {
  common::EpochStats total;
  for (const auto& c : components_) {
    const common::EpochStats s = c.epoch_stats();
    total.version += s.version;
    total.published += s.published;
    total.retired += s.retired;
    total.live += s.live;
  }
  return total;
}

void CfService::set_executor(common::ShardedExecutor* exec) {
  exec_ = exec;
  for (std::size_t c = 0; c < components_.size(); ++c)
    components_[c].set_pool(
        exec_ != nullptr ? &exec_->group(exec_->home_group(c)) : nullptr);
}

synopsis::UpdateReport CfService::update_component(
    std::size_t c, const synopsis::UpdateBatch& batch) {
  synopsis::UpdateReport report;
  if (exec_ != nullptr) {
    // Mutate the subset on its home group so new rows and re-aggregated
    // groups are first-touched node-locally (the component's own pool is
    // already the home group's).
    exec_->submit(exec_->home_group(c),
                  [&] { report = components_.at(c).update(batch); })
        .get();
  } else {
    report = components_.at(c).update(batch);
  }
  return report;
}

double CfService::predict_exact(const CfRequest& request) const {
  CfPartial merged;
  for (const auto& c : components_) merged.merge(c.analyze(request).exact());
  return ::at::reco::predict(request, merged, min_rating_, max_rating_);
}

double CfService::predict(const CfRequest& request, core::Technique technique,
                          const std::vector<ComponentOutcome>& outcomes) const {
  using core::Technique;
  if (technique == Technique::kBasic ||
      technique == Technique::kRequestReissue) {
    return predict_exact(request);
  }
  if (outcomes.size() != components_.size())
    throw std::invalid_argument("CfService::predict: outcome size mismatch");

  CfPartial merged;
  bool any = false;
  for (std::size_t c = 0; c < components_.size(); ++c) {
    if (technique == Technique::kPartialExecution) {
      if (!outcomes[c].included) continue;
      merged.merge(components_[c].analyze(request).exact());
    } else {  // AccuracyTrader
      const CfComponentWork work = components_[c].analyze(request);
      const auto ranked = core::rank_by_correlation(work.correlations);
      merged.merge(work.after_sets(ranked, outcomes[c].sets));
    }
    any = true;
  }
  if (!any) return std::numeric_limits<double>::quiet_NaN();
  return ::at::reco::predict(request, merged, min_rating_, max_rating_);
}

CfEvalResult CfService::evaluate(
    const std::vector<CfRequest>& requests, const std::vector<double>& actuals,
    core::Technique technique,
    const std::function<std::vector<ComponentOutcome>(std::size_t)>&
        outcome_for) const {
  if (requests.size() != actuals.size())
    throw std::invalid_argument("CfService::evaluate: size mismatch");

  std::vector<double> approx(requests.size());
  std::vector<double> exact(requests.size());
  for (std::size_t r = 0; r < requests.size(); ++r) {
    exact[r] = predict_exact(requests[r]);
    if (technique == core::Technique::kBasic ||
        technique == core::Technique::kRequestReissue) {
      approx[r] = exact[r];
    } else {
      approx[r] = predict(requests[r], technique, outcome_for(r));
    }
  }
  const double range = rating_range();
  CfEvalResult result;
  result.requests = requests.size();
  result.rmse = rmse(approx, actuals, range);
  result.accuracy = accuracy_from_rmse(result.rmse, range);
  const double exact_acc =
      accuracy_from_rmse(rmse(exact, actuals, range), range);
  result.loss_pct = accuracy_loss_pct(exact_acc, result.accuracy);
  return result;
}

CfEvalResult CfService::evaluate_uniform(const std::vector<CfRequest>& requests,
                                         const std::vector<double>& actuals,
                                         core::Technique technique,
                                         ComponentOutcome outcome) const {
  const std::vector<ComponentOutcome> uniform(components_.size(), outcome);
  return evaluate(requests, actuals, technique,
                  [&uniform](std::size_t) { return uniform; });
}

}  // namespace at::reco
