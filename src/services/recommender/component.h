// One parallel service component of the CF recommender: it owns a subset of
// the user-item rating matrix plus the synopsis built from it, and performs
// the per-request analysis that every processing technique is evaluated on.
//
// Ownership model: same RCU epochs as the search component — an immutable
// published RecommenderSnapshot, and the RecommenderComponent facade that
// pins snapshots for readers and derives each epoch from the last by copy
// on write (services/epoch_component.h).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "services/epoch_component.h"
#include "services/recommender/cf.h"

namespace at::reco {

/// Everything a component can contribute to one request, decomposed by
/// synopsis group so that any technique's result can be assembled:
///  * Basic/Reissue (exact):  Σ_g real_by_group[g]
///  * AccuracyTrader with k sets processed: Σ real over the top-k ranked
///    groups + Σ aggregated terms over the remaining groups
///  * stage-1 only: Σ_g agg_by_group[g]
struct CfComponentWork {
  std::vector<double> correlations;    // |Pearson| per aggregated user
  std::vector<CfPartial> real_by_group;
  std::vector<CfPartial> agg_by_group;

  CfPartial exact() const;
  CfPartial stage1() const;
  /// Partial after processing the top `sets` groups of `ranked` (the rest
  /// contribute their aggregated approximations).
  CfPartial after_sets(const std::vector<std::size_t>& ranked,
                       std::size_t sets) const;
};

/// Immutable published state of one recommender component. All methods are
/// const and safe for any number of concurrent readers; results from one
/// snapshot are only meaningful against that same snapshot.
class RecommenderSnapshot : public services::ShardEpoch {
 public:
  /// Builds the derived arrays over `shard`'s users.
  explicit RecommenderSnapshot(services::ShardEpoch shard);

  std::size_t num_users() const { return rows().rows(); }
  std::size_t num_items() const { return rows().cols(); }
  const synopsis::SparseRows& users() const { return rows(); }

  /// Per-request decomposition (see CfComponentWork). Cost notes: the
  /// correlations and aggregated terms scan the synopsis (m aggregated
  /// users); the real terms scan only the subset users who rated the
  /// target item, via the item->raters postings.
  CfComponentWork analyze(const CfRequest& request) const;

  /// Pearson weight between the request and one original user (exposed for
  /// the Fig. 4 "highly related users" evaluation).
  double user_weight(const CfRequest& request, std::uint32_t user) const;
  double user_mean(std::uint32_t user) const { return user_means_.at(user); }

  /// Persists the component (subset + synopsis structure + aggregated
  /// synopsis) as an artifact-store snapshot (kind "RCMP").
  void save(std::ostream& os,
            common::Codec codec = common::Codec::kShuffle) const;

 private:
  template <typename>
  friend class services::EpochComponent;

  std::unique_ptr<const RecommenderSnapshot> next_epoch(
      const synopsis::UpdateBatch& batch, common::ThreadPool* pool,
      synopsis::UpdateReport& report) const;

  std::vector<double> user_means_;
  std::vector<double> agg_means_;                    // per aggregated user
  std::vector<std::vector<std::uint32_t>> raters_;   // item -> user ids
  std::vector<std::uint32_t> user_group_;            // user -> group index
};

class RecommenderComponent
    : public services::EpochComponent<RecommenderSnapshot> {
 public:
  /// Builds the synopsis (steps 1–3) over the given user subset. `pool`
  /// parallelizes construction and later updates; the component keeps the
  /// pointer (caller owns the pool's lifetime).
  RecommenderComponent(synopsis::SparseRows users,
                       const synopsis::BuildConfig& config,
                       common::ThreadPool* pool = nullptr);

  // Convenience delegates to the current snapshot (see EpochComponent).
  std::size_t num_users() const { return snapshot()->num_users(); }
  std::size_t num_items() const { return snapshot()->num_items(); }
  const synopsis::SparseRows& users() const { return snapshot()->users(); }
  CfComponentWork analyze(const CfRequest& request) const {
    return snapshot()->analyze(request);
  }
  double user_weight(const CfRequest& request, std::uint32_t user) const {
    return snapshot()->user_weight(request, user);
  }
  double user_mean(std::uint32_t user) const {
    return snapshot()->user_mean(user);
  }

  static RecommenderComponent load(std::istream& is);

 private:
  using EpochComponent::EpochComponent;
};

}  // namespace at::reco
