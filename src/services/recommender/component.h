// One parallel service component of the CF recommender: it owns a subset of
// the user-item rating matrix plus the synopsis built from it, and performs
// the per-request analysis that every processing technique is evaluated on.
//
// Ownership model (ISSUE 8): same RCU epoch split as the search component —
// an immutable published RecommenderSnapshot behind an EpochSlot, a mutable
// RecommenderBuilder shadow copy on the writer side, and the
// RecommenderComponent facade that pins snapshots for readers and
// serializes publishes.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/epoch.h"
#include "services/recommender/cf.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/updater.h"

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
class RecommenderSnapshot {
 public:
  RecommenderSnapshot(synopsis::SparseRows users, synopsis::BuildConfig config,
                      synopsis::SynopsisStructure structure,
                      synopsis::Synopsis synopsis);

  std::size_t num_users() const { return users_.rows(); }
  std::size_t num_items() const { return users_.cols(); }
  std::size_t num_groups() const { return structure_.index.size(); }
  const synopsis::BuildConfig& config() const { return config_; }
  const synopsis::SynopsisStructure& structure() const { return structure_; }
  const synopsis::Synopsis& synopsis() const { return synopsis_; }
  const synopsis::SparseRows& users() const { return users_; }

  /// Member counts per group, in group order (the sim's cost model input).
  std::vector<std::uint32_t> group_sizes() const;

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
            common::Codec codec = common::default_codec()) const;

 private:
  void build_derived();  // means, postings, user->group map

  synopsis::SparseRows users_;
  synopsis::BuildConfig config_;
  synopsis::SynopsisStructure structure_;
  synopsis::Synopsis synopsis_;

  std::vector<double> user_means_;
  std::vector<double> agg_means_;                    // per aggregated user
  std::vector<std::vector<std::uint32_t>> raters_;   // item -> user ids
  std::vector<std::uint32_t> user_group_;            // user -> group index
};

/// Writer-side shadow copy; not thread-safe by itself — the facade
/// serializes access under its writer mutex.
class RecommenderBuilder {
 public:
  RecommenderBuilder(synopsis::SparseRows users,
                     const synopsis::BuildConfig& config,
                     common::ThreadPool* pool);

  /// From loaded artifact pieces (no synopsis rebuild).
  RecommenderBuilder(synopsis::SparseRows users, synopsis::BuildConfig config,
                     synopsis::SynopsisStructure structure,
                     synopsis::Synopsis synopsis);

  const synopsis::BuildConfig& config() const { return config_; }

  /// Applies an input-data change batch to the shadow copy.
  synopsis::UpdateReport apply(const synopsis::UpdateBatch& batch,
                               common::ThreadPool* pool);

  /// Copies the shadow state into a fresh immutable snapshot.
  std::unique_ptr<const RecommenderSnapshot> build() const;

 private:
  synopsis::SparseRows users_;
  synopsis::BuildConfig config_;
  synopsis::SynopsisStructure structure_;
  synopsis::Synopsis synopsis_;
};

class RecommenderComponent {
 public:
  /// Publish observer — see SearchComponent::DeltaSink.
  using DeltaSink = std::function<void(
      const synopsis::UpdateBatch& batch, std::uint64_t from_version,
      std::uint64_t to_version)>;

  /// Builds the synopsis (steps 1–3) over the given user subset. `pool`
  /// parallelizes construction and later updates; the component keeps the
  /// pointer (caller owns the pool's lifetime).
  RecommenderComponent(synopsis::SparseRows users,
                       const synopsis::BuildConfig& config,
                       common::ThreadPool* pool = nullptr);
  ~RecommenderComponent();

  RecommenderComponent(RecommenderComponent&&) noexcept;
  RecommenderComponent& operator=(RecommenderComponent&&) noexcept;

  /// Installs (or clears) the pool used by update().
  void set_pool(common::ThreadPool* pool);

  /// Pins the currently published epoch — one pin per request when
  /// multiple calls must be mutually consistent.
  std::shared_ptr<const RecommenderSnapshot> snapshot() const;

  /// Atomic (snapshot, version) pin — see SearchComponent.
  std::pair<std::shared_ptr<const RecommenderSnapshot>, std::uint64_t>
  snapshot_versioned() const;

  std::uint64_t epoch_version() const;
  common::EpochStats epoch_stats() const;

  /// Standby alignment: rebases the epoch version counter (no publish) —
  /// see SearchComponent::rebase_epoch_version.
  void rebase_epoch_version(std::uint64_t v);

  /// Installs (or clears, with nullptr) the publish observer.
  void set_delta_sink(DeltaSink sink);

  // Convenience delegates to the current snapshot. References stay valid
  // until the next publish on this component; pin snapshot() when updates
  // may run concurrently.
  std::size_t num_users() const { return snapshot()->num_users(); }
  std::size_t num_items() const { return snapshot()->num_items(); }
  std::size_t num_groups() const { return snapshot()->num_groups(); }
  const synopsis::SynopsisStructure& structure() const;
  const synopsis::Synopsis& synopsis() const;
  const synopsis::SparseRows& users() const;
  std::vector<std::uint32_t> group_sizes() const {
    return snapshot()->group_sizes();
  }
  CfComponentWork analyze(const CfRequest& request) const {
    return snapshot()->analyze(request);
  }
  double user_weight(const CfRequest& request, std::uint32_t user) const {
    return snapshot()->user_weight(request, user);
  }
  double user_mean(std::uint32_t user) const {
    return snapshot()->user_mean(user);
  }

  /// Applies an input-data change batch to the shadow copy, then publishes
  /// the result as a new epoch (readers never wait on this call).
  synopsis::UpdateReport update(const synopsis::UpdateBatch& batch);

  /// Replaces this component's state with `fresh`'s via a new epoch (the
  /// reload path); keeps this component's pool and delta sink.
  void adopt(RecommenderComponent&& fresh);

  void save(std::ostream& os,
            common::Codec codec = common::default_codec()) const {
    snapshot()->save(os, codec);
  }
  static RecommenderComponent load(std::istream& is);

 private:
  struct Core;  // non-movable anchor (mutex + epoch slot + shadow copy)

  explicit RecommenderComponent(RecommenderBuilder builder,
                                common::ThreadPool* pool);

  std::unique_ptr<Core> core_;
};

}  // namespace at::reco
