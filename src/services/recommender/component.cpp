#include "services/recommender/component.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "synopsis/serialize.h"

namespace at::reco {

CfPartial CfComponentWork::exact() const {
  CfPartial out;
  for (const auto& p : real_by_group) out.merge(p);
  return out;
}

CfPartial CfComponentWork::stage1() const {
  CfPartial out;
  for (const auto& p : agg_by_group) out.merge(p);
  return out;
}

CfPartial CfComponentWork::after_sets(const std::vector<std::size_t>& ranked,
                                      std::size_t sets) const {
  CfPartial out = stage1();
  const std::size_t n = std::min(sets, ranked.size());
  for (std::size_t k = 0; k < n; ++k) {
    out.subtract(agg_by_group[ranked[k]]);
    out.merge(real_by_group[ranked[k]]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// RecommenderSnapshot

RecommenderSnapshot::RecommenderSnapshot(synopsis::SparseRows users,
                                         synopsis::BuildConfig config,
                                         synopsis::SynopsisStructure structure,
                                         synopsis::Synopsis synopsis)
    : users_(std::move(users)),
      config_(config),
      structure_(std::move(structure)),
      synopsis_(std::move(synopsis)) {
  build_derived();
}

void RecommenderSnapshot::build_derived() {
  const std::size_t n = users_.rows();
  user_means_.assign(n, 0.0);
  raters_.assign(users_.cols(), {});
  for (std::uint32_t u = 0; u < n; ++u) {
    user_means_[u] = vector_mean(users_.row(u));
    for (const auto& [item, rating] : users_.row(u)) {
      (void)rating;
      raters_[item].push_back(u);
    }
  }
  user_group_.assign(n, 0);
  const auto& groups = structure_.index.groups();
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (auto member : groups[g].members) user_group_[member] = g;
  }
  agg_means_.assign(synopsis_.size(), 0.0);
  for (std::size_t g = 0; g < synopsis_.size(); ++g) {
    agg_means_[g] = vector_mean(synopsis_.points[g].features);
  }
}

std::vector<std::uint32_t> RecommenderSnapshot::group_sizes() const {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(structure_.index.size());
  for (const auto& g : structure_.index.groups())
    sizes.push_back(static_cast<std::uint32_t>(g.members.size()));
  return sizes;
}

double RecommenderSnapshot::user_weight(const CfRequest& request,
                                        std::uint32_t user) const {
  return pearson_weight(request.ratings, request.rating_mean,
                        users_.row(user), user_means_[user]);
}

CfComponentWork RecommenderSnapshot::analyze(const CfRequest& request) const {
  const std::size_t m = synopsis_.size();
  CfComponentWork work;
  work.correlations.resize(m);
  work.real_by_group.resize(m);
  work.agg_by_group.resize(m);

  // Synopsis pass: one Pearson weight per aggregated user; aggregated users
  // that "rated" the target item also contribute an approximate prediction
  // term scaled by the number of member users behind that rating.
  for (std::size_t g = 0; g < m; ++g) {
    const auto& agg = synopsis_.points[g];
    const double w = pearson_weight(request.ratings, request.rating_mean,
                                    agg.features, agg_means_[g]);
    work.correlations[g] = std::abs(w);

    // Find the aggregated rating of the target item and how many members
    // back it (the `support` array is aligned with `features`).
    const auto& f = agg.features;
    auto it = std::lower_bound(f.begin(), f.end(), request.target_item,
                               [](const auto& e, std::uint32_t c) {
                                 return e.first < c;
                               });
    if (it != f.end() && it->first == request.target_item && w != 0.0) {
      const auto idx = static_cast<std::size_t>(it - f.begin());
      const double backing = agg.support.empty()
                                 ? agg.member_count
                                 : static_cast<double>(agg.support[idx]);
      CfPartial& p = work.agg_by_group[g];
      p.weighted_dev = backing * w * (it->second - agg_means_[g]);
      p.weight_abs = backing * std::abs(w);
      p.neighbors = static_cast<std::uint32_t>(backing);
    }
  }

  // Exact pass, decomposed by group: only the subset users who rated the
  // target item participate in the prediction.
  if (request.target_item < raters_.size()) {
    for (auto v : raters_[request.target_item]) {
      const double w = user_weight(request, v);
      if (w == 0.0) continue;
      const double rating_vi = synopsis::value_at(users_.row(v),
                                                  request.target_item);
      CfPartial& p = work.real_by_group[user_group_[v]];
      p.weighted_dev += w * (rating_vi - user_means_[v]);
      p.weight_abs += std::abs(w);
      p.neighbors += 1;
    }
  }
  return work;
}

void RecommenderSnapshot::save(std::ostream& os, common::Codec codec) const {
  common::ArtifactWriter w(os, "RCMP", 1);
  common::ChunkWriter conf;
  conf.u64(config_.svd.rank);
  conf.u64(config_.svd.epochs_per_dim);
  conf.f64(config_.svd.learning_rate);
  conf.f64(config_.svd.regularization);
  conf.f64(config_.size_ratio);
  conf.u64(config_.min_groups);
  w.chunk("CONF", conf);
  synopsis::save(os, users_);
  synopsis::save(os, structure_, codec);
  synopsis::save(os, synopsis_);
  w.finish();
}

// ---------------------------------------------------------------------------
// RecommenderBuilder

RecommenderBuilder::RecommenderBuilder(synopsis::SparseRows users,
                                       const synopsis::BuildConfig& config,
                                       common::ThreadPool* pool)
    : users_(std::move(users)),
      config_(config),
      structure_(synopsis::SynopsisBuilder(config).build(users_, pool)),
      synopsis_(synopsis::aggregate_all(users_, structure_.index,
                                        synopsis::AggregationKind::kMean,
                                        pool)) {}

RecommenderBuilder::RecommenderBuilder(synopsis::SparseRows users,
                                       synopsis::BuildConfig config,
                                       synopsis::SynopsisStructure structure,
                                       synopsis::Synopsis synopsis)
    : users_(std::move(users)),
      config_(config),
      structure_(std::move(structure)),
      synopsis_(std::move(synopsis)) {}

synopsis::UpdateReport RecommenderBuilder::apply(
    const synopsis::UpdateBatch& batch, common::ThreadPool* pool) {
  synopsis::SynopsisUpdater updater(config_);
  return updater.apply(structure_, users_, synopsis_, batch,
                       synopsis::AggregationKind::kMean, pool);
}

std::unique_ptr<const RecommenderSnapshot> RecommenderBuilder::build() const {
  return std::make_unique<const RecommenderSnapshot>(
      users_, config_, structure_.clone(), synopsis_);
}

// ---------------------------------------------------------------------------
// RecommenderComponent

/// Non-movable anchor behind the movable facade — see SearchComponent::Core.
struct RecommenderComponent::Core {
  common::Mutex writer_mutex;
  RecommenderBuilder builder AT_GUARDED_BY(writer_mutex);
  common::ThreadPool* pool AT_GUARDED_BY(writer_mutex) = nullptr;
  DeltaSink delta_sink AT_GUARDED_BY(writer_mutex);
  common::EpochSlot<RecommenderSnapshot> epoch;

  explicit Core(RecommenderBuilder b) : builder(std::move(b)) {}
};

RecommenderComponent::RecommenderComponent(RecommenderBuilder builder,
                                           common::ThreadPool* pool)
    : core_(std::make_unique<Core>(std::move(builder))) {
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
  core_->epoch.publish(core_->builder.build());
}

RecommenderComponent::RecommenderComponent(synopsis::SparseRows users,
                                           const synopsis::BuildConfig& config,
                                           common::ThreadPool* pool)
    : RecommenderComponent(
          RecommenderBuilder(std::move(users), config, pool), pool) {}

RecommenderComponent::~RecommenderComponent() = default;
RecommenderComponent::RecommenderComponent(RecommenderComponent&&) noexcept =
    default;
RecommenderComponent& RecommenderComponent::operator=(
    RecommenderComponent&&) noexcept = default;

void RecommenderComponent::set_pool(common::ThreadPool* pool) {
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
}

std::shared_ptr<const RecommenderSnapshot> RecommenderComponent::snapshot()
    const {
  return core_->epoch.acquire();
}

std::pair<std::shared_ptr<const RecommenderSnapshot>, std::uint64_t>
RecommenderComponent::snapshot_versioned() const {
  return core_->epoch.acquire_versioned();
}

std::uint64_t RecommenderComponent::epoch_version() const {
  return core_->epoch.version();
}

void RecommenderComponent::rebase_epoch_version(std::uint64_t v) {
  // Serialized with writers so the rebase cannot interleave a publish.
  common::MutexLock lock(core_->writer_mutex);
  core_->epoch.rebase_version(v);
}

common::EpochStats RecommenderComponent::epoch_stats() const {
  return core_->epoch.stats();
}

void RecommenderComponent::set_delta_sink(DeltaSink sink) {
  common::MutexLock lock(core_->writer_mutex);
  core_->delta_sink = std::move(sink);
}

const synopsis::SynopsisStructure& RecommenderComponent::structure() const {
  return snapshot()->structure();
}

const synopsis::Synopsis& RecommenderComponent::synopsis() const {
  return snapshot()->synopsis();
}

const synopsis::SparseRows& RecommenderComponent::users() const {
  return snapshot()->users();
}

synopsis::UpdateReport RecommenderComponent::update(
    const synopsis::UpdateBatch& batch) {
  common::MutexLock lock(core_->writer_mutex);
  const std::uint64_t from = core_->epoch.version();
  synopsis::UpdateReport report = core_->builder.apply(batch, core_->pool);
  core_->epoch.publish(core_->builder.build());
  if (core_->delta_sink) {
    core_->delta_sink(batch, from, core_->epoch.version());
  }
  return report;
}

void RecommenderComponent::adopt(RecommenderComponent&& fresh) {
  std::unique_ptr<Core> incoming = std::move(fresh.core_);
  RecommenderBuilder* adopted = nullptr;
  {
    common::MutexLock lock(incoming->writer_mutex);
    adopted = &incoming->builder;
  }
  common::MutexLock lock(core_->writer_mutex);
  core_->builder = std::move(*adopted);
  core_->epoch.publish(core_->builder.build());
}

RecommenderComponent RecommenderComponent::load(std::istream& is) try {
  common::ArtifactReader r(is, "RCMP");
  if (r.version() != 1)
    throw common::ArtifactError(
        "RecommenderComponent::load: unsupported version");
  common::ChunkReader conf = r.chunk("CONF");
  synopsis::BuildConfig config;
  config.svd.rank = conf.u64();
  config.svd.epochs_per_dim = conf.u64();
  config.svd.learning_rate = conf.f64();
  config.svd.regularization = conf.f64();
  config.size_ratio = conf.f64();
  config.min_groups = conf.u64();
  conf.expect_consumed();
  auto users = synopsis::load_sparse_rows(is);
  auto structure = synopsis::load_structure(is);
  auto synopsis = synopsis::load_synopsis(is);
  r.finish();
  return RecommenderComponent(
      RecommenderBuilder(std::move(users), config, std::move(structure),
                         std::move(synopsis)),
      nullptr);
} catch (const common::ArtifactError&) {
  throw;
} catch (const std::exception& e) {
  // Every load failure — truncated stream, bad header, decoder
  // error mid-chunk — surfaces as the artifact layer's structured error.
  throw common::ArtifactError(std::string("RecommenderComponent::load: ") +
                              e.what());
}

}  // namespace at::reco
