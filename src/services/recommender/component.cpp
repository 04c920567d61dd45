#include "services/recommender/component.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

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

RecommenderSnapshot::RecommenderSnapshot(services::ShardEpoch shard)
    : ShardEpoch(std::move(shard)),
      user_means_(num_users(), 0.0),
      agg_means_(synopsis().size(), 0.0),
      raters_(num_items()),
      user_group_(row_groups()) {
  for (std::uint32_t u = 0; u < num_users(); ++u) {
    user_means_[u] = vector_mean(rows().row(u));
    for (const auto& [item, rating] : rows().row(u)) {
      (void)rating;
      raters_[item].push_back(u);
    }
  }
  for (std::size_t g = 0; g < agg_means_.size(); ++g) {
    agg_means_[g] = vector_mean(synopsis().points[g].features);
  }
}

double RecommenderSnapshot::user_weight(const CfRequest& request,
                                        std::uint32_t user) const {
  return pearson_weight(request.ratings, request.rating_mean,
                        rows().row(user), user_means_[user]);
}

CfComponentWork RecommenderSnapshot::analyze(const CfRequest& request) const {
  const std::size_t m = synopsis().size();
  CfComponentWork work;
  work.correlations.resize(m);
  work.real_by_group.resize(m);
  work.agg_by_group.resize(m);

  // Synopsis pass: one Pearson weight per aggregated user; aggregated users
  // that "rated" the target item also contribute an approximate prediction
  // term scaled by the number of member users behind that rating.
  for (std::size_t g = 0; g < m; ++g) {
    const auto& agg = synopsis().points[g];
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
      const double rating_vi = synopsis::value_at(rows().row(v),
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
  services::put_build_config(conf, config());
  w.chunk("CONF", conf);
  save_pieces(os, codec);
  w.finish();
}

std::unique_ptr<const RecommenderSnapshot> RecommenderSnapshot::next_epoch(
    const synopsis::UpdateBatch& batch, common::ThreadPool* pool,
    synopsis::UpdateReport& report) const {
  return std::make_unique<const RecommenderSnapshot>(
      apply(batch, pool, report));
}

// ---------------------------------------------------------------------------
// RecommenderComponent

RecommenderComponent::RecommenderComponent(synopsis::SparseRows users,
                                           const synopsis::BuildConfig& config,
                                           common::ThreadPool* pool)
    : EpochComponent(std::make_unique<const RecommenderSnapshot>(
                         services::ShardEpoch(std::move(users), config,
                                              synopsis::AggregationKind::kMean,
                                              pool)),
                     pool) {}

RecommenderComponent RecommenderComponent::load(std::istream& is) try {
  common::ArtifactReader r(is, "RCMP");
  if (r.version() != 1)
    throw common::ArtifactError(
        "RecommenderComponent::load: unsupported version");
  common::ChunkReader conf = r.chunk("CONF");
  const synopsis::BuildConfig config = services::get_build_config(conf);
  conf.expect_consumed();
  auto shard = services::ShardEpoch::load(is, config,
                                          synopsis::AggregationKind::kMean);
  r.finish();
  return RecommenderComponent(
      std::make_unique<const RecommenderSnapshot>(std::move(shard)), nullptr);
} catch (const common::ArtifactError&) {
  throw;
} catch (const std::exception& e) {
  // Every load failure — truncated stream, bad header, decoder
  // error mid-chunk — surfaces as the artifact layer's structured error.
  throw common::ArtifactError(std::string("RecommenderComponent::load: ") +
                              e.what());
}

}  // namespace at::reco
