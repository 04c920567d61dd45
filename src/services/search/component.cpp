#include "services/search/component.h"

#include <string>

#include "core/algorithm1.h"

namespace at::search {

// ---------------------------------------------------------------------------
// SearchSnapshot

SearchSnapshot::SearchSnapshot(
    services::ShardEpoch shard, std::uint64_t doc_id_base, ScorerParams scorer,
    std::shared_ptr<const std::vector<double>> global_idf)
    : ShardEpoch(std::move(shard)),
      doc_id_base_(doc_id_base),
      scorer_(scorer),
      index_(rows(), scorer),
      doc_group_(row_groups()),
      agg_length_(synopsis().size(), 0.0),
      global_idf_(std::move(global_idf)) {
  if (global_idf_ != nullptr) index_.set_global_idf(global_idf_);
  for (std::size_t g = 0; g < agg_length_.size(); ++g) {
    for (const auto& [term, count] : synopsis().points[g].features)
      agg_length_[g] += count;
  }
}

std::vector<std::uint32_t> SearchSnapshot::doc_frequencies() const {
  std::vector<std::uint32_t> dfs(rows().cols(), 0);
  for (std::uint32_t t = 0; t < rows().cols(); ++t)
    dfs[t] = index_.doc_frequency(t);
  return dfs;
}

SearchComponentWork SearchSnapshot::analyze(
    const SearchRequest& request) const {
  SearchComponentWork work;
  const std::size_t m = synopsis().size();
  work.correlations.resize(m, 0.0);
  work.scored_by_group.resize(m);

  // Synopsis pass: score each merged page against the query; a higher
  // similarity means the group's member pages are, on average, more likely
  // to contain the actual top pages.
  for (std::size_t g = 0; g < m; ++g) {
    work.correlations[g] = index_.score_counts(
        request.terms, synopsis().points[g].features, agg_length_[g]);
  }

  // Exact pass, decomposed by group.
  std::vector<ScoredDoc> scored;
  index_.score_query(request.terms, doc_id_base_, scored);
  for (const auto& d : scored) {
    const auto local = static_cast<std::uint32_t>(d.doc - doc_id_base_);
    work.scored_by_group[doc_group_[local]].push_back(d);
  }
  return work;
}

std::vector<ScoredDoc> SearchSnapshot::exact_topk(const SearchRequest& request,
                                                  std::size_t k) const {
  return index_.topk(request.terms, doc_id_base_, k);
}

std::vector<ScoredDoc> SearchSnapshot::synopsis_topk(
    const SearchRequest& request, std::size_t k) const {
  const std::size_t m = synopsis().size();
  std::vector<double> corr(m, 0.0);
  for (std::size_t g = 0; g < m; ++g) {
    corr[g] = index_.score_counts(request.terms, synopsis().points[g].features,
                                  agg_length_[g]);
  }
  std::vector<ScoredDoc> out;
  for (const std::size_t g : core::rank_by_correlation(corr)) {
    if (corr[g] <= 0.0 || out.size() >= k) break;  // no query overlap left
    for (auto member : structure().index.groups()[g].members) {
      if (out.size() >= k) break;
      out.push_back(ScoredDoc{corr[g], doc_id_base_ + member});
    }
  }
  return out;
}

std::vector<std::uint64_t> SearchSnapshot::group_member_docs(
    std::size_t g) const {
  const auto& members = structure().index.groups().at(g).members;
  std::vector<std::uint64_t> out;
  out.reserve(members.size());
  for (auto m : members) out.push_back(doc_id_base_ + m);
  return out;
}

void SearchSnapshot::save(std::ostream& os, common::Codec codec) const {
  common::ArtifactWriter w(os, "SCMP", 1);
  common::ChunkWriter conf;
  conf.u64(doc_id_base_);
  services::put_build_config(conf, config());
  conf.u8(scorer_.scorer == Scorer::kBm25 ? 1 : 0);
  conf.f64(scorer_.bm25_k1);
  conf.f64(scorer_.bm25_b);
  w.chunk("CONF", conf);
  save_pieces(os, codec);
  w.finish();
}

std::unique_ptr<const SearchSnapshot> SearchSnapshot::with_global_idf(
    std::shared_ptr<const std::vector<double>> idf) const {
  std::unique_ptr<SearchSnapshot> copy(new SearchSnapshot(*this));
  copy->global_idf_ = std::move(idf);
  copy->index_.set_global_idf(copy->global_idf_);
  return copy;
}

std::unique_ptr<const SearchSnapshot> SearchSnapshot::next_epoch(
    const synopsis::UpdateBatch& batch, common::ThreadPool* pool,
    synopsis::UpdateReport& report) const {
  return std::make_unique<const SearchSnapshot>(
      apply(batch, pool, report), doc_id_base_, scorer_, global_idf_);
}

// ---------------------------------------------------------------------------
// SearchComponent

SearchComponent::SearchComponent(synopsis::SparseRows docs,
                                 std::uint64_t doc_id_base,
                                 const synopsis::BuildConfig& config,
                                 ScorerParams scorer, common::ThreadPool* pool)
    : EpochComponent(
          std::make_unique<const SearchSnapshot>(
              services::ShardEpoch(std::move(docs), config,
                                   synopsis::AggregationKind::kMerge, pool),
              doc_id_base, scorer, nullptr),
          pool) {}

void SearchComponent::set_global_idf(
    std::shared_ptr<const std::vector<double>> idf) {
  republish([&idf](const SearchSnapshot& cur) {
    return cur.with_global_idf(std::move(idf));
  });
}

void SearchComponent::adopt(SearchComponent&& fresh) {
  const std::shared_ptr<const SearchSnapshot> loaded =
      SearchComponent(std::move(fresh)).snapshot();
  republish([&loaded](const SearchSnapshot& cur) {
    return loaded->with_global_idf(cur.global_idf());
  });
}

SearchComponent SearchComponent::load(std::istream& is) try {
  common::ArtifactReader r(is, "SCMP");
  if (r.version() != 1)
    throw common::ArtifactError("SearchComponent::load: unsupported version");
  common::ChunkReader conf = r.chunk("CONF");
  const auto doc_id_base = conf.u64();
  const synopsis::BuildConfig config = services::get_build_config(conf);
  ScorerParams scorer;
  scorer.scorer = conf.u8() != 0 ? Scorer::kBm25 : Scorer::kTfIdf;
  scorer.bm25_k1 = conf.f64();
  scorer.bm25_b = conf.f64();
  conf.expect_consumed();
  auto shard = services::ShardEpoch::load(is, config,
                                          synopsis::AggregationKind::kMerge);
  r.finish();
  return SearchComponent(
      std::make_unique<const SearchSnapshot>(std::move(shard), doc_id_base,
                                             scorer, nullptr),
      nullptr);
} catch (const common::ArtifactError&) {
  throw;
} catch (const std::exception& e) {
  // Every load failure — truncated stream, bad header, decoder
  // error mid-chunk — surfaces as the artifact layer's structured error.
  throw common::ArtifactError(std::string("SearchComponent::load: ") +
                              e.what());
}

}  // namespace at::search
