#include "services/search/component.h"

#include <string>

#include "core/algorithm1.h"
#include "synopsis/serialize.h"

namespace at::search {

// ---------------------------------------------------------------------------
// SearchSnapshot

SearchSnapshot::SearchSnapshot(
    synopsis::SparseRows docs, std::uint64_t doc_id_base,
    synopsis::BuildConfig config, ScorerParams scorer,
    synopsis::SynopsisStructure structure, synopsis::Synopsis synopsis,
    std::shared_ptr<const std::vector<double>> global_idf)
    : docs_(std::move(docs)),
      doc_id_base_(doc_id_base),
      config_(config),
      scorer_(scorer),
      structure_(std::move(structure)),
      synopsis_(std::move(synopsis)),
      index_(docs_, scorer),
      global_idf_(std::move(global_idf)) {
  if (global_idf_ != nullptr) index_.set_global_idf(global_idf_);
  build_derived();
}

SearchSnapshot::SearchSnapshot(const SearchSnapshot& o)
    : docs_(o.docs_),
      doc_id_base_(o.doc_id_base_),
      config_(o.config_),
      scorer_(o.scorer_),
      structure_(o.structure_.clone()),
      synopsis_(o.synopsis_),
      index_(o.index_),
      doc_group_(o.doc_group_),
      agg_length_(o.agg_length_),
      global_idf_(o.global_idf_) {}

void SearchSnapshot::build_derived() {
  doc_group_.assign(docs_.rows(), 0);
  const auto& groups = structure_.index.groups();
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (auto member : groups[g].members) doc_group_[member] = g;
  }
  agg_length_.assign(synopsis_.size(), 0.0);
  for (std::size_t g = 0; g < synopsis_.size(); ++g) {
    double len = 0.0;
    for (const auto& [term, count] : synopsis_.points[g].features)
      len += count;
    agg_length_[g] = len;
  }
}

std::vector<std::uint32_t> SearchSnapshot::doc_frequencies() const {
  std::vector<std::uint32_t> dfs(docs_.cols(), 0);
  for (std::uint32_t t = 0; t < docs_.cols(); ++t)
    dfs[t] = index_.doc_frequency(t);
  return dfs;
}

std::vector<std::uint32_t> SearchSnapshot::group_sizes() const {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(structure_.index.size());
  for (const auto& g : structure_.index.groups())
    sizes.push_back(static_cast<std::uint32_t>(g.members.size()));
  return sizes;
}

SearchComponentWork SearchSnapshot::analyze(
    const SearchRequest& request) const {
  SearchComponentWork work;
  const std::size_t m = synopsis_.size();
  work.correlations.resize(m, 0.0);
  work.scored_by_group.resize(m);

  // Synopsis pass: score each merged page against the query; a higher
  // similarity means the group's member pages are, on average, more likely
  // to contain the actual top pages.
  for (std::size_t g = 0; g < m; ++g) {
    work.correlations[g] = index_.score_counts(
        request.terms, synopsis_.points[g].features, agg_length_[g]);
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
  const std::size_t m = synopsis_.size();
  std::vector<double> corr(m, 0.0);
  for (std::size_t g = 0; g < m; ++g) {
    corr[g] = index_.score_counts(request.terms, synopsis_.points[g].features,
                                  agg_length_[g]);
  }
  std::vector<ScoredDoc> out;
  for (const std::size_t g : core::rank_by_correlation(corr)) {
    if (corr[g] <= 0.0 || out.size() >= k) break;  // no query overlap left
    for (auto member : structure_.index.groups()[g].members) {
      if (out.size() >= k) break;
      out.push_back(ScoredDoc{corr[g], doc_id_base_ + member});
    }
  }
  return out;
}

std::vector<std::uint64_t> SearchSnapshot::group_member_docs(
    std::size_t g) const {
  const auto& members = structure_.index.groups().at(g).members;
  std::vector<std::uint64_t> out;
  out.reserve(members.size());
  for (auto m : members) out.push_back(doc_id_base_ + m);
  return out;
}

void SearchSnapshot::save(std::ostream& os, common::Codec codec) const {
  common::ArtifactWriter w(os, "SCMP", 1);
  common::ChunkWriter conf;
  conf.u64(doc_id_base_);
  conf.u64(config_.svd.rank);
  conf.u64(config_.svd.epochs_per_dim);
  conf.f64(config_.svd.learning_rate);
  conf.f64(config_.svd.regularization);
  conf.f64(config_.size_ratio);
  conf.u64(config_.min_groups);
  conf.u8(scorer_.scorer == Scorer::kBm25 ? 1 : 0);
  conf.f64(scorer_.bm25_k1);
  conf.f64(scorer_.bm25_b);
  w.chunk("CONF", conf);
  synopsis::save(os, docs_);
  synopsis::save(os, structure_, codec);
  synopsis::save(os, synopsis_);
  w.finish();
}

std::unique_ptr<const SearchSnapshot> SearchSnapshot::with_global_idf(
    std::shared_ptr<const std::vector<double>> idf) const {
  std::unique_ptr<SearchSnapshot> copy(new SearchSnapshot(*this));
  copy->global_idf_ = std::move(idf);
  copy->index_.set_global_idf(copy->global_idf_);
  return copy;
}

// ---------------------------------------------------------------------------
// SearchBuilder

SearchBuilder::SearchBuilder(synopsis::SparseRows docs,
                             std::uint64_t doc_id_base,
                             const synopsis::BuildConfig& config,
                             ScorerParams scorer, common::ThreadPool* pool)
    : docs_(std::move(docs)),
      doc_id_base_(doc_id_base),
      config_(config),
      scorer_(scorer),
      structure_(synopsis::SynopsisBuilder(config).build(docs_, pool)),
      synopsis_(synopsis::aggregate_all(docs_, structure_.index,
                                        synopsis::AggregationKind::kMerge,
                                        pool)) {}

SearchBuilder::SearchBuilder(synopsis::SparseRows docs,
                             std::uint64_t doc_id_base,
                             synopsis::BuildConfig config, ScorerParams scorer,
                             synopsis::SynopsisStructure structure,
                             synopsis::Synopsis synopsis)
    : docs_(std::move(docs)),
      doc_id_base_(doc_id_base),
      config_(config),
      scorer_(scorer),
      structure_(std::move(structure)),
      synopsis_(std::move(synopsis)) {}

synopsis::UpdateReport SearchBuilder::apply(const synopsis::UpdateBatch& batch,
                                            common::ThreadPool* pool) {
  synopsis::SynopsisUpdater updater(config_);
  return updater.apply(structure_, docs_, synopsis_, batch,
                       synopsis::AggregationKind::kMerge, pool);
}

std::unique_ptr<const SearchSnapshot> SearchBuilder::build(
    std::shared_ptr<const std::vector<double>> global_idf) const {
  return std::make_unique<const SearchSnapshot>(
      docs_, doc_id_base_, config_, scorer_, structure_.clone(), synopsis_,
      std::move(global_idf));
}

// ---------------------------------------------------------------------------
// SearchComponent

/// The non-movable anchor behind the movable facade: the writer mutex, the
/// shadow copy it guards, and the epoch slot readers pin through. Held via
/// unique_ptr so SearchComponent still fits in std::vector.
struct SearchComponent::Core {
  common::Mutex writer_mutex;
  SearchBuilder builder AT_GUARDED_BY(writer_mutex);
  common::ThreadPool* pool AT_GUARDED_BY(writer_mutex) = nullptr;
  std::shared_ptr<const std::vector<double>> global_idf
      AT_GUARDED_BY(writer_mutex);
  DeltaSink delta_sink AT_GUARDED_BY(writer_mutex);
  common::EpochSlot<SearchSnapshot> epoch;

  explicit Core(SearchBuilder b) : builder(std::move(b)) {}
};

SearchComponent::SearchComponent(SearchBuilder builder,
                                 common::ThreadPool* pool)
    : core_(std::make_unique<Core>(std::move(builder))) {
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
  core_->epoch.publish(core_->builder.build(nullptr));
}

SearchComponent::SearchComponent(synopsis::SparseRows docs,
                                 std::uint64_t doc_id_base,
                                 const synopsis::BuildConfig& config,
                                 ScorerParams scorer, common::ThreadPool* pool)
    : SearchComponent(
          SearchBuilder(std::move(docs), doc_id_base, config, scorer, pool),
          pool) {}

SearchComponent::~SearchComponent() = default;
SearchComponent::SearchComponent(SearchComponent&&) noexcept = default;
SearchComponent& SearchComponent::operator=(SearchComponent&&) noexcept =
    default;

void SearchComponent::set_pool(common::ThreadPool* pool) {
  common::MutexLock lock(core_->writer_mutex);
  core_->pool = pool;
}

std::shared_ptr<const SearchSnapshot> SearchComponent::snapshot() const {
  return core_->epoch.acquire();
}

std::pair<std::shared_ptr<const SearchSnapshot>, std::uint64_t>
SearchComponent::snapshot_versioned() const {
  return core_->epoch.acquire_versioned();
}

std::uint64_t SearchComponent::epoch_version() const {
  return core_->epoch.version();
}

common::EpochStats SearchComponent::epoch_stats() const {
  return core_->epoch.stats();
}

void SearchComponent::rebase_epoch_version(std::uint64_t v) {
  // The writer mutex serializes the rebase against concurrent update()
  // publishes, so the version can never move between their pre-publish
  // read and the publish itself.
  common::MutexLock lock(core_->writer_mutex);
  core_->epoch.rebase_version(v);
}

void SearchComponent::set_delta_sink(DeltaSink sink) {
  common::MutexLock lock(core_->writer_mutex);
  core_->delta_sink = std::move(sink);
}

const synopsis::SynopsisStructure& SearchComponent::structure() const {
  return snapshot()->structure();
}

const synopsis::Synopsis& SearchComponent::synopsis() const {
  return snapshot()->synopsis();
}

const InvertedIndex& SearchComponent::index() const {
  return snapshot()->index();
}

void SearchComponent::set_global_idf(
    std::shared_ptr<const std::vector<double>> idf) {
  common::MutexLock lock(core_->writer_mutex);
  core_->global_idf = idf;
  std::shared_ptr<const SearchSnapshot> cur = core_->epoch.acquire();
  // Cheap-copy publish: swap the idf table on a copy of the published
  // snapshot instead of rebuilding index + derived arrays from the shadow.
  core_->epoch.publish(cur->with_global_idf(std::move(idf)));
}

synopsis::UpdateReport SearchComponent::update(
    const synopsis::UpdateBatch& batch) {
  common::MutexLock lock(core_->writer_mutex);
  const std::uint64_t from = core_->epoch.version();
  // Retrain/fold-in runs on the shadow copy: readers keep scanning the
  // published epoch and never observe intermediate state.
  synopsis::UpdateReport report = core_->builder.apply(batch, core_->pool);
  core_->epoch.publish(core_->builder.build(core_->global_idf));
  if (core_->delta_sink) {
    core_->delta_sink(batch, from, core_->epoch.version());
  }
  return report;
}

void SearchComponent::adopt(SearchComponent&& fresh) {
  // Move the incoming shadow copy out from under `fresh`'s own mutex
  // first; both locks are never held at once (no ordering to get wrong).
  std::unique_ptr<Core> incoming = std::move(fresh.core_);
  SearchBuilder* adopted = nullptr;
  {
    common::MutexLock lock(incoming->writer_mutex);
    adopted = &incoming->builder;
  }
  common::MutexLock lock(core_->writer_mutex);
  core_->builder = std::move(*adopted);
  core_->epoch.publish(core_->builder.build(core_->global_idf));
}

SearchComponent SearchComponent::load(std::istream& is) try {
  common::ArtifactReader r(is, "SCMP");
  if (r.version() != 1)
    throw common::ArtifactError("SearchComponent::load: unsupported version");
  common::ChunkReader conf = r.chunk("CONF");
  const auto doc_id_base = conf.u64();
  synopsis::BuildConfig config;
  config.svd.rank = conf.u64();
  config.svd.epochs_per_dim = conf.u64();
  config.svd.learning_rate = conf.f64();
  config.svd.regularization = conf.f64();
  config.size_ratio = conf.f64();
  config.min_groups = conf.u64();
  ScorerParams scorer;
  scorer.scorer = conf.u8() != 0 ? Scorer::kBm25 : Scorer::kTfIdf;
  scorer.bm25_k1 = conf.f64();
  scorer.bm25_b = conf.f64();
  conf.expect_consumed();
  auto docs = synopsis::load_sparse_rows(is);
  auto structure = synopsis::load_structure(is);
  auto synopsis = synopsis::load_synopsis(is);
  r.finish();
  return SearchComponent(
      SearchBuilder(std::move(docs), doc_id_base, config, scorer,
                    std::move(structure), std::move(synopsis)),
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
