#include "services/search/service.h"

#include <algorithm>
#include <istream>
#include <stdexcept>
#include <string>

#include "common/failpoint.h"
#include "core/algorithm1.h"

namespace at::search {

SearchService::SearchService(std::vector<SearchComponent> components,
                             std::size_t k)
    : SearchService(std::move(components), nullptr, k) {}

SearchService::SearchService(
    std::vector<SearchComponent> components,
    std::shared_ptr<const std::vector<double>> global_idf, std::size_t k)
    : components_(std::move(components)), k_(k) {
  if (components_.empty())
    throw std::invalid_argument("SearchService: no components");
  if (global_idf == nullptr) {
    rebuild_global_idf();
    return;
  }
  std::size_t total = 0;
  for (const auto& c : components_) total += c.num_docs();
  total_docs_.store(total, std::memory_order_relaxed);
  for (auto& c : components_) c.set_global_idf(global_idf);
}

void SearchService::rebuild_global_idf() {
  std::vector<std::vector<std::uint32_t>> dfs;
  dfs.reserve(components_.size());
  std::size_t total = 0;
  for (const auto& c : components_) {
    dfs.push_back(c.doc_frequencies());
    total += c.num_docs();
  }
  total_docs_.store(total, std::memory_order_relaxed);
  auto idf = std::make_shared<const std::vector<double>>(
      merge_idf(dfs, total));
  for (auto& c : components_) c.set_global_idf(idf);
}

std::uint64_t SearchService::data_version() const {
  std::uint64_t v = 0;
  for (const auto& c : components_) v += c.epoch_version();
  return v;
}

common::EpochStats SearchService::epoch_stats() const {
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

IndexSizeStats SearchService::index_size() const {
  IndexSizeStats total;
  for (const auto& c : components_) {
    const IndexSizeStats s = c.index_size();
    total.postings += s.postings;
    total.raw_bytes += s.raw_bytes;
    total.compressed_bytes += s.compressed_bytes;
  }
  return total;
}

void SearchService::set_executor(common::ShardedExecutor* exec) {
  exec_ = exec;
  // Each component's internal parallelism (synopsis updates, rebuilds)
  // runs on its home node's pinned pool, so the shard's pages stay
  // node-local as the data evolves.
  for (std::size_t c = 0; c < components_.size(); ++c)
    components_[c].set_pool(
        exec_ != nullptr ? &exec_->group(exec_->home_group(c)) : nullptr);
}

synopsis::UpdateReport SearchService::update_component(
    std::size_t c, const synopsis::UpdateBatch& batch) {
  synopsis::UpdateReport report;
  if (exec_ != nullptr) {
    // Run the mutation on the shard's home group: the batch's new rows and
    // rebuilt postings are first-touched by node-local threads. The
    // update's own parallel phases fan out on the same group (nested
    // parallel_for helps while waiting, so one-worker groups are safe).
    exec_->submit(exec_->home_group(c),
                  [&] { report = components_.at(c).update(batch); })
        .get();
  } else {
    report = components_.at(c).update(batch);
  }
  return report;
}

std::vector<ScoredDoc> SearchService::exact_topk(
    const SearchRequest& request) const {
  TopK top(k_);
  for (const auto& c : components_)
    for (const auto& d : c.exact_topk(request, k_)) top.offer(d);
  return top.take();
}

std::vector<ScoredDoc> SearchService::exact_topk_partial(
    const SearchRequest& request, std::size_t* components_ok) const {
  std::size_t ok = 0;
  TopK top(k_);
  for (std::size_t c = 0; c < components_.size(); ++c) {
    std::vector<ScoredDoc> local;
    try {
      // Fault-injection sites: "server.scan" kills every component's scan,
      // "server.scan.c<C>" kills one component mid-query.
      if (common::failpoint::any_armed()) {
        common::failpoint::check_throw("server.scan");
        common::failpoint::check_throw(
            ("server.scan.c" + std::to_string(c)).c_str());
      }
      local = components_[c].exact_topk(request, k_);
    } catch (...) {
      // The component is unavailable (its scan hit an artifact or injected
      // fault); the merge proceeds without it.
      continue;
    }
    ++ok;
    for (const auto& d : local) top.offer(d);
  }
  if (components_ok != nullptr) *components_ok = ok;
  return top.take();
}

std::vector<ScoredDoc> SearchService::synopsis_topk(
    const SearchRequest& request) const {
  TopK top(k_);
  for (const auto& c : components_)
    for (const auto& d : c.synopsis_topk(request, k_)) top.offer(d);
  return top.take();
}

void SearchService::reload_component(std::size_t c, std::istream& is) {
  if (c >= components_.size())
    throw std::invalid_argument("SearchService::reload_component: bad index");
  // Load into a temporary: every failure mode (truncation, corruption,
  // injected artifact fault) throws out of here before any service state
  // is touched.
  SearchComponent fresh = SearchComponent::load(is);
  // Adopt the loaded snapshot and publish it as a new epoch on the
  // *existing* component object — in-flight queries hold pinned snapshots
  // and drain against the old epoch, while the component's mutex/epoch
  // anchor (which concurrent readers go through) is never replaced.
  components_[c].adopt(std::move(fresh));
  // The shard's contents may have changed: rebuild the corpus-global idf.
  rebuild_global_idf();
}

std::vector<ScoredDoc> SearchService::retrieve(
    const SearchRequest& request, core::Technique technique,
    const std::vector<ComponentOutcome>& outcomes) const {
  using core::Technique;
  if (technique == Technique::kBasic ||
      technique == Technique::kRequestReissue) {
    return exact_topk(request);
  }
  if (outcomes.size() != components_.size())
    throw std::invalid_argument("SearchService::retrieve: outcome mismatch");

  if (technique == Technique::kPartialExecution) {
    TopK top(k_);
    for (std::size_t c = 0; c < components_.size(); ++c) {
      if (!outcomes[c].included) continue;
      for (const auto& d : components_[c].exact_topk(request, k_))
        top.offer(d);
    }
    return top.take();
  }

  // AccuracyTrader: union of the exactly scored pages from each
  // component's processed ranked sets.
  TopK top(k_);
  struct PendingGroup {
    double correlation;
    std::size_t comp;
    std::size_t group;
  };
  std::vector<PendingGroup> unprocessed;
  // Pin ONE snapshot per component for the whole request: the group
  // indices coming out of analyze() are only meaningful against the same
  // epoch's group index, so the padding pass below must read member docs
  // from the snapshot that produced them — not whatever a concurrent
  // update published in between.
  std::vector<std::shared_ptr<const SearchSnapshot>> snaps(components_.size());
  for (std::size_t c = 0; c < components_.size(); ++c) {
    snaps[c] = components_[c].snapshot();
    const SearchComponentWork work = snaps[c]->analyze(request);
    const auto ranked = core::rank_by_correlation(work.correlations);
    const std::size_t sets =
        std::min<std::size_t>(outcomes[c].sets, ranked.size());
    for (std::size_t i = 0; i < sets; ++i) {
      for (const auto& d : work.scored_by_group[ranked[i]]) top.offer(d);
    }
    for (std::size_t i = sets; i < ranked.size(); ++i) {
      unprocessed.push_back(
          PendingGroup{work.correlations[ranked[i]], c, ranked[i]});
    }
  }
  std::vector<ScoredDoc> result = top.take();

  // Stage-1 padding: too few exactly-scored pages (e.g. zero sets fit the
  // deadline) — fall back on the synopsis ranking, best groups first.
  if (result.size() < k_) {
    std::sort(unprocessed.begin(), unprocessed.end(),
              [](const PendingGroup& a, const PendingGroup& b) {
                if (a.correlation != b.correlation)
                  return a.correlation > b.correlation;
                if (a.comp != b.comp) return a.comp < b.comp;
                return a.group < b.group;
              });
    for (const auto& pg : unprocessed) {
      if (result.size() >= k_) break;
      if (pg.correlation <= 0.0) break;  // no query overlap at all
      for (auto doc : snaps[pg.comp]->group_member_docs(pg.group)) {
        if (result.size() >= k_) break;
        const bool dup =
            std::any_of(result.begin(), result.end(),
                        [doc](const ScoredDoc& d) { return d.doc == doc; });
        if (!dup) result.push_back(ScoredDoc{0.0, doc});
      }
    }
  }
  return result;
}

SearchEvalResult SearchService::evaluate(
    const std::vector<SearchRequest>& requests, core::Technique technique,
    const std::function<std::vector<ComponentOutcome>(std::size_t)>&
        outcome_for) const {
  SearchEvalResult result;
  result.requests = requests.size();
  if (requests.empty()) return result;

  double acc = 0.0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto actual = exact_topk(requests[r]);
    std::vector<ScoredDoc> retrieved;
    if (technique == core::Technique::kBasic ||
        technique == core::Technique::kRequestReissue) {
      retrieved = actual;
    } else {
      retrieved = retrieve(requests[r], technique, outcome_for(r));
    }
    acc += topk_overlap(retrieved, actual);
  }
  result.accuracy = acc / static_cast<double>(requests.size());
  result.loss_pct = (1.0 - result.accuracy) * 100.0;
  return result;
}

SearchEvalResult SearchService::evaluate_uniform(
    const std::vector<SearchRequest>& requests, core::Technique technique,
    ComponentOutcome outcome) const {
  const std::vector<ComponentOutcome> uniform(components_.size(), outcome);
  return evaluate(requests, technique,
                  [&uniform](std::size_t) { return uniform; });
}

}  // namespace at::search
