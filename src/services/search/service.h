// The search service: a query is answered by every shard component, in
// component order on the calling thread; local results merge into the
// global top-k, whose overlap with the exact top-k is the paper's accuracy
// metric.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/sharded_executor.h"
#include "core/outcome.h"
#include "core/technique.h"
#include "services/search/component.h"

namespace at::search {

/// Per-component outcome observed by the simulator for one request.
using ComponentOutcome = core::ComponentOutcome;

struct SearchEvalResult {
  double accuracy = 0.0;     // mean top-k overlap with exact results
  double loss_pct = 0.0;     // (1 - accuracy) * 100 relative to exact
  std::size_t requests = 0;
};

class SearchService {
 public:
  /// Builds the service over per-shard components and installs a shared
  /// corpus-global idf so scores are comparable across shards.
  SearchService(std::vector<SearchComponent> components, std::size_t k = 10);

  /// Builds the service with a *preset* corpus-global idf instead of
  /// rebuilding it from current component contents. The warm-standby
  /// path needs this: the primary's idf is a function of the contents at
  /// *its* construction time and is deliberately not refreshed by online
  /// updates, so a replica reconstructing from a post-update checkpoint
  /// must install the checkpointed idf verbatim to score byte-identically.
  /// Falls back to a rebuild when `global_idf` is null.
  SearchService(std::vector<SearchComponent> components,
                std::shared_ptr<const std::vector<double>> global_idf,
                std::size_t k);

  std::size_t num_components() const { return components_.size(); }
  const SearchComponent& component(std::size_t i) const {
    return components_.at(i);
  }
  SearchComponent& component(std::size_t i) { return components_.at(i); }
  std::size_t k() const { return k_; }
  std::size_t total_docs() const {
    return total_docs_.load(std::memory_order_relaxed);
  }

  /// Sum of every component's epoch version: changes whenever any shard
  /// publishes a new epoch (update, reload, idf rebuild). The freshness
  /// token cached answers are stamped with.
  std::uint64_t data_version() const;
  /// Aggregated epoch counters across all components (version/published/
  /// retired/live summed per slot).
  common::EpochStats epoch_stats() const;

  /// Aggregate inverted-index footprint across all shard components.
  IndexSizeStats index_size() const;

  /// Installs a topology-aware executor: every component is assigned a
  /// home group (round-robin over the executor's nodes) and its
  /// update/build work runs on that group's pinned pool. Queries never use
  /// it: every query method walks the components in order on the calling
  /// thread, because fanning one query across the pool costs about twice
  /// its CPU (see server.h). The caller owns the executor's lifetime; pass
  /// nullptr to run updates on the calling thread.
  void set_executor(common::ShardedExecutor* exec);

  /// Routes an input-data change batch to component `c`. The component
  /// derives and publishes a new epoch by copy on write — concurrent
  /// queries keep scanning their pinned snapshots and never block on this
  /// call. Answer caches (the server's) detect the change through
  /// data_version().
  synopsis::UpdateReport update_component(std::size_t c,
                                          const synopsis::UpdateBatch& batch);

  /// Exact global top-k.
  std::vector<ScoredDoc> exact_topk(const SearchRequest& request) const;

  /// Fault-tolerant exact top-k: a component whose scan throws (artifact
  /// fault, injected failpoint) contributes nothing instead of failing the
  /// query. `components_ok` (may be null) receives how many components
  /// actually contributed, so callers can mark the answer degraded and
  /// estimate its accuracy loss.
  /// The answer is bit-identical to exact_topk's.
  std::vector<ScoredDoc> exact_topk_partial(const SearchRequest& request,
                                            std::size_t* components_ok) const;

  /// Synopsis-only global top-k: every component answers from its
  /// aggregated pages alone (stage 1, no postings scan). The cheap rung
  /// of the serving degradation ladder.
  std::vector<ScoredDoc> synopsis_topk(const SearchRequest& request) const;

  /// Replaces component `c` with a snapshot loaded from `is`, with the
  /// strong exception guarantee: the snapshot is fully loaded and indexed
  /// into a temporary first, so a truncated/corrupt stream throws
  /// ArtifactError and leaves the service (and the old component) exactly
  /// as it was. On success the global idf table is rebuilt.
  void reload_component(std::size_t c, std::istream& is);

  /// Retrieved top-k under a technique given per-component outcomes.
  /// For AccuracyTrader, if fewer than k exactly-scored pages exist in the
  /// processed sets, the result is padded from the initial (stage-1)
  /// synopsis ranking: member pages of the globally best-ranked
  /// *unprocessed* aggregated pages, in correlation order.
  std::vector<ScoredDoc> retrieve(
      const SearchRequest& request, core::Technique technique,
      const std::vector<ComponentOutcome>& outcomes) const;

  /// Mean accuracy over a request batch; `outcome_for(r)` supplies request
  /// r's per-component outcomes.
  SearchEvalResult evaluate(
      const std::vector<SearchRequest>& requests, core::Technique technique,
      const std::function<std::vector<ComponentOutcome>(std::size_t)>&
          outcome_for) const;

  SearchEvalResult evaluate_uniform(const std::vector<SearchRequest>& requests,
                                    core::Technique technique,
                                    ComponentOutcome outcome) const;

 private:
  /// Recomputes the corpus-global idf from current component contents and
  /// publishes it into every component (each a cheap epoch).
  void rebuild_global_idf();

  std::vector<SearchComponent> components_;
  std::size_t k_;
  std::atomic<std::size_t> total_docs_{0};
  common::ShardedExecutor* exec_ = nullptr;
};

}  // namespace at::search
