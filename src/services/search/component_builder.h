// Builds a search service's shard components on the executor's worker
// groups while the corpus is still streaming in.
//
// A shard's synopsis (SVD -> R-tree -> aggregation) and inverted index
// depend on that shard's rows alone, so shards build independently: add()
// submits each arriving shard's SearchComponent construction to its home
// group, and finish() hands the components back in shard order. Each build
// runs without an inner pool: the parallelism is across shards, every SVD
// keeps the sequential SGD order, and a component built on a worker saves
// the same bytes as one built on the calling thread.
#pragma once

#include <cstdint>
#include <future>
#include <vector>

#include "common/sharded_executor.h"
#include "services/search/component.h"

namespace at::search {

/// Not thread-safe: one thread calls add() and finish().
class ComponentBuilder {
 public:
  /// `exec` must outlive the builder.
  ComponentBuilder(common::ShardedExecutor& exec,
                   synopsis::BuildConfig config);
  /// Waits for every build still running, so none outlives the builder,
  /// also when an error unwinds past it.
  ~ComponentBuilder();

  ComponentBuilder(const ComponentBuilder&) = delete;
  ComponentBuilder& operator=(const ComponentBuilder&) = delete;

  /// Submits shard i's build (i = shards added before it) to group
  /// home_group(i). Its doc ids start where shard i-1's end.
  void add(synopsis::SparseRows shard);

  /// Waits for every submitted build, then returns the components in shard
  /// order. If any build threw, rethrows the lowest failing shard's
  /// exception, only once every build has ended. Call once.
  std::vector<SearchComponent> finish();

 private:
  common::ShardedExecutor& exec_;
  synopsis::BuildConfig config_;
  std::uint64_t next_doc_id_ = 0;
  std::vector<std::future<SearchComponent>> builds_;  // in shard order
};

}  // namespace at::search
