// Topology-aware sharded execution (ROADMAP "NUMA-aware sharding").
//
// A ShardedExecutor owns one pinned worker group (ThreadPool) per topology
// node. Shards — service components — are assigned a *home group* and all
// their work is dispatched to that group's pool, so a shard's hot state
// (CSR pools, accumulators, top-k heaps) is touched only by threads running
// on its node: first-touch page placement then keeps the pages node-local
// and the interconnect out of the steady-state path. On a single-node
// machine the executor degrades to exactly one group over every
// schedulable CPU, which behaves like the one global ThreadPool it
// replaces.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "common/topology.h"

namespace at::common {

class ShardedExecutor {
 public:
  /// One pinned worker group per node of `topo` (defaults to the
  /// AT_TOPOLOGY-resolved machine layout). Each group spawns one worker
  /// per node CPU, pinned to it.
  explicit ShardedExecutor(const Topology& topo = active_topology());

  ShardedExecutor(const ShardedExecutor&) = delete;
  ShardedExecutor& operator=(const ShardedExecutor&) = delete;

  const Topology& topology() const { return topo_; }
  std::size_t num_groups() const { return groups_.size(); }
  std::size_t group_size(std::size_t g) const { return groups_[g]->size(); }
  std::size_t total_workers() const;

  ThreadPool& group(std::size_t g) { return *groups_[g]; }

  /// Home group of a shard id: round-robin, so any contiguous shard range
  /// spreads evenly across nodes.
  std::size_t home_group(std::size_t shard) const {
    return shard % groups_.size();
  }

  /// Group the calling thread belongs to, or kNoGroup off the executor's
  /// workers. Lets shard code assert (and tests prove) node-local driving.
  static constexpr std::size_t kNoGroup = ~std::size_t{0};
  static std::size_t current_group();

  /// Runs fn(shard) for shard in [0, n), each dispatched to its home
  /// group; blocks until all complete (first exception rethrown after all
  /// finish, mirroring ThreadPool::parallel_for). One task per shard —
  /// right for heavy shard work (construction, updates).
  void for_each_shard(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Same contract, but dispatches ONE task per group which runs (or fans
  /// out on the group's own pool) every shard homed there. O(groups)
  /// dispatch overhead instead of O(n) — right for per-query fan-out,
  /// where task bookkeeping would otherwise rival the scan itself; on a
  /// one-group machine it degrades to a single task over all shards,
  /// matching the plain pool's chunking.
  void for_each_shard_grouped(std::size_t n,
                              const std::function<void(std::size_t)>& fn);

  /// Enqueues fn on group g's pool.
  template <typename F>
  std::future<void> submit(std::size_t g, F&& fn) {
    return groups_[g]->submit(std::forward<F>(fn));
  }

 private:
  static void wait_all(std::vector<std::future<void>>& futs);

  Topology topo_;
  std::vector<std::unique_ptr<ThreadPool>> groups_;  // one per node
};

}  // namespace at::common
