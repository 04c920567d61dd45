// Topology-aware sharded execution (ROADMAP "NUMA-aware sharding").
//
// A ShardedExecutor owns one pinned worker group (ThreadPool) per topology
// node. Shards — service components — are assigned a *home group* and
// their update and build work is dispatched to that group's pool, so the
// pages a shard writes (new rows, rebuilt postings, re-aggregated synopsis
// groups) are first-touched by threads running on its node. Queries do not
// run here: each one walks the shards on its caller's thread. On a
// single-node machine the executor degrades to exactly one group over
// every schedulable CPU, which behaves like the one global ThreadPool it
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

  std::size_t num_groups() const { return groups_.size(); }
  std::size_t group_size(std::size_t g) const { return groups_[g]->size(); }
  std::size_t total_workers() const { return cpus_.size(); }

  /// The CPU each pool worker is pinned to: group 0's workers in order,
  /// then group 1's, and so on. A simulated layout may list a CPU more
  /// than once. The server pins its read workers to the same list.
  const std::vector<int>& cpus() const { return cpus_; }

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
  /// out on the group's own pool) every shard homed there: O(groups)
  /// dispatch overhead instead of O(n). No library code calls it: queries
  /// run on the calling thread, because fanning one query across the pool
  /// costs about twice its CPU. It stays as the building block for an
  /// adaptive per-query fan-out; the benchmark's trace times one empty
  /// dispatch with it.
  void for_each_shard_grouped(std::size_t n,
                              const std::function<void(std::size_t)>& fn);

  /// Enqueues fn on group g's pool.
  template <typename F>
  std::future<void> submit(std::size_t g, F&& fn) {
    return groups_[g]->submit(std::forward<F>(fn));
  }

 private:
  static void wait_all(std::vector<std::future<void>>& futs);

  std::vector<std::unique_ptr<ThreadPool>> groups_;  // one per node
  std::vector<int> cpus_;
};

}  // namespace at::common
