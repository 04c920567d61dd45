#include "common/sharded_executor.h"

#include <algorithm>
#include <stdexcept>

#include "common/failpoint.h"

namespace at::common {

namespace {
/// Home-group label of executor worker threads (kNoGroup elsewhere). A
/// plain thread_local: each worker sets its own slot once at start-up.
thread_local std::size_t t_current_group = ShardedExecutor::kNoGroup;
}  // namespace

ShardedExecutor::ShardedExecutor(const Topology& topo) : topo_(topo) {
  if (topo_.node_cpus.empty())
    throw std::invalid_argument("ShardedExecutor: empty topology");
  for (const auto& cpus : topo_.node_cpus) {
    if (cpus.empty())
      throw std::invalid_argument("ShardedExecutor: empty topology node");
  }
  groups_.reserve(topo_.num_nodes());
  for (std::size_t g = 0; g < topo_.num_nodes(); ++g) {
    groups_.push_back(std::make_unique<ThreadPool>(
        topo_.node_cpus[g],
        [g](std::size_t /*worker*/) { t_current_group = g; }));
  }
}

std::size_t ShardedExecutor::total_workers() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += g->size();
  return n;
}

std::size_t ShardedExecutor::current_group() { return t_current_group; }

void ShardedExecutor::wait_all(std::vector<std::future<void>>& futs) {
  std::exception_ptr first;
  for (auto& f : futs) {
    try {
      f.get();
    } catch (...) {
      if (first == nullptr) first = std::current_exception();
    }
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ShardedExecutor::for_each_shard(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Callers drive this from OFF the executor. A group worker calling it
  // and targeting its own fully-busy group would wait on work queued
  // behind itself; nested fan-out belongs on the group's own pool, whose
  // parallel_for helps while waiting.
  std::vector<std::future<void>> futs;
  futs.reserve(n);
  for (std::size_t shard = 0; shard < n; ++shard) {
    futs.push_back(
        groups_[home_group(shard)]->submit([shard, &fn] { fn(shard); }));
  }
  wait_all(futs);
}

void ShardedExecutor::for_each_shard_grouped(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Fault-injection site: a delay here inflates every grouped fan-out
  // (on the serving front end, the synopsis rung and recommends), an error
  // makes dispatch itself fail — both must surface as degraded-tier
  // answers, never crashes.
  AT_FAILPOINT("executor.dispatch");
  const std::size_t G = groups_.size();
  std::vector<std::future<void>> futs;
  futs.reserve(std::min(G, n));
  for (std::size_t g = 0; g < G && g < n; ++g) {
    futs.push_back(groups_[g]->submit([this, g, n, G, &fn] {
      // Shards homed on g: g, g + G, g + 2G, ...
      const std::size_t count = (n - g + G - 1) / G;
      if (count > 1 && groups_[g]->size() > 1) {
        groups_[g]->parallel_for(count, [&](std::size_t i) { fn(g + i * G); });
      } else {
        for (std::size_t s = g; s < n; s += G) fn(s);
      }
    }));
  }
  wait_all(futs);
}

}  // namespace at::common
