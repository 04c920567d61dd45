#include "common/sharded_executor.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/failpoint.h"

namespace at::common {

namespace {
/// Home-group label of executor worker threads (kNoGroup elsewhere). A
/// plain thread_local: each worker sets its own slot once at start-up.
thread_local std::size_t t_current_group = ShardedExecutor::kNoGroup;
}  // namespace

void* NodeArena::allocate(std::size_t bytes) {
  constexpr std::size_t kAlign = 64;
  const std::size_t need = (bytes + kAlign - 1) / kAlign * kAlign;
  MutexLock lock(mutex_);
  for (auto& b : blocks_) {
    if (b.size - b.used >= need) {
      // `used` counts from the aligned base, so every allocation — also
      // the first after a reset() — stays 64-byte aligned.
      void* p = b.data.get() + b.skip + b.used;
      b.used += need;
      return p;
    }
  }
  Block b;
  b.size = std::max(block_bytes_, need);
  // Over-allocate by an alignment quantum so the base can be rounded up.
  b.data = std::make_unique<std::uint8_t[]>(b.size + kAlign);
  const std::size_t base =
      reinterpret_cast<std::uintptr_t>(b.data.get()) % kAlign;
  b.skip = base == 0 ? 0 : kAlign - base;
  // First touch happens HERE, on the allocating thread: zero-filling the
  // fresh block commits its pages while running on the owning node.
  std::memset(b.data.get(), 0, b.size + kAlign);
  b.used = need;
  void* p = b.data.get() + b.skip;
  blocks_.push_back(std::move(b));
  return p;
}

void NodeArena::reset() {
  MutexLock lock(mutex_);
  for (auto& b : blocks_) b.used = 0;
}

NodeArena::Checkpoint NodeArena::mark() const {
  MutexLock lock(mutex_);
  Checkpoint cp;
  cp.used.reserve(blocks_.size());
  for (const auto& b : blocks_) cp.used.push_back(b.used);
  return cp;
}

void NodeArena::release(const Checkpoint& cp) {
  MutexLock lock(mutex_);
  // Blocks grabbed after the mark roll back to empty but stay owned, so
  // their capacity (and first-touch page placement) is reused.
  for (std::size_t i = 0; i < blocks_.size(); ++i) {
    blocks_[i].used = i < cp.used.size() ? cp.used[i] : 0;
  }
}

std::size_t NodeArena::bytes_reserved() const {
  MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.size;
  return total;
}

std::size_t NodeArena::bytes_used() const {
  MutexLock lock(mutex_);
  std::size_t total = 0;
  for (const auto& b : blocks_) total += b.used;
  return total;
}

ShardedExecutor::ShardedExecutor(const Topology& topo) : topo_(topo) {
  if (topo_.node_cpus.empty())
    throw std::invalid_argument("ShardedExecutor: empty topology");
  for (const auto& cpus : topo_.node_cpus) {
    if (cpus.empty())
      throw std::invalid_argument("ShardedExecutor: empty topology node");
  }
  groups_.reserve(topo_.num_nodes());
  for (std::size_t g = 0; g < topo_.num_nodes(); ++g) {
    Group grp;
    grp.pool = std::make_unique<ThreadPool>(
        topo_.node_cpus[g],
        [g](std::size_t /*worker*/) { t_current_group = g; });
    grp.arena = std::make_unique<NodeArena>();
    groups_.push_back(std::move(grp));
  }
}

std::size_t ShardedExecutor::total_workers() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += g.pool->size();
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
  // Callers drive this from OFF the executor (services, benches, the
  // sharded SVD's coordinator thread). A group worker calling it and
  // targeting its own fully-busy group would wait on work queued behind
  // itself; nested fan-out belongs on the group's own pool, whose
  // parallel_for helps while waiting.
  std::vector<std::future<void>> futs;
  futs.reserve(n);
  for (std::size_t shard = 0; shard < n; ++shard) {
    futs.push_back(
        groups_[home_group(shard)].pool->submit([shard, &fn] { fn(shard); }));
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
    futs.push_back(groups_[g].pool->submit([this, g, n, G, &fn] {
      // Shards homed on g: g, g + G, g + 2G, ...
      const std::size_t count = (n - g + G - 1) / G;
      if (count > 1 && groups_[g].pool->size() > 1) {
        groups_[g].pool->parallel_for(
            count, [&](std::size_t i) { fn(g + i * G); });
      } else {
        for (std::size_t s = g; s < n; s += G) fn(s);
      }
    }));
  }
  wait_all(futs);
}

void ShardedExecutor::for_each_group(
    const std::function<void(std::size_t)>& fn) {
  std::vector<std::future<void>> futs;
  futs.reserve(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    futs.push_back(groups_[g].pool->submit([g, &fn] { fn(g); }));
  }
  wait_all(futs);
}

}  // namespace at::common
