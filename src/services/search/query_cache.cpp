#include "services/search/query_cache.h"

#include <algorithm>
#include <stdexcept>

namespace at::search {

QueryCache::QueryCache(std::size_t capacity, std::size_t max_bytes)
    : capacity_(capacity), max_bytes_(max_bytes) {
  if (capacity_ == 0)
    throw std::invalid_argument("QueryCache: capacity must be >= 1");
  index_.reserve(capacity_);
}

std::size_t QueryCache::entry_footprint(std::size_t key_terms,
                                        std::size_t result_docs) {
  // Key terms + scored docs + a flat allowance for the list node, the
  // hash slot and the two vector headers. An estimate, not malloc truth —
  // what matters is that it scales with the variable-size parts so the
  // budget genuinely bounds growth.
  constexpr std::size_t kPerEntryOverhead = 128;
  return key_terms * sizeof(std::uint32_t) + result_docs * sizeof(ScoredDoc) +
         kPerEntryOverhead;
}

void QueryCache::evict_for(std::size_t incoming_bytes,
                           std::size_t incoming_entries) {
  while (!lru_.empty() &&
         (lru_.size() + incoming_entries > capacity_ ||
          (max_bytes_ != 0 && bytes_ + incoming_bytes > max_bytes_))) {
    const Entry& victim = lru_.back();
    bytes_ -= entry_footprint(victim.key.size(), victim.result.size());
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::vector<std::uint32_t> QueryCache::canonical_key(
    const std::vector<std::uint32_t>& terms) {
  std::vector<std::uint32_t> key = terms;
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  return key;
}

bool QueryCache::lookup(const std::vector<std::uint32_t>& terms,
                        std::vector<ScoredDoc>* out, ResultMeta* meta) {
  common::MutexLock lock(mutex_);
  auto it = index_.find(terms);
  if (it == index_.end()) {
    ++stats_.misses;
    return false;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  if (out != nullptr) *out = it->second->result;
  if (meta != nullptr) *meta = it->second->meta;
  return true;
}

void QueryCache::insert(const std::vector<std::uint32_t>& terms,
                        std::vector<ScoredDoc> result, ResultMeta meta) {
  common::MutexLock lock(mutex_);
  const std::size_t incoming = entry_footprint(terms.size(), result.size());
  if (max_bytes_ != 0 && incoming > max_bytes_) {
    ++stats_.oversized_rejects;
    return;
  }
  auto it = index_.find(terms);
  if (it != index_.end()) {
    bytes_ -= entry_footprint(it->second->key.size(),
                              it->second->result.size());
    it->second->result = std::move(result);
    it->second->meta = meta;
    bytes_ += incoming;
    lru_.splice(lru_.begin(), lru_, it->second);
    // A refreshed result can be larger than the one it replaced; restore
    // the byte bound (the refreshed entry itself is at the LRU front and
    // within budget, so it survives).
    evict_for(0, 0);
    return;
  }
  evict_for(incoming, 1);
  lru_.push_front(Entry{terms, std::move(result), meta});
  index_[terms] = lru_.begin();
  bytes_ += incoming;
  ++stats_.insertions;
}

std::size_t QueryCache::mark_stale_epochs(std::uint64_t current_epoch,
                                          double penalty_pct) {
  common::MutexLock lock(mutex_);
  std::size_t marked = 0;
  for (Entry& e : lru_) {
    if (e.meta.stale || e.meta.epoch == current_epoch) continue;
    e.meta.stale = true;
    e.meta.loss_pct += penalty_pct;
    ++marked;
  }
  stats_.stale_marks += marked;
  return marked;
}

void QueryCache::invalidate_all() {
  common::MutexLock lock(mutex_);
  lru_.clear();
  index_.clear();
  bytes_ = 0;
  ++stats_.invalidations;
}

std::size_t QueryCache::size() const {
  common::MutexLock lock(mutex_);
  return lru_.size();
}

QueryCacheStats QueryCache::stats() const {
  common::MutexLock lock(mutex_);
  QueryCacheStats s = stats_;
  s.bytes = bytes_;
  return s;
}

}  // namespace at::search
