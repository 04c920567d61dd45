// LRU query-result cache. The paper's search service consults it first:
// "if a query request does not hit the query cache, the search engine
// scans its index file..." — high-frequency queries short-circuit the
// whole two-stage pipeline.
//
// Keys are the query's terms exactly as sent. The scan scores a repeated
// term once per occurrence and sums the per-term scores in the order sent,
// so "a b", "b a" and "a a b" may each have a different exact answer, and
// each gets its own entry. Keys are looked up through a hashed index
// (FNV-1a over the term ids) — O(key length) per probe instead of the
// ordered-map's O(log n) full-key comparisons. Thread-safe; the service
// invalidates the cache whenever a component's input data changes.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "services/search/topk.h"

namespace at::search {

struct QueryCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;
  /// Inserts refused because one entry alone exceeds the byte budget.
  std::uint64_t oversized_rejects = 0;
  /// Entries re-annotated stale by mark_stale_epochs() (epoch publish).
  std::uint64_t stale_marks = 0;
  /// Current estimated footprint of all cached entries (gauge, not a
  /// counter): keys + results + per-entry bookkeeping.
  std::uint64_t bytes = 0;

  double hit_rate() const {
    const auto total = hits + misses;
    return total ? static_cast<double>(hits) / static_cast<double>(total)
                 : 0.0;
  }
};

/// Annotation stored with each cached answer. The in-service exact path
/// leaves it defaulted; the serving front end records the answer's
/// estimated accuracy loss and the data epoch it was computed in, so a
/// cache hit can be marked fresh or stale-degraded.
struct ResultMeta {
  double loss_pct = 0.0;
  std::uint64_t epoch = 0;
  /// Set by mark_stale_epochs() when the entry's epoch was retired while
  /// the entry stayed cached: its loss_pct already includes the staleness
  /// penalty, and it must never be served as fresh again.
  bool stale = false;
};

class QueryCache {
 public:
  /// Bounds the cache two ways: at most `capacity` entries AND at most
  /// `max_bytes` of estimated entry footprint (0 = no byte bound). Entry
  /// count alone does not bound memory under a live query stream — result
  /// and key sizes vary per query — so the byte budget is what actually
  /// caps the working set; eviction is LRU under both bounds. An entry
  /// larger than the whole budget is refused (stats().oversized_rejects).
  explicit QueryCache(std::size_t capacity, std::size_t max_bytes = 0);

  /// Returns the cached result and refreshes its recency, or nullopt-like
  /// empty optional semantics via bool + out param: true on hit. `meta`
  /// (optional) receives the entry's annotation.
  bool lookup(const std::vector<std::uint32_t>& terms,
              std::vector<ScoredDoc>* out, ResultMeta* meta = nullptr);

  /// Inserts (or refreshes) the result for a query; evicts least recently
  /// used entries until both the entry-count and byte bounds hold.
  void insert(const std::vector<std::uint32_t>& terms,
              std::vector<ScoredDoc> result, ResultMeta meta = {});

  /// Drops everything (input data changed; all cached answers are stale).
  void invalidate_all();

  /// Epoch-publish hook: every entry computed in an epoch other than
  /// `current_epoch` (and not already marked) is re-annotated stale —
  /// `penalty_pct` is folded into its loss_pct once, and the entry can
  /// only be served as a degraded answer from then on. Keeping (rather
  /// than dropping) the entries preserves the degradation ladder's last
  /// rung: a stale answer still beats shedding the request. Returns how
  /// many entries were newly marked.
  std::size_t mark_stale_epochs(std::uint64_t current_epoch,
                                double penalty_pct);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t max_bytes() const { return max_bytes_; }
  QueryCacheStats stats() const;

  /// Estimated footprint of one entry (key + result + bookkeeping), the
  /// unit the byte budget is accounted in. Exposed so tests can compute
  /// exact expected byte totals.
  static std::size_t entry_footprint(std::size_t key_terms,
                                     std::size_t result_docs);

  /// A term list sorted and deduplicated: queries whose canonical keys
  /// differ are distinct as term sets, so they never share a cache key.
  /// Not the cache key itself (see the file comment).
  static std::vector<std::uint32_t> canonical_key(
      const std::vector<std::uint32_t>& terms);

 private:
  using Key = std::vector<std::uint32_t>;
  struct Entry {
    Key key;
    std::vector<ScoredDoc> result;
    ResultMeta meta;
  };

  /// FNV-1a over the key's term ids (length folded in first so prefixes
  /// do not collide trivially).
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = 0xCBF29CE484222325ull ^ (k.size() * 0x9E3779B97F4A7C15ull);
      for (const std::uint32_t t : k) {
        h ^= t;
        h *= 0x100000001B3ull;
      }
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  /// Evicts LRU entries until both bounds hold with `incoming` more bytes
  /// pending.
  void evict_for(std::size_t incoming_bytes, std::size_t incoming_entries)
      AT_REQUIRES(mutex_);

  std::size_t capacity_;
  std::size_t max_bytes_;
  mutable common::Mutex mutex_;
  std::size_t bytes_ AT_GUARDED_BY(mutex_) = 0;
  std::list<Entry> lru_ AT_GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_
      AT_GUARDED_BY(mutex_);
  QueryCacheStats stats_ AT_GUARDED_BY(mutex_);
};

}  // namespace at::search
