// One parallel component of the search service: a shard of the web-page
// corpus, its inverted index, and the synopsis of merged ("aggregated")
// pages built over it.
//
// Ownership model: one copy of the component's state, published as
// immutable epochs behind an RCU epoch slot (services/epoch_component.h).
//
//   SearchSnapshot   everything a query reads — docs, synopsis, inverted
//                    index, derived arrays — frozen at publish time. All
//                    methods are const and safe to call from any number
//                    of threads concurrently. Docs, structure and synopsis
//                    are shared with the neighbouring epochs wherever an
//                    update did not touch them.
//   SearchComponent  the facade the rest of the stack holds: queries pin
//                    the current snapshot (snapshot() / the delegating
//                    query methods); an update derives epoch N+1 from the
//                    pinned epoch N by copy on write and publishes it with
//                    a pointer swap.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "services/epoch_component.h"
#include "services/search/inverted_index.h"
#include "services/search/topk.h"

namespace at::search {

struct SearchRequest {
  std::vector<std::uint32_t> terms;  // query term ids
};

/// Per-request decomposition of one component's contribution:
///  * correlations[g] — the aggregated page g's similarity score to the
///    query (the paper's correlation estimate for text services);
///  * scored_by_group[g] — the *exactly scored* member pages of group g
///    that match the query (global doc ids).
/// Exact processing is the union over all groups; AccuracyTrader with k
/// sets processed contributes the union over the top-k ranked groups.
struct SearchComponentWork {
  std::vector<double> correlations;
  std::vector<std::vector<ScoredDoc>> scored_by_group;
};

/// Immutable published state of one search component. Every member is
/// frozen after construction, so any number of threads may query one
/// snapshot concurrently (the scan scratch inside InvertedIndex is
/// thread_local). Group indices, doc ids and correlations returned by one
/// snapshot are only meaningful against that same snapshot — pin it once
/// per request.
class SearchSnapshot : public services::ShardEpoch {
 public:
  /// Builds the inverted index and derived arrays over `shard`'s docs.
  SearchSnapshot(services::ShardEpoch shard, std::uint64_t doc_id_base,
                 ScorerParams scorer,
                 std::shared_ptr<const std::vector<double>> global_idf);

  std::size_t num_docs() const { return rows().rows(); }
  std::uint64_t doc_id_base() const { return doc_id_base_; }
  const ScorerParams& scorer_params() const { return scorer_; }
  const synopsis::SparseRows& docs() const { return rows(); }
  const InvertedIndex& index() const { return index_; }
  const std::shared_ptr<const std::vector<double>>& global_idf() const {
    return global_idf_;
  }

  /// Compressed vs raw postings footprint of this shard's inverted index.
  IndexSizeStats index_size() const { return index_.size_stats(); }

  /// Per-term document frequencies (for building the corpus-global idf).
  std::vector<std::uint32_t> doc_frequencies() const;

  /// Full per-request analysis (synopsis scores + exact member scores).
  SearchComponentWork analyze(const SearchRequest& request) const;

  /// Exact local top-k (all groups).
  std::vector<ScoredDoc> exact_topk(const SearchRequest& request,
                                    std::size_t k) const;

  /// Stage-1-only local answer: scores only the aggregated synopsis pages
  /// (O(groups) work, no postings scan), then returns the member docs of
  /// the best-correlated groups, each carrying its group's correlation as
  /// the score. The cheap rung of the serving degradation ladder — scores
  /// are approximate but comparable across components (global idf).
  std::vector<ScoredDoc> synopsis_topk(const SearchRequest& request,
                                       std::size_t k) const;

  /// Global doc ids of group g's members, in member order. Used for the
  /// stage-1-only fallback: when no group was processed exactly, the
  /// initial result returns members of the best-ranked aggregated pages
  /// (an approximation; individual member scores are unknown until their
  /// group is processed).
  std::vector<std::uint64_t> group_member_docs(std::size_t g) const;

  /// Persists the shard (documents + synopsis structure + aggregated
  /// synopsis + scorer) as an artifact-store snapshot (kind "SCMP"); f64
  /// columns go through `codec`, every chunk is CRC-checked, and the
  /// inverted index is rebuilt on load.
  void save(std::ostream& os,
            common::Codec codec = common::Codec::kShuffle) const;

  /// Identical snapshot with a different corpus-global idf table: shares
  /// the docs, structure and synopsis and swaps the idf — no SVD retrain,
  /// no index rebuild (the postings pool is copied, not reconstructed).
  std::unique_ptr<const SearchSnapshot> with_global_idf(
      std::shared_ptr<const std::vector<double>> idf) const;

 private:
  template <typename>
  friend class services::EpochComponent;

  SearchSnapshot(const SearchSnapshot&) = default;  // shares the pieces

  std::unique_ptr<const SearchSnapshot> next_epoch(
      const synopsis::UpdateBatch& batch, common::ThreadPool* pool,
      synopsis::UpdateReport& report) const;

  std::uint64_t doc_id_base_;
  ScorerParams scorer_;
  InvertedIndex index_;
  std::vector<std::uint32_t> doc_group_;  // local doc -> group index
  std::vector<double> agg_length_;        // merged length per aggregated page
  std::shared_ptr<const std::vector<double>> global_idf_;
};

class SearchComponent : public services::EpochComponent<SearchSnapshot> {
 public:
  /// `docs`: row = page, col = term id, value = occurrence count.
  /// `doc_id_base`: offset of this shard's pages in the global id space.
  /// `scorer`: ranking function (Lucene-classic TF-IDF by default, BM25
  /// available); applied to both exact scoring and aggregated pages.
  /// `pool` parallelizes synopsis construction and later updates; the
  /// component keeps the pointer (caller owns the pool's lifetime).
  SearchComponent(synopsis::SparseRows docs, std::uint64_t doc_id_base,
                  const synopsis::BuildConfig& config,
                  ScorerParams scorer = {},
                  common::ThreadPool* pool = nullptr);

  // Convenience delegates to the current snapshot (see EpochComponent).
  std::size_t num_docs() const { return snapshot()->num_docs(); }
  std::uint64_t doc_id_base() const { return snapshot()->doc_id_base(); }
  const InvertedIndex& index() const { return snapshot()->index(); }
  IndexSizeStats index_size() const { return snapshot()->index_size(); }
  std::vector<std::uint32_t> doc_frequencies() const {
    return snapshot()->doc_frequencies();
  }
  SearchComponentWork analyze(const SearchRequest& request) const {
    return snapshot()->analyze(request);
  }
  std::vector<ScoredDoc> exact_topk(const SearchRequest& request,
                                    std::size_t k) const {
    return snapshot()->exact_topk(request, k);
  }
  std::vector<ScoredDoc> synopsis_topk(const SearchRequest& request,
                                       std::size_t k) const {
    return snapshot()->synopsis_topk(request, k);
  }
  std::vector<std::uint64_t> group_member_docs(std::size_t g) const {
    return snapshot()->group_member_docs(g);
  }

  /// Installs the corpus-global idf table used in all scoring; publishes
  /// a new epoch that shares the docs, structure and synopsis (no rebuild).
  void set_global_idf(std::shared_ptr<const std::vector<double>> idf);

  /// Replaces this component's state with `fresh`'s (the reload path):
  /// publishes `fresh`'s snapshot, re-stamped with this component's idf,
  /// as a new epoch. The pool and delta sink installed on *this*
  /// component are kept.
  void adopt(SearchComponent&& fresh);

  static SearchComponent load(std::istream& is);

 private:
  using EpochComponent::EpochComponent;
};

}  // namespace at::search
