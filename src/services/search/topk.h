// Bounded top-k collection of scored documents with deterministic
// tie-breaking (higher score first; equal scores ordered by lower doc id).
#pragma once

#include <cstdint>
#include <vector>

namespace at::search {

struct ScoredDoc {
  double score = 0.0;
  std::uint64_t doc = 0;
};

/// Ordering used everywhere results are ranked.
inline bool better(const ScoredDoc& a, const ScoredDoc& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.doc < b.doc;
}

class TopK {
 public:
  explicit TopK(std::size_t k);

  void offer(const ScoredDoc& d);
  void offer(double score, std::uint64_t doc) { offer(ScoredDoc{score, doc}); }

  std::size_t size() const { return heap_.size(); }

  /// Results in rank order (best first). Does not consume the collector.
  std::vector<ScoredDoc> take() const;

 private:
  std::size_t k_;
  // Min-heap on `better`: heap_.front() is the currently worst kept doc.
  std::vector<ScoredDoc> heap_;
};

/// Fraction of `actual`'s docs present in `retrieved` (the paper's search
/// accuracy metric with actual = exact top-10). Returns 1 when actual is
/// empty (nothing to find).
double topk_overlap(const std::vector<ScoredDoc>& retrieved,
                    const std::vector<ScoredDoc>& actual);

}  // namespace at::search
