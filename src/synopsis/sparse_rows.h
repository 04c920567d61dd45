// Row-oriented sparse data: the common representation of a component's
// input-data subset.
//
// Both services map naturally onto sparse rows:
//  * recommender: row = user, column = item, value = rating;
//  * search engine: row = web page, column = term id, value = occurrence
//    count (the paper's step 1 explicitly converts text to exactly this
//    numeric form before dimensionality reduction).
//
// Storage is CSR-style: one contiguous column-index pool and one value
// pool shared by every row, with a per-row (offset, length) extent. Rows
// appended in order are laid out back to back, so the synopsis build path
// (SVD over all entries, inverted-index construction, aggregation) scans
// two flat arrays instead of chasing per-row pair vectors.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace at::synopsis {

/// One sparse feature vector: (column index, value) pairs sorted by column.
/// Still the mutation/interchange format (requests, update batches, text
/// conversion); row storage itself is pooled inside SparseRows.
using SparseVector = std::vector<std::pair<std::uint32_t, double>>;

/// Non-owning view of one stored row: parallel column/value arrays.
/// Iteration yields (column, value) pairs by value, so range-for with
/// structured bindings works exactly as it did over SparseVector.
/// Views are invalidated by any mutation of the owning SparseRows.
class SparseRowView {
 public:
  using value_type = std::pair<std::uint32_t, double>;

  class const_iterator {
   public:
    using value_type = SparseRowView::value_type;
    using difference_type = std::ptrdiff_t;

    const_iterator() = default;
    const_iterator(const std::uint32_t* c, const double* v) : c_(c), v_(v) {}

    value_type operator*() const { return {*c_, *v_}; }
    const_iterator& operator++() {
      ++c_;
      ++v_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const const_iterator& o) const { return c_ == o.c_; }
    bool operator!=(const const_iterator& o) const { return c_ != o.c_; }

   private:
    const std::uint32_t* c_ = nullptr;
    const double* v_ = nullptr;
  };

  SparseRowView() = default;
  SparseRowView(const std::uint32_t* cols, const double* vals, std::size_t n)
      : cols_(cols), vals_(vals), size_(n) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  value_type operator[](std::size_t i) const { return {cols_[i], vals_[i]}; }

  /// Raw CSR slices (sorted by column, no duplicates).
  const std::uint32_t* cols() const { return cols_; }
  const double* vals() const { return vals_; }

  const_iterator begin() const { return {cols_, vals_}; }
  const_iterator end() const { return {cols_ + size_, vals_ + size_}; }

  /// Materializes a pair-vector copy (serialization, update batches).
  SparseVector to_vector() const {
    SparseVector v;
    v.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) v.emplace_back(cols_[i], vals_[i]);
    return v;
  }

 private:
  const std::uint32_t* cols_ = nullptr;
  const double* vals_ = nullptr;
  std::size_t size_ = 0;
};

bool operator==(const SparseRowView& a, const SparseRowView& b);
bool operator==(const SparseRowView& a, const SparseVector& b);
inline bool operator==(const SparseVector& a, const SparseRowView& b) {
  return b == a;
}
inline bool operator!=(const SparseRowView& a, const SparseRowView& b) {
  return !(a == b);
}

/// Sorts by column index and merges duplicate columns (values summed).
void normalize(SparseVector& v);

namespace detail {

/// Row concept: r.size(), r[i].first (column), r[i].second (value), columns
/// sorted ascending. Satisfied by both SparseVector and SparseRowView.
template <typename Row>
double row_value_at(const Row& v, std::uint32_t c) {
  std::size_t lo = 0, hi = v.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (v[mid].first < c) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < v.size() && v[lo].first == c) return v[lo].second;
  return 0.0;
}

template <typename RowA, typename RowB>
double row_dot(const RowA& a, const RowB& b) {
  double acc = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const std::uint32_t ca = a[i].first;
    const std::uint32_t cb = b[j].first;
    if (ca < cb) {
      ++i;
    } else if (ca > cb) {
      ++j;
    } else {
      acc += a[i].second * b[j].second;
      ++i;
      ++j;
    }
  }
  return acc;
}

template <typename Row>
double row_norm(const Row& v) {
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const double val = v[i].second;
    acc += val * val;
  }
  return std::sqrt(acc);
}

template <typename RowA, typename RowB>
double row_cosine(const RowA& a, const RowB& b) {
  const double na = row_norm(a);
  const double nb = row_norm(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return row_dot(a, b) / (na * nb);
}

}  // namespace detail

/// Value at column c, or 0 if absent (binary search).
template <typename Row>
double value_at(const Row& v, std::uint32_t c) {
  return detail::row_value_at(v, c);
}
inline double value_at(const SparseVector& v, std::uint32_t c) {
  return detail::row_value_at(v, c);
}

/// Dot product of two normalized sparse vectors/rows.
template <typename RowA, typename RowB>
double dot(const RowA& a, const RowB& b) {
  return detail::row_dot(a, b);
}
inline double dot(const SparseVector& a, const SparseVector& b) {
  return detail::row_dot(a, b);
}

/// Euclidean norm.
template <typename Row>
double norm(const Row& v) {
  return detail::row_norm(v);
}
inline double norm(const SparseVector& v) { return detail::row_norm(v); }

/// Cosine similarity (0 when either vector is empty/zero).
template <typename RowA, typename RowB>
double cosine(const RowA& a, const RowB& b) {
  return detail::row_cosine(a, b);
}
inline double cosine(const SparseVector& a, const SparseVector& b) {
  return detail::row_cosine(a, b);
}

/// A dynamic collection of sparse rows with a fixed column universe,
/// stored as one CSR pool.
class SparseRows {
 public:
  explicit SparseRows(std::size_t cols) : cols_(cols) {}

  std::size_t rows() const { return extents_.size(); }
  std::size_t cols() const { return cols_; }

  /// Appends a row (normalized on insert); returns its row id.
  std::uint32_t add_row(SparseVector v);

  /// Replaces row content in place (used for "changed data points").
  /// Shrinking replacements reuse the row's pool slot; growing ones
  /// relocate the row to the end of the pool (the old slot becomes a hole
  /// that to_dataset/iteration skip naturally). When dead entries exceed
  /// 25% of live entries the pools are compacted in place.
  void replace_row(std::uint32_t row, SparseVector v);

  /// View of row r.
  ///
  /// LIFETIME CONTRACT: a SparseRowView borrows raw pool pointers and is
  /// invalidated by ANY mutation — add_row (pool reallocation),
  /// replace_row (slot rewrite/relocation, and it may trigger compact()
  /// once holes exceed 25% of live entries), or an explicit compact()
  /// (every extent is rewritten). Callers that interleave mutation with
  /// iteration must re-acquire views after each mutation — the
  /// SynopsisUpdater does all replace_row calls in a sequential phase and
  /// only then takes the views its parallel retraining reads. generation()
  /// observes this: it ticks on every potentially invalidating mutation,
  /// and tests assert stale views are never read across a tick.
  SparseRowView row(std::uint32_t r) const;

  /// Mutation counter for the view-lifetime contract: incremented by
  /// add_row, replace_row and compact. A view taken at generation g must
  /// not be dereferenced once generation() != g.
  std::uint64_t generation() const { return generation_; }

  /// Number of live entries (holes from grown replacements excluded).
  std::size_t total_entries() const { return live_entries_; }

  /// Pool slots currently orphaned by shrinking/relocating replacements.
  std::size_t dead_entries() const { return dead_entries_; }
  /// Total pool slots (live + dead); bounded at 1.25x live by compaction.
  std::size_t pool_entries() const { return col_pool_.size(); }

  /// Rewrites the pools row-contiguously, dropping every hole. All row
  /// extents are rebuilt; outstanding views are invalidated.
  void compact();

  /// Reserves pool capacity for approximately `entries` more entries.
  void reserve_entries(std::size_t entries);

  /// Converts to the CSR/COO form consumed by the incremental SVD.
  linalg::SparseDataset to_dataset() const;

  /// Dataset of a contiguous row span [first, rows()), re-indexed so the
  /// first row becomes row 0 (used for SVD fold-in of appended rows).
  linalg::SparseDataset tail_dataset(std::uint32_t first) const;

  /// tail_dataset(first) without the COO `entries`: the CSR arrays alone,
  /// which are all the SVD, its fold-in and reconstruction_rmse read. Saves
  /// the 16 bytes per entry a build would otherwise hold on to.
  linalg::SparseDataset csr_dataset(std::uint32_t first = 0) const;

 private:
  struct Extent {
    std::size_t off = 0;
    std::uint32_t len = 0;
  };

  linalg::SparseDataset span_dataset(std::uint32_t first,
                                     bool with_entries) const;

  std::size_t cols_;
  std::vector<std::uint32_t> col_pool_;
  std::vector<double> val_pool_;
  std::vector<Extent> extents_;
  std::size_t live_entries_ = 0;
  std::size_t dead_entries_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace at::synopsis
