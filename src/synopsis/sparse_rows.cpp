#include "synopsis/sparse_rows.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace at::synopsis {

bool operator==(const SparseRowView& a, const SparseRowView& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.cols()[i] != b.cols()[i] || a.vals()[i] != b.vals()[i]) return false;
  }
  return true;
}

bool operator==(const SparseRowView& a, const SparseVector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.cols()[i] != b[i].first || a.vals()[i] != b[i].second) return false;
  }
  return true;
}

void normalize(SparseVector& v) {
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  SparseVector merged;
  merged.reserve(v.size());
  for (const auto& [c, val] : v) {
    if (!merged.empty() && merged.back().first == c) {
      merged.back().second += val;
    } else {
      merged.emplace_back(c, val);
    }
  }
  v = std::move(merged);
}

std::uint32_t SparseRows::add_row(SparseVector v) {
  normalize(v);
  if (!v.empty() && v.back().first >= cols_)
    throw std::out_of_range("SparseRows::add_row: column out of range");
  // No exact-size reserve here: push_back's geometric growth keeps a long
  // sequence of add_row calls amortized O(1) per entry. Bulk callers that
  // know their size use reserve_entries() up front.
  Extent e{col_pool_.size(), static_cast<std::uint32_t>(v.size())};
  for (const auto& [c, val] : v) {
    col_pool_.push_back(c);
    val_pool_.push_back(val);
  }
  extents_.push_back(e);
  live_entries_ += v.size();
  ++generation_;  // pool may have reallocated: outstanding views are stale
  return static_cast<std::uint32_t>(extents_.size() - 1);
}

void SparseRows::replace_row(std::uint32_t row, SparseVector v) {
  normalize(v);
  if (!v.empty() && v.back().first >= cols_)
    throw std::out_of_range("SparseRows::replace_row: column out of range");
  if (row >= extents_.size())
    throw std::out_of_range("SparseRows::replace_row: row out of range");
  Extent& e = extents_[row];
  live_entries_ -= e.len;
  if (v.size() <= e.len) {
    // In-place shrink: the unused slot tail is dead for good (slot
    // capacity is not tracked, so a later grow relocates anyway).
    dead_entries_ += e.len - v.size();
    for (std::size_t i = 0; i < v.size(); ++i) {
      col_pool_[e.off + i] = v[i].first;
      val_pool_[e.off + i] = v[i].second;
    }
    e.len = static_cast<std::uint32_t>(v.size());
  } else {
    dead_entries_ += e.len;  // the whole old slot becomes a hole
    e.off = col_pool_.size();
    e.len = static_cast<std::uint32_t>(v.size());
    for (const auto& [c, val] : v) {
      col_pool_.push_back(c);
      val_pool_.push_back(val);
    }
  }
  live_entries_ += v.size();
  ++generation_;  // slot rewritten or relocated: outstanding views are stale
  // ROADMAP "Hole compaction": reclaim once holes exceed 25% of the live
  // payload, so repeated grown replacements can't leak the pool unbounded.
  // Note this makes replace_row a potential whole-pool rewrite: views of
  // *other* rows do not survive it either (see the row() contract).
  if (dead_entries_ * 4 > live_entries_) compact();
}

void SparseRows::compact() {
  if (dead_entries_ == 0) return;
  ++generation_;  // every extent is about to move
  std::vector<std::uint32_t> cols;
  std::vector<double> vals;
  cols.reserve(live_entries_);
  vals.reserve(live_entries_);
  for (Extent& e : extents_) {
    const std::size_t off = cols.size();
    cols.insert(cols.end(), col_pool_.begin() + e.off,
                col_pool_.begin() + e.off + e.len);
    vals.insert(vals.end(), val_pool_.begin() + e.off,
                val_pool_.begin() + e.off + e.len);
    e.off = off;
  }
  col_pool_ = std::move(cols);
  val_pool_ = std::move(vals);
  dead_entries_ = 0;
  // Every extent was rewritten above; any stale one would now read past
  // the shrunken pool.
  assert(col_pool_.size() == live_entries_);
}

SparseRowView SparseRows::row(std::uint32_t r) const {
  const Extent& e = extents_.at(r);
  return SparseRowView(col_pool_.data() + e.off, val_pool_.data() + e.off,
                       e.len);
}

void SparseRows::reserve_entries(std::size_t entries) {
  col_pool_.reserve(col_pool_.size() + entries);
  val_pool_.reserve(val_pool_.size() + entries);
}

linalg::SparseDataset SparseRows::span_dataset(std::uint32_t first,
                                               bool with_entries) const {
  if (first > extents_.size())
    throw std::out_of_range("SparseRows: dataset span starts past the rows");
  linalg::SparseDataset ds;
  ds.rows = extents_.size() - first;
  ds.cols = cols_;
  std::size_t n = 0;
  for (std::size_t r = first; r < extents_.size(); ++r) n += extents_[r].len;
  if (with_entries) ds.entries.reserve(n);
  ds.row_ptr.reserve(ds.rows + 1);
  ds.col_idx.reserve(n);
  ds.values.reserve(n);
  ds.row_ptr.push_back(0);
  for (std::size_t r = first; r < extents_.size(); ++r) {
    const Extent& e = extents_[r];
    if (with_entries) {
      const auto local = static_cast<std::uint32_t>(r - first);
      for (std::uint32_t i = 0; i < e.len; ++i)
        ds.entries.push_back(
            {local, col_pool_[e.off + i], val_pool_[e.off + i]});
    }
    ds.col_idx.insert(ds.col_idx.end(), col_pool_.begin() + e.off,
                      col_pool_.begin() + e.off + e.len);
    ds.values.insert(ds.values.end(), val_pool_.begin() + e.off,
                     val_pool_.begin() + e.off + e.len);
    ds.row_ptr.push_back(ds.col_idx.size());
  }
  return ds;
}

linalg::SparseDataset SparseRows::to_dataset() const {
  return span_dataset(0, true);
}

linalg::SparseDataset SparseRows::tail_dataset(std::uint32_t first) const {
  return span_dataset(first, true);
}

linalg::SparseDataset SparseRows::csr_dataset(std::uint32_t first) const {
  return span_dataset(first, false);
}

}  // namespace at::synopsis
