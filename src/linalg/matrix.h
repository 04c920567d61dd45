// Small dense/sparse linear-algebra types backing the SVD dimensionality
// reduction (synopsis creation step 1).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <vector>

#include "common/artifact.h"

namespace at::linalg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  double& at(std::size_t r, std::size_t c) {
    check(r, c);
    return (*this)(r, c);
  }
  double at(std::size_t r, std::size_t c) const {
    check(r, c);
    return (*this)(r, c);
  }

  /// Pointer to the start of row r (contiguous, cols() doubles).
  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  const std::vector<double>& data() const { return data_; }

  /// Appends a row (must have cols() elements; sets cols on first append).
  void append_row(const std::vector<double>& values);

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_)
      throw std::out_of_range("Matrix index out of range");
  }

  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// One observed cell of a sparse dataset (rating, term count, ...).
struct SparseEntry {
  std::uint32_t row;
  std::uint32_t col;
  double value;
};

/// Sparse dataset with explicit dimensions. This is the input format of the
/// incremental SVD: only observed entries are trained.
///
/// Two interchangeable representations:
///  * `entries` — coordinate format, the hand-construction format;
///  * CSR companions `row_ptr`/`col_idx`/`values` — contiguous row-major
///    arrays that the numeric kernels iterate (cache-friendly, SoA).
/// SparseRows::to_dataset fills both, SparseRows::csr_dataset only CSR;
/// datasets built by hand from `entries` get their CSR form on demand via
/// build_csr(). The numeric kernels read CSR whenever it is present.
struct SparseDataset {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<SparseEntry> entries;

  /// CSR form: row r's entries live at [row_ptr[r], row_ptr[r+1]) in
  /// col_idx/values. Present iff row_ptr.size() == rows + 1.
  std::vector<std::size_t> row_ptr;
  std::vector<std::uint32_t> col_idx;
  std::vector<double> values;

  bool has_csr() const { return row_ptr.size() == rows + 1; }
  std::size_t num_entries() const {
    return has_csr() ? col_idx.size() : entries.size();
  }

  /// Builds the CSR companions from `entries` (stable counting sort by
  /// row: within a row, entry order is preserved). Throws std::out_of_range
  /// on entries outside the declared dimensions.
  void build_csr();

  double density() const {
    const double total = static_cast<double>(rows) * static_cast<double>(cols);
    return total > 0 ? static_cast<double>(num_entries()) / total : 0.0;
  }
};

/// Artifact-store persistence (kind "MATX"): chunked + checksummed, the
/// element column through any of the exact f64 codecs.
void save(std::ostream& os, const Matrix& m,
          common::Codec codec = common::Codec::kShuffle);
Matrix load_matrix(std::istream& is);

/// Dot product via the dispatched SIMD kernels (common/simd.h). The
/// reduction uses a fixed 4-lane decomposition so results are identical in
/// every dispatch tier; for n < 4 it degenerates to the sequential sum.
double dot(const double* a, const double* b, std::size_t n);
double norm2(const double* a, std::size_t n);
/// Euclidean distance between two n-vectors.
double distance(const double* a, const double* b, std::size_t n);

}  // namespace at::linalg
