#include "linalg/matrix.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/artifact.h"
#include "common/simd.h"

namespace at::linalg {

void Matrix::append_row(const std::vector<double>& values) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = values.size();
  } else if (values.size() != cols_) {
    throw std::invalid_argument("Matrix::append_row: width mismatch");
  }
  data_.insert(data_.end(), values.begin(), values.end());
  ++rows_;
}

void SparseDataset::build_csr() {
  for (const auto& e : entries) {
    if (e.row >= rows || e.col >= cols)
      throw std::out_of_range(
          "SparseDataset::build_csr: entry outside dataset dims");
  }
  row_ptr.assign(rows + 1, 0);
  for (const auto& e : entries) ++row_ptr[e.row + 1];
  for (std::size_t r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];
  col_idx.resize(entries.size());
  values.resize(entries.size());
  std::vector<std::size_t> fill(row_ptr.begin(), row_ptr.end() - 1);
  for (const auto& e : entries) {
    const std::size_t slot = fill[e.row]++;
    col_idx[slot] = e.col;
    values[slot] = e.value;
  }
}

namespace {
/// Untrusted-dimension guard: rows * cols must not wrap (a wrapped
/// product would pass the element-count check and then index out of
/// bounds of the undersized storage).
void check_loaded_dims(std::size_t rows, std::size_t cols) {
  if (cols != 0 && rows > std::numeric_limits<std::size_t>::max() / cols)
    throw std::runtime_error("load_matrix: dimensions overflow");
}
}  // namespace

void save(std::ostream& os, const Matrix& m, common::Codec codec) {
  common::ArtifactWriter w(os, "MATX", 1);
  common::ChunkWriter meta;
  meta.u64(m.rows());
  meta.u64(m.cols());
  w.chunk("META", meta);
  common::ChunkWriter data;
  data.f64_column(m.data().data(), m.data().size(), codec);
  w.chunk("DATA", data);
  w.finish();
}

Matrix load_matrix(std::istream& is) {
  common::ArtifactReader r(is, "MATX");
  if (r.version() != 1)
    throw common::ArtifactError("load_matrix: unsupported version");
  common::ChunkReader meta = r.chunk("META");
  const auto rows = static_cast<std::size_t>(meta.u64());
  const auto cols = static_cast<std::size_t>(meta.u64());
  meta.expect_consumed();
  check_loaded_dims(rows, cols);
  common::ChunkReader data = r.chunk("DATA");
  const std::vector<double> values = data.vec_f64();
  data.expect_consumed();
  r.finish();
  if (values.size() != rows * cols)
    throw common::ArtifactError("load_matrix: element count mismatch");
  Matrix m(rows, cols);
  if (!values.empty())
    std::memcpy(m.row(0), values.data(), values.size() * sizeof(double));
  return m;
}

double dot(const double* a, const double* b, std::size_t n) {
  return simd::dot(a, b, n);
}

double norm2(const double* a, std::size_t n) {
  return std::sqrt(dot(a, a, n));
}

double distance(const double* a, const double* b, std::size_t n) {
  return std::sqrt(simd::distance_sq(a, b, n));
}

}  // namespace at::linalg
