// Deterministic fixture recipes shared by the ATAC golden files under
// tests/data/golden/ (atac_*_v1.bin) and the byte-stability tests that
// write and load them (tests/artifact_test.cpp).
//
// The golden files hold exactly the objects these recipes build, written
// by the current writers with the codec pinned. The recipes are
// formula-based (no RNG) except for the structure/component fixtures,
// which run the deterministic-mode synopsis build — that path is
// bit-reproducible by contract (tests/perf_equivalence_test.cpp), so a
// fresh build today must equal the bytes decoded from the golden files.
//
// Do NOT change these recipes: they are frozen alongside the files.
#pragma once

#include <algorithm>
#include <cstdint>

#include "linalg/matrix.h"
#include "linalg/svd.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/index_file.h"
#include "synopsis/sparse_rows.h"

namespace at::testing {

/// 12 x 32 rows mixing integral values (quantizable), fractions and
/// values > 255 (both codec exceptions), so every value path is exercised.
inline synopsis::SparseRows golden_rows() {
  synopsis::SparseRows rows(32);
  for (std::uint32_t r = 0; r < 12; ++r) {
    synopsis::SparseVector v;
    for (std::uint32_t k = 0; k < 6; ++k) {
      const std::uint32_t c = (r * 5 + k * 7) % 32;
      double val = static_cast<double>((r + 2) * (k + 1));
      if (k == 1) val += 0.25;      // fractional -> exception entry
      if (k == 2) val = 300.0 + r;  // > 255 -> exception entry
      v.emplace_back(c, val);
    }
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end(),
                        [](const auto& a, const auto& b) {
                          return a.first == b.first;
                        }),
            v.end());
    rows.add_row(std::move(v));
  }
  return rows;
}

inline linalg::Matrix golden_matrix() {
  linalg::Matrix m(5, 4);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      m(r, c) = (static_cast<double>(r) - 2.0) * 1.375 +
                static_cast<double>(c) * 0.0625 - 0.5;
    }
  }
  return m;
}

/// Hand-built model (no training) with biases, so the bias arrays'
/// round-trip is covered too.
inline linalg::SvdModel golden_svd_model() {
  linalg::SvdModel model;
  model.row_factors = linalg::Matrix(6, 3);
  model.col_factors = linalg::Matrix(5, 3);
  for (std::size_t r = 0; r < 6; ++r)
    for (std::size_t d = 0; d < 3; ++d)
      model.row_factors(r, d) =
          0.1 * static_cast<double>(r + 1) - 0.07 * static_cast<double>(d);
  for (std::size_t c = 0; c < 5; ++c)
    for (std::size_t d = 0; d < 3; ++d)
      model.col_factors(c, d) =
          -0.2 + 0.055 * static_cast<double>(c * 3 + d);
  model.global_mean = 3.21875;
  model.row_bias = {0.5, -0.25, 0.125, 0.0, -1.0, 2.5};
  model.col_bias = {-0.5, 0.75, 0.0, 1.5, -0.0625};
  model.train_rmse = 0.8125;
  return model;
}

inline synopsis::IndexFile golden_index_file() {
  return synopsis::IndexFile({{11, 3, {0, 2, 5}},
                              {22, 7, {1, 3, 4}},
                              {35, 1, {6, 7, 8, 9, 10, 11}}});
}

inline synopsis::Synopsis golden_synopsis() {
  synopsis::Synopsis syn;
  synopsis::AggregatedPoint p0;
  p0.node_id = 11;
  p0.member_count = 3;
  p0.features = {{1, 2.5}, {4, 300.0}, {9, 7.0}};
  p0.support = {1, 3, 2};
  synopsis::AggregatedPoint p1;
  p1.node_id = 22;
  p1.member_count = 9;
  p1.features = {{0, 1.0}, {31, 0.125}};
  p1.support = {};
  syn.points.push_back(std::move(p0));
  syn.points.push_back(std::move(p1));
  return syn;
}

inline synopsis::BuildConfig golden_build_config() {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 15;
  // The rows carry values up to ~311; the default 0.01 rate diverges on
  // them, 0.001 trains to finite factors (the fixtures must exercise a
  // *converged* model).
  cfg.svd.learning_rate = 0.001;
  cfg.svd.seed = 7;
  cfg.size_ratio = 4.0;
  cfg.min_groups = 2;
  return cfg;
}

inline synopsis::SynopsisStructure golden_structure() {
  const synopsis::SparseRows rows = golden_rows();
  return synopsis::SynopsisBuilder(golden_build_config()).build(rows);
}

}  // namespace at::testing
