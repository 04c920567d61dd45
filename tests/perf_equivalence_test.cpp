// Equivalence tests for the CSR/parallel/accumulator perf work:
//  * CSR pool storage under SparseRows matches the row-vector semantics;
//  * the SVD is bit-identical run to run, and pool-parallel
//    fold-in/retraining is bit-identical to the sequential order (rows
//    train independently);
//  * the dense-accumulator query scorer reproduces the seed's
//    hash-map/term-at-a-time scorer exactly on randomized corpora.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/svd.h"
#include "services/search/inverted_index.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/sparse_rows.h"
#include "synopsis/updater.h"

namespace at {
namespace {

synopsis::SparseVector random_vector(common::Rng& rng, std::size_t cols,
                                     double fill) {
  synopsis::SparseVector v;
  for (std::size_t c = 0; c < cols; ++c) {
    if (rng.uniform() < fill) {
      v.emplace_back(static_cast<std::uint32_t>(c), 1.0 + rng.uniform(0.0, 4.0));
    }
  }
  return v;
}

synopsis::SparseRows random_rows(std::uint64_t seed, std::size_t n,
                                 std::size_t cols, double fill) {
  common::Rng rng(seed);
  synopsis::SparseRows rows(cols);
  for (std::size_t r = 0; r < n; ++r) rows.add_row(random_vector(rng, cols, fill));
  return rows;
}

// ---------------------------------------------------------------------------
// CSR <-> row-vector equivalence
// ---------------------------------------------------------------------------

TEST(CsrEquivalence, RowViewsMatchInsertedVectors) {
  common::Rng rng(11);
  synopsis::SparseRows rows(64);
  std::vector<synopsis::SparseVector> reference;
  for (int r = 0; r < 50; ++r) {
    auto v = random_vector(rng, 64, 0.3);
    auto copy = v;
    synopsis::normalize(copy);
    reference.push_back(copy);
    rows.add_row(std::move(v));
  }
  ASSERT_EQ(rows.rows(), reference.size());
  for (std::uint32_t r = 0; r < rows.rows(); ++r) {
    EXPECT_EQ(rows.row(r), reference[r]) << "row " << r;
    EXPECT_EQ(rows.row(r).to_vector(), reference[r]);
  }
}

TEST(CsrEquivalence, ReplaceRowShrinkAndGrow) {
  synopsis::SparseRows rows(16);
  rows.add_row({{0, 1.0}, {3, 2.0}, {7, 3.0}});
  rows.add_row({{1, 4.0}, {5, 5.0}});
  const std::size_t before = rows.total_entries();
  EXPECT_EQ(before, 5u);

  // Shrink in place.
  rows.replace_row(0, {{2, 9.0}});
  EXPECT_EQ(rows.total_entries(), 3u);
  EXPECT_DOUBLE_EQ(synopsis::value_at(rows.row(0), 2), 9.0);
  EXPECT_EQ(rows.row(0).size(), 1u);
  // Neighbor row untouched.
  EXPECT_DOUBLE_EQ(synopsis::value_at(rows.row(1), 5), 5.0);

  // Grow (relocates to the pool tail).
  rows.replace_row(0, {{1, 1.0}, {4, 2.0}, {9, 3.0}, {12, 4.0}});
  EXPECT_EQ(rows.total_entries(), 6u);
  EXPECT_EQ(rows.row(0).size(), 4u);
  EXPECT_DOUBLE_EQ(synopsis::value_at(rows.row(0), 12), 4.0);
  EXPECT_DOUBLE_EQ(synopsis::value_at(rows.row(1), 1), 4.0);
}

TEST(CsrEquivalence, CompactionBoundsPoolGrowth) {
  // Repeated grown replacements used to leak the pool (every grow orphaned
  // the old slot); compaction must keep dead slots at <= 25% of live ones
  // and rebuild every extent so views stay valid.
  synopsis::SparseRows rows(64);
  common::Rng rng(17);
  std::vector<synopsis::SparseVector> reference;
  for (int r = 0; r < 20; ++r) {
    auto v = random_vector(rng, 64, 0.2);
    synopsis::normalize(v);
    reference.push_back(v);
    rows.add_row(std::move(v));
  }
  for (int round = 0; round < 40; ++round) {
    const auto r = static_cast<std::uint32_t>(rng.uniform_index(20));
    auto v = random_vector(rng, 64, 0.5);  // denser -> usually grows
    synopsis::normalize(v);
    reference[r] = v;
    rows.replace_row(r, std::move(v));
    ASSERT_LE(rows.dead_entries() * 4, rows.total_entries())
        << "round " << round;
    ASSERT_EQ(rows.pool_entries(), rows.total_entries() + rows.dead_entries());
  }
  // Views read back the latest contents after any number of compactions.
  for (std::uint32_t r = 0; r < rows.rows(); ++r)
    EXPECT_EQ(rows.row(r), reference[r]) << "row " << r;
  rows.compact();
  EXPECT_EQ(rows.dead_entries(), 0u);
  EXPECT_EQ(rows.pool_entries(), rows.total_entries());
  for (std::uint32_t r = 0; r < rows.rows(); ++r)
    EXPECT_EQ(rows.row(r), reference[r]) << "row " << r;
}

TEST(CsrEquivalence, CompactedDatasetMatchesUncompacted) {
  auto rows = random_rows(53, 25, 32, 0.3);
  common::Rng rng(9);
  for (int i = 0; i < 30; ++i) {
    rows.replace_row(static_cast<std::uint32_t>(rng.uniform_index(25)),
                     random_vector(rng, 32, 0.45));
  }
  const auto ds = rows.to_dataset();
  ASSERT_EQ(ds.entries.size(), rows.total_entries());
  for (std::size_t r = 0; r < ds.rows; ++r) {
    const auto rv = rows.row(static_cast<std::uint32_t>(r));
    ASSERT_EQ(rv.size(), ds.row_ptr[r + 1] - ds.row_ptr[r]);
    for (std::size_t i = 0; i < rv.size(); ++i) {
      EXPECT_EQ(rv[i].first, ds.col_idx[ds.row_ptr[r] + i]);
      EXPECT_DOUBLE_EQ(rv[i].second, ds.values[ds.row_ptr[r] + i]);
    }
  }
}

TEST(CsrEquivalence, DatasetCsrMatchesCooAndRowVectors) {
  auto rows = random_rows(23, 40, 32, 0.25);
  // Poke the hole-handling path too.
  rows.replace_row(3, {{0, 1.0}, {1, 1.0}, {2, 1.0}, {30, 1.0},
                       {31, 1.0}, {5, 1.0}, {6, 1.0}, {7, 1.0},
                       {8, 1.0}, {9, 1.0}, {10, 1.0}, {11, 1.0},
                       {12, 1.0}, {13, 1.0}, {14, 1.0}, {15, 1.0},
                       {16, 1.0}, {17, 1.0}, {18, 1.0}, {19, 1.0},
                       {20, 1.0}});

  const auto ds = rows.to_dataset();
  ASSERT_TRUE(ds.has_csr());
  ASSERT_EQ(ds.entries.size(), ds.col_idx.size());
  ASSERT_EQ(ds.entries.size(), rows.total_entries());
  ASSERT_EQ(ds.row_ptr.size(), rows.rows() + 1);

  // COO and CSR describe the same matrix, in the same row-major order.
  std::size_t k = 0;
  for (std::size_t r = 0; r < ds.rows; ++r) {
    for (std::size_t i = ds.row_ptr[r]; i < ds.row_ptr[r + 1]; ++i, ++k) {
      EXPECT_EQ(ds.entries[k].row, r);
      EXPECT_EQ(ds.entries[k].col, ds.col_idx[i]);
      EXPECT_DOUBLE_EQ(ds.entries[k].value, ds.values[i]);
    }
    // And both match the row view.
    const auto rv = rows.row(static_cast<std::uint32_t>(r));
    ASSERT_EQ(rv.size(), ds.row_ptr[r + 1] - ds.row_ptr[r]);
    for (std::size_t i = 0; i < rv.size(); ++i) {
      EXPECT_EQ(rv[i].first, ds.col_idx[ds.row_ptr[r] + i]);
      EXPECT_DOUBLE_EQ(rv[i].second, ds.values[ds.row_ptr[r] + i]);
    }
  }
}

TEST(CsrEquivalence, BuildCsrFromShuffledCooMatchesToDataset) {
  auto rows = random_rows(31, 30, 24, 0.3);
  const auto ds = rows.to_dataset();

  // Rebuild from a shuffled COO copy: build_csr must restore row-major
  // order (stable within a row).
  linalg::SparseDataset shuffled;
  shuffled.rows = ds.rows;
  shuffled.cols = ds.cols;
  shuffled.entries = ds.entries;
  common::Rng rng(7);
  for (std::size_t i = shuffled.entries.size(); i > 1; --i) {
    std::swap(shuffled.entries[i - 1],
              shuffled.entries[rng.uniform_index(i)]);
  }
  // Keep within-row order stable for comparison: sort by (row, col).
  std::sort(shuffled.entries.begin(), shuffled.entries.end(),
            [](const auto& a, const auto& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  shuffled.build_csr();
  ASSERT_TRUE(shuffled.has_csr());
  EXPECT_EQ(shuffled.row_ptr, ds.row_ptr);
  EXPECT_EQ(shuffled.col_idx, ds.col_idx);
  EXPECT_EQ(shuffled.values, ds.values);
}

TEST(CsrEquivalence, TailDatasetReindexesAndReserves) {
  auto rows = random_rows(41, 20, 16, 0.4);
  const auto tail = rows.tail_dataset(15);
  EXPECT_EQ(tail.rows, 5u);
  ASSERT_TRUE(tail.has_csr());
  std::size_t expect = 0;
  for (std::uint32_t r = 15; r < 20; ++r) expect += rows.row(r).size();
  EXPECT_EQ(tail.col_idx.size(), expect);
  EXPECT_GE(tail.entries.capacity(), tail.entries.size());
  for (const auto& e : tail.entries) EXPECT_LT(e.row, 5u);
}

// ---------------------------------------------------------------------------
// Deterministic / parallel SVD
// ---------------------------------------------------------------------------

void expect_same_model(const linalg::SvdModel& a, const linalg::SvdModel& b) {
  ASSERT_EQ(a.row_factors.rows(), b.row_factors.rows());
  ASSERT_EQ(a.row_factors.cols(), b.row_factors.cols());
  for (std::size_t r = 0; r < a.row_factors.rows(); ++r)
    for (std::size_t d = 0; d < a.row_factors.cols(); ++d)
      ASSERT_EQ(a.row_factors(r, d), b.row_factors(r, d))
          << "row factor (" << r << "," << d << ")";
  ASSERT_EQ(a.col_factors.rows(), b.col_factors.rows());
  for (std::size_t r = 0; r < a.col_factors.rows(); ++r)
    for (std::size_t d = 0; d < a.col_factors.cols(); ++d)
      ASSERT_EQ(a.col_factors(r, d), b.col_factors(r, d))
          << "col factor (" << r << "," << d << ")";
  ASSERT_EQ(a.row_bias, b.row_bias);
  ASSERT_EQ(a.col_bias, b.col_bias);
  ASSERT_EQ(a.global_mean, b.global_mean);
}

TEST(ParallelSvd, TrainingTwiceIsBitIdentical) {
  auto rows = random_rows(5, 80, 40, 0.2);
  const auto ds = rows.to_dataset();
  for (bool biases : {false, true}) {
    linalg::SvdConfig cfg;
    cfg.rank = 3;
    cfg.epochs_per_dim = 25;
    cfg.use_biases = biases;

    const auto first = linalg::incremental_svd(ds, cfg);
    const auto second = linalg::incremental_svd(ds, cfg);
    expect_same_model(first, second);
    EXPECT_EQ(first.train_rmse, second.train_rmse);
  }
}

TEST(ParallelSvd, FoldInParallelBitIdenticalToSequential) {
  auto rows = random_rows(6, 60, 30, 0.25);
  linalg::SvdConfig cfg;
  cfg.rank = 3;
  cfg.epochs_per_dim = 20;

  const auto base = linalg::incremental_svd(rows.to_dataset(), cfg);
  common::Rng rng(99);
  synopsis::SparseRows grown_rows = rows;
  const auto first_new = static_cast<std::uint32_t>(grown_rows.rows());
  for (int i = 0; i < 12; ++i) grown_rows.add_row(random_vector(rng, 30, 0.3));
  const auto tail = grown_rows.tail_dataset(first_new);

  auto seq_model = base;
  linalg::fold_in_rows(seq_model, tail, cfg, nullptr);

  auto par_model = base;
  common::ThreadPool pool(4);
  linalg::fold_in_rows(par_model, tail, cfg, &pool);

  expect_same_model(seq_model, par_model);
}

TEST(ParallelSvd, UpdaterParallelMatchesSequential) {
  auto rows = random_rows(8, 90, 36, 0.22);
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 30;
  cfg.size_ratio = 10.0;

  auto make_batch = [] {
    synopsis::UpdateBatch batch;
    common::Rng rng(123);
    for (int i = 0; i < 6; ++i) batch.added.push_back(random_vector(rng, 36, 0.3));
    for (int i = 0; i < 8; ++i) {
      batch.changed.emplace_back(
          static_cast<std::uint32_t>(rng.uniform_index(90)),
          random_vector(rng, 36, 0.3));
    }
    return batch;
  };

  synopsis::SynopsisUpdater updater(cfg);

  auto data_a = rows;
  auto s_a = synopsis::SynopsisBuilder(cfg).build(data_a);
  auto syn_a = synopsis::aggregate_all(data_a, s_a.index,
                                       synopsis::AggregationKind::kMean);
  updater.apply(s_a, data_a, syn_a, make_batch(),
                synopsis::AggregationKind::kMean, nullptr);

  auto data_b = rows;
  auto s_b = synopsis::SynopsisBuilder(cfg).build(data_b);
  auto syn_b = synopsis::aggregate_all(data_b, s_b.index,
                                       synopsis::AggregationKind::kMean);
  common::ThreadPool pool(4);
  updater.apply(s_b, data_b, syn_b, make_batch(),
                synopsis::AggregationKind::kMean, &pool);

  expect_same_model(s_a.svd, s_b.svd);
  ASSERT_EQ(s_a.index.size(), s_b.index.size());
  for (std::size_t g = 0; g < s_a.index.size(); ++g) {
    EXPECT_EQ(s_a.index.groups()[g].members, s_b.index.groups()[g].members);
  }
  ASSERT_EQ(syn_a.size(), syn_b.size());
  for (std::size_t g = 0; g < syn_a.size(); ++g) {
    EXPECT_EQ(syn_a.points[g].features, syn_b.points[g].features);
  }
}

// ---------------------------------------------------------------------------
// Accumulator scorer vs the seed's hash-map scorer
// ---------------------------------------------------------------------------

/// The seed implementation of score_query, verbatim semantics: hash-map
/// accumulation per posting in term order, then emit positive scores.
std::vector<search::ScoredDoc> seed_score_query(
    const search::InvertedIndex& idx, const std::vector<std::uint32_t>& terms,
    std::uint64_t base) {
  auto term_doc_score = [&](double tf, double idf, double doc_len) {
    if (tf <= 0.0 || idf <= 0.0) return 0.0;
    if (idx.scorer().scorer == search::Scorer::kBm25) {
      const double k1 = idx.scorer().bm25_k1;
      const double b = idx.scorer().bm25_b;
      const double avg =
          idx.mean_doc_length() > 0.0 ? idx.mean_doc_length() : 1.0;
      const double norm = k1 * (1.0 - b + b * doc_len / avg);
      return idf * (tf * (k1 + 1.0)) / (tf + norm);
    }
    const double len_norm = doc_len > 0.0 ? 1.0 / std::sqrt(doc_len) : 0.0;
    return std::sqrt(tf) * idf * len_norm;
  };
  std::unordered_map<std::uint32_t, double> acc;
  for (auto term : terms) {
    const double w = idx.idf(term);
    if (w <= 0.0) continue;
    for (const auto& p : idx.postings(term)) {
      acc[p.doc] += term_doc_score(p.tf, w, idx.doc_length(p.doc));
    }
  }
  std::vector<search::ScoredDoc> out;
  out.reserve(acc.size());
  for (const auto& [doc, score] : acc) {
    if (score <= 0.0) continue;
    out.push_back(search::ScoredDoc{score, base + doc});
  }
  return out;
}

void sort_by_doc(std::vector<search::ScoredDoc>& v) {
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.doc < b.doc; });
}

TEST(AccumulatorScorer, MatchesSeedScorerOnRandomCorpora) {
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    for (auto scorer : {search::Scorer::kTfIdf, search::Scorer::kBm25}) {
      auto docs = random_rows(seed, 60, 80, 0.15);
      search::ScorerParams params;
      params.scorer = scorer;
      search::InvertedIndex idx(docs, params);

      common::Rng rng(seed * 7);
      for (int q = 0; q < 25; ++q) {
        std::vector<std::uint32_t> terms;
        const std::size_t len = 1 + rng.uniform_index(5);
        for (std::size_t t = 0; t < len; ++t) {
          // Mix in out-of-vocabulary terms.
          terms.push_back(static_cast<std::uint32_t>(rng.uniform_index(90)));
        }
        auto expected = seed_score_query(idx, terms, 1000);
        std::vector<search::ScoredDoc> got;
        idx.score_query(terms, 1000, got);
        sort_by_doc(expected);
        sort_by_doc(got);
        ASSERT_EQ(got.size(), expected.size())
            << "seed " << seed << " query " << q;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].doc, expected[i].doc);
          EXPECT_DOUBLE_EQ(got[i].score, expected[i].score);
        }
        // Fused top-k equals "seed scoring then TopK".
        search::TopK ref_top(10);
        for (const auto& d : expected) ref_top.offer(d);
        const auto ref = ref_top.take();
        const auto fused = idx.topk(terms, 1000, 10);
        ASSERT_EQ(fused.size(), ref.size());
        for (std::size_t i = 0; i < fused.size(); ++i) {
          EXPECT_EQ(fused[i].doc, ref[i].doc);
          EXPECT_DOUBLE_EQ(fused[i].score, ref[i].score);
        }
      }
    }
  }
}

TEST(AccumulatorScorer, ScratchReuseAcrossDifferentIndexSizes) {
  // The thread-local scratch must resize/invalidate correctly when the
  // same thread scores against indexes of different doc counts.
  auto small = random_rows(1, 10, 20, 0.4);
  auto large = random_rows(2, 200, 20, 0.2);
  search::InvertedIndex idx_small(small);
  search::InvertedIndex idx_large(large);
  const std::vector<std::uint32_t> q{0, 1, 2, 3};
  for (int round = 0; round < 3; ++round) {
    auto a = seed_score_query(idx_large, q, 0);
    std::vector<search::ScoredDoc> b;
    idx_large.score_query(q, 0, b);
    sort_by_doc(a);
    sort_by_doc(b);
    ASSERT_EQ(a.size(), b.size());
    auto c = seed_score_query(idx_small, q, 0);
    std::vector<search::ScoredDoc> d;
    idx_small.score_query(q, 0, d);
    sort_by_doc(c);
    sort_by_doc(d);
    ASSERT_EQ(c.size(), d.size());
    for (std::size_t i = 0; i < c.size(); ++i)
      EXPECT_DOUBLE_EQ(c[i].score, d[i].score);
  }
}

}  // namespace
}  // namespace at
