// SIMD dispatch layer tests: tier selection/override plumbing, kernel-level
// bit-parity of every dispatched kernel against the scalar reference, and
// the end-to-end parity matrix the ISSUE requires — tf-idf/BM25 top-k,
// fold-in and deterministic-SVD factors bit-identical across every
// dispatch tier the hardware supports.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "linalg/svd.h"
#include "services/search/inverted_index.h"
#include "services/search/postings_codec.h"
#include "synopsis/sparse_rows.h"

namespace at {
namespace {

/// Tiers the running hardware can execute, scalar first.
std::vector<simd::Tier> tiers_under_test() {
  std::vector<simd::Tier> tiers{simd::Tier::kScalar};
  const simd::Tier max = simd::max_supported_tier();
  if (max >= simd::Tier::kAvx2) tiers.push_back(simd::Tier::kAvx2);
  return tiers;
}

/// Restores the entry tier so test order cannot leak a forced tier.
class TierGuard {
 public:
  TierGuard() : prev_(simd::active_tier()) {}
  ~TierGuard() { simd::set_tier(prev_); }

 private:
  simd::Tier prev_;
};

synopsis::SparseVector random_vector(common::Rng& rng, std::size_t cols,
                                     double fill) {
  synopsis::SparseVector v;
  for (std::size_t c = 0; c < cols; ++c) {
    if (rng.uniform() < fill) {
      v.emplace_back(static_cast<std::uint32_t>(c),
                     1.0 + rng.uniform(0.0, 4.0));
    }
  }
  return v;
}

synopsis::SparseRows random_rows(std::uint64_t seed, std::size_t n,
                                 std::size_t cols, double fill) {
  common::Rng rng(seed);
  synopsis::SparseRows rows(cols);
  for (std::size_t r = 0; r < n; ++r)
    rows.add_row(random_vector(rng, cols, fill));
  return rows;
}

// ---------------------------------------------------------------------------
// Tier plumbing
// ---------------------------------------------------------------------------

TEST(SimdTier, ParseTierSpecs) {
  simd::Tier t;
  EXPECT_TRUE(simd::parse_tier("scalar", &t));
  EXPECT_EQ(t, simd::Tier::kScalar);
  EXPECT_TRUE(simd::parse_tier("AVX2", &t));
  EXPECT_EQ(t, simd::Tier::kAvx2);
  EXPECT_TRUE(simd::parse_tier("auto", &t));
  EXPECT_EQ(t, simd::max_supported_tier());
  EXPECT_FALSE(simd::parse_tier("avx512", &t));
  // There is no SSE4.2 tier: its spec is unrecognized, so AT_SIMD=sse42
  // warns and keeps the default instead of silently selecting a tier.
  EXPECT_FALSE(simd::parse_tier("sse42", &t));
  EXPECT_FALSE(simd::parse_tier("SSE4.2", &t));
  EXPECT_FALSE(simd::parse_tier(nullptr, &t));
}

TEST(SimdTier, SetTierClampsAndReports) {
  TierGuard guard;
  EXPECT_EQ(simd::set_tier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  // Requests above hardware support clamp down to the supported maximum.
  const simd::Tier applied = simd::set_tier(simd::Tier::kAvx2);
  EXPECT_EQ(applied, std::min(simd::Tier::kAvx2, simd::max_supported_tier()));
  EXPECT_EQ(simd::active_tier(), applied);
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
}

// ---------------------------------------------------------------------------
// Kernel-level bit parity vs the scalar reference
// ---------------------------------------------------------------------------

TEST(SimdKernels, DotAndDistanceBitIdenticalAcrossTiers) {
  TierGuard guard;
  common::Rng rng(11);
  for (std::size_t n : {0u, 1u, 3u, 4u, 5u, 7u, 8u, 31u, 64u, 1000u}) {
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.uniform(-3.0, 3.0);
      b[i] = rng.uniform(-3.0, 3.0);
    }
    simd::set_tier(simd::Tier::kScalar);
    const double ref_dot = simd::dot(a.data(), b.data(), n);
    const double ref_dist = simd::distance_sq(a.data(), b.data(), n);
    for (simd::Tier t : tiers_under_test()) {
      simd::set_tier(t);
      EXPECT_EQ(simd::dot(a.data(), b.data(), n), ref_dot)
          << "n=" << n << " tier=" << simd::tier_name(t);
      EXPECT_EQ(simd::distance_sq(a.data(), b.data(), n), ref_dist)
          << "n=" << n << " tier=" << simd::tier_name(t);
    }
  }
}

TEST(SimdKernels, ElementwiseKernelsBitIdenticalAcrossTiers) {
  TierGuard guard;
  common::Rng rng(22);
  const std::size_t n = 257;  // odd length exercises every tail path
  const std::size_t docs_universe = 400;
  std::vector<double> sqrt_tf(n), tf(n), dl(docs_universe),
      len_norm(docs_universe), bm25_norm(docs_universe);
  std::vector<std::uint32_t> docs(n), cols(n);
  std::vector<std::uint8_t> codes(n);
  std::vector<double> lut(256);
  const std::size_t rank = 3;
  std::vector<double> factors(600 * rank);
  std::vector<double> resid0(n);
  for (std::size_t i = 0; i < n; ++i) {
    sqrt_tf[i] = rng.uniform(0.1, 16.0);
    tf[i] = rng.uniform(0.1, 300.0);
    docs[i] = static_cast<std::uint32_t>(rng.uniform_index(docs_universe));
    cols[i] = static_cast<std::uint32_t>(rng.uniform_index(600));
    codes[i] = static_cast<std::uint8_t>(rng.uniform_index(256));
    resid0[i] = rng.uniform(-2.0, 2.0);
  }
  for (std::size_t d = 0; d < docs_universe; ++d) {
    dl[d] = d % 17 == 0 ? 0.0 : rng.uniform(1.0, 900.0);
  }
  for (std::size_t i = 0; i < lut.size(); ++i)
    lut[i] = std::sqrt(static_cast<double>(i));
  for (auto& f : factors) f = rng.uniform(-1.0, 1.0);

  struct Out {
    std::vector<double> len_norm, bm25_norm, tfidf, bm25, lut_out, conv,
        resid, tfidf_codes, bm25_codes;
  };
  auto run = [&](simd::Tier t) {
    simd::set_tier(t);
    Out o;
    o.len_norm.resize(docs_universe);
    o.bm25_norm.resize(docs_universe);
    o.tfidf.resize(n);
    o.bm25.resize(n);
    o.lut_out.resize(n);
    o.conv.resize(n);
    o.resid = resid0;
    simd::inv_sqrt_or_zero(o.len_norm.data(), dl.data(), docs_universe);
    simd::bm25_doc_norms(o.bm25_norm.data(), dl.data(), 1.2, 0.75, 117.3,
                         docs_universe);
    simd::score_tfidf(o.tfidf.data(), sqrt_tf.data(), docs.data(),
                      o.len_norm.data(), 2.7, n);
    simd::score_bm25(o.bm25.data(), tf.data(), docs.data(),
                     o.bm25_norm.data(), 2.7, 2.2, n);
    simd::expand_lut_u8(o.lut_out.data(), codes.data(), lut.data(), n);
    simd::u8_to_f64(o.conv.data(), codes.data(), n);
    simd::retire_axpy(o.resid.data(), cols.data(), n, factors.data(), rank,
                      1, 0.37);
    o.tfidf_codes.resize(n);
    o.bm25_codes.resize(n);
    simd::score_tfidf_codes(o.tfidf_codes.data(), codes.data(), lut.data(),
                            docs.data(), o.len_norm.data(), 2.7, n);
    simd::score_bm25_codes(o.bm25_codes.data(), codes.data(), docs.data(),
                           o.bm25_norm.data(), 2.7, 2.2, n);
    return o;
  };

  const Out ref = run(simd::Tier::kScalar);
  for (simd::Tier t : tiers_under_test()) {
    const Out got = run(t);
    EXPECT_EQ(got.len_norm, ref.len_norm) << simd::tier_name(t);
    EXPECT_EQ(got.bm25_norm, ref.bm25_norm) << simd::tier_name(t);
    EXPECT_EQ(got.tfidf, ref.tfidf) << simd::tier_name(t);
    EXPECT_EQ(got.bm25, ref.bm25) << simd::tier_name(t);
    EXPECT_EQ(got.lut_out, ref.lut_out) << simd::tier_name(t);
    EXPECT_EQ(got.conv, ref.conv) << simd::tier_name(t);
    EXPECT_EQ(got.resid, ref.resid) << simd::tier_name(t);
    EXPECT_EQ(got.tfidf_codes, ref.tfidf_codes) << simd::tier_name(t);
    EXPECT_EQ(got.bm25_codes, ref.bm25_codes) << simd::tier_name(t);
  }

  // The fused code-path kernels must equal their two-step composition
  // bit for bit (that is what lets accumulate() pick either per block).
  simd::set_tier(simd::Tier::kScalar);
  std::vector<double> two_step(n);
  std::vector<double> staged(n);
  simd::expand_lut_u8(staged.data(), codes.data(), lut.data(), n);
  simd::score_tfidf(two_step.data(), staged.data(), docs.data(),
                    ref.len_norm.data(), 2.7, n);
  EXPECT_EQ(two_step, ref.tfidf_codes);
  simd::u8_to_f64(staged.data(), codes.data(), n);
  simd::score_bm25(two_step.data(), staged.data(), docs.data(),
                   ref.bm25_norm.data(), 2.7, 2.2, n);
  EXPECT_EQ(two_step, ref.bm25_codes);
}

TEST(SimdKernels, GroupVarintDecodeMatchesScalarAcrossTiers) {
  TierGuard guard;
  common::Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    // Group counts not divisible by 4 exercise the zero-padded tail quad.
    const std::size_t n = 1 + rng.uniform_index(128);
    std::vector<std::uint32_t> deltas(n);
    for (std::size_t i = 0; i < n; ++i) {
      switch (rng.uniform_index(4)) {
        case 0:
          deltas[i] = static_cast<std::uint32_t>(rng.uniform_index(256));
          break;
        case 1:
          deltas[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 16));
          break;
        case 2:
          deltas[i] = static_cast<std::uint32_t>(rng.uniform_index(1u << 24));
          break;
        default:
          deltas[i] = static_cast<std::uint32_t>(
              rng.uniform_index(0xFFFFFFFFu));
      }
    }
    std::vector<std::uint8_t> buf;
    for (std::size_t i = 0; i < n; i += 4) {
      std::uint32_t quad[4] = {0, 0, 0, 0};
      for (std::size_t j = 0; j < 4 && i + j < n; ++j) quad[j] = deltas[i + j];
      search::codec::put_group4(buf, quad);
    }
    const std::size_t payload = buf.size();
    buf.resize(buf.size() + simd::kDecodePadBytes, 0);  // SIMD load slack

    std::vector<std::uint32_t> ref_ids((n + 3) & ~std::size_t{3});
    simd::set_tier(simd::Tier::kScalar);
    std::uint32_t ref_prev = 71;
    const std::uint8_t* ref_end = simd::decode_group_deltas(
        buf.data(), ref_ids.data(), &ref_prev, n);
    EXPECT_EQ(ref_end, buf.data() + payload);

    for (simd::Tier t : tiers_under_test()) {
      simd::set_tier(t);
      std::vector<std::uint32_t> ids((n + 3) & ~std::size_t{3});
      std::uint32_t prev = 71;
      const std::uint8_t* end =
          simd::decode_group_deltas(buf.data(), ids.data(), &prev, n);
      EXPECT_EQ(end, ref_end) << simd::tier_name(t);
      EXPECT_EQ(prev, ref_prev) << simd::tier_name(t);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ids[i], ref_ids[i])
            << "trial " << trial << " i " << i << " " << simd::tier_name(t);
      }
    }
  }
}

TEST(SimdKernels, U8DeltaDecodeMatchesScalarAcrossTiers) {
  TierGuard guard;
  common::Rng rng(44);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(128);  // tails included
    std::vector<std::uint8_t> buf(n);
    for (auto& d : buf) d = static_cast<std::uint8_t>(rng.uniform_index(256));
    const std::size_t payload = buf.size();
    buf.resize(buf.size() + simd::kDecodePadBytes, 0xAB);  // poisoned pad

    simd::set_tier(simd::Tier::kScalar);
    std::vector<std::uint32_t> ref_ids((n + 3) & ~std::size_t{3});
    std::uint32_t ref_prev = 19;
    const std::uint8_t* ref_end =
        simd::decode_u8_deltas(buf.data(), ref_ids.data(), &ref_prev, n);
    EXPECT_EQ(ref_end, buf.data() + payload);

    for (simd::Tier t : tiers_under_test()) {
      simd::set_tier(t);
      std::vector<std::uint32_t> ids((n + 3) & ~std::size_t{3});
      std::uint32_t prev = 19;
      const std::uint8_t* end =
          simd::decode_u8_deltas(buf.data(), ids.data(), &prev, n);
      EXPECT_EQ(end, ref_end) << simd::tier_name(t);
      // The poisoned pad proves tail bytes beyond n never leak into the
      // running prev (the SIMD tail quad must mask them out).
      EXPECT_EQ(prev, ref_prev) << simd::tier_name(t);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(ids[i], ref_ids[i])
            << "trial " << trial << " i " << i << " " << simd::tier_name(t);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end parity matrix: top-k, deterministic SVD, fold-in
// ---------------------------------------------------------------------------

TEST(SimdParityMatrix, TopKBitIdenticalInEveryTier) {
  TierGuard guard;
  for (auto scorer : {search::Scorer::kTfIdf, search::Scorer::kBm25}) {
    // Reference pipeline at the scalar tier: build + score.
    simd::set_tier(simd::Tier::kScalar);
    auto docs = random_rows(404, 120, 90, 0.15);
    search::ScorerParams params;
    params.scorer = scorer;
    search::InvertedIndex ref_idx(docs, params);

    common::Rng qrng(5);
    std::vector<std::vector<std::uint32_t>> queries;
    for (int q = 0; q < 30; ++q) {
      std::vector<std::uint32_t> terms;
      const std::size_t len = 1 + qrng.uniform_index(5);
      for (std::size_t t = 0; t < len; ++t) {
        terms.push_back(static_cast<std::uint32_t>(qrng.uniform_index(100)));
      }
      queries.push_back(std::move(terms));
    }
    std::vector<std::vector<search::ScoredDoc>> ref;
    for (const auto& q : queries) ref.push_back(ref_idx.topk(q, 500, 10));

    for (simd::Tier t : tiers_under_test()) {
      simd::set_tier(t);
      // Rebuild under the tier too: index construction (norm passes) must
      // be as bit-stable as the query path.
      search::InvertedIndex idx(docs, params);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto got = idx.topk(queries[q], 500, 10);
        ASSERT_EQ(got.size(), ref[q].size()) << simd::tier_name(t);
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].doc, ref[q][i].doc)
              << "query " << q << " " << simd::tier_name(t);
          EXPECT_EQ(got[i].score, ref[q][i].score)  // bit-exact
              << "query " << q << " " << simd::tier_name(t);
        }
      }
    }
  }
}

void expect_same_model(const linalg::SvdModel& a, const linalg::SvdModel& b,
                       const char* label) {
  ASSERT_EQ(a.row_factors.rows(), b.row_factors.rows()) << label;
  ASSERT_EQ(a.row_factors.cols(), b.row_factors.cols()) << label;
  for (std::size_t r = 0; r < a.row_factors.rows(); ++r)
    for (std::size_t d = 0; d < a.row_factors.cols(); ++d)
      ASSERT_EQ(a.row_factors(r, d), b.row_factors(r, d))
          << label << " row factor (" << r << "," << d << ")";
  for (std::size_t r = 0; r < a.col_factors.rows(); ++r)
    for (std::size_t d = 0; d < a.col_factors.cols(); ++d)
      ASSERT_EQ(a.col_factors(r, d), b.col_factors(r, d))
          << label << " col factor (" << r << "," << d << ")";
  ASSERT_EQ(a.train_rmse, b.train_rmse) << label;
}

TEST(SimdParityMatrix, DeterministicSvdAndFoldInBitIdenticalInEveryTier) {
  TierGuard guard;
  auto rows = random_rows(606, 80, 40, 0.2);
  const auto ds = rows.to_dataset();
  linalg::SvdConfig cfg;
  cfg.rank = 3;
  cfg.epochs_per_dim = 25;

  // Fold-in input: a dozen appended rows.
  auto grown = rows;
  const auto first_new = static_cast<std::uint32_t>(grown.rows());
  common::Rng rng(99);
  for (int i = 0; i < 12; ++i) grown.add_row(random_vector(rng, 40, 0.3));
  const auto tail = grown.tail_dataset(first_new);

  simd::set_tier(simd::Tier::kScalar);
  const auto ref = linalg::incremental_svd(ds, cfg);
  auto ref_folded = ref;
  linalg::fold_in_rows(ref_folded, tail, cfg);

  for (simd::Tier t : tiers_under_test()) {
    simd::set_tier(t);
    const auto got = linalg::incremental_svd(ds, cfg);
    expect_same_model(got, ref, simd::tier_name(t));
    auto folded = got;
    linalg::fold_in_rows(folded, tail, cfg);
    expect_same_model(folded, ref_folded, simd::tier_name(t));
  }
}

}  // namespace
}  // namespace at
