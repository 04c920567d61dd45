// AVX2 kernel tier. Compiled with -mavx2 (CMake sets the flag on this file
// only). FMA is deliberately NOT enabled: fused multiply-adds round once
// where the scalar reference rounds twice, and the layer's contract is
// bit-identical results in every tier. The group-varint and u8-delta
// decoders, crc32c and the byte shuffle are 128-bit kernels.
#include "common/simd_internal.h"

#if AT_SIMD_X86 && defined(__AVX2__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace at::simd::detail {
namespace {

constexpr bool kHaveAvx2 = true;

/// Full-width gather via the masked form: the plain _mm256_i32gather_pd
/// leaves its pass-through operand formally uninitialized, which trips
/// -Wmaybe-uninitialized inside GCC's intrinsic header.
inline __m256d gather_pd(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

inline double fold_lanes(__m256d acc) {
  // {s0+s2, s1+s3} then low+high == (s0+s2)+(s1+s3): the canonical order
  // the scalar tier mirrors.
  const __m128d folded =
      _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
  return _mm_cvtsd_f64(folded) +
         _mm_cvtsd_f64(_mm_unpackhi_pd(folded, folded));
}

double dot(const double* a, const double* b, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  double r = fold_lanes(acc);
  for (std::size_t i = n4; i < n; ++i) r += a[i] * b[i];
  return r;
}

double distance_sq(const double* a, const double* b, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  __m256d acc = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d d =
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double r = fold_lanes(acc);
  for (std::size_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    r += d * d;
  }
  return r;
}

/// Loads cols[i..i+3] and turns them into factor-array element indices
/// cols[j] * stride + dim (32-bit math: factor matrices stay well under
/// 2^31 elements — vocab/item counts times a rank of ~3).
inline __m128i factor_indices(const std::uint32_t* cols, std::size_t i,
                              __m128i vstride, __m128i vdim) {
  const __m128i c =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(cols + i));
  return _mm_add_epi32(_mm_mullo_epi32(c, vstride), vdim);
}

void retire_axpy(double* resid, const std::uint32_t* cols, std::size_t n,
                 const double* factors, std::size_t stride, std::size_t dim,
                 double scale) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vscale = _mm256_set1_pd(scale);
  const __m128i vstride = _mm_set1_epi32(static_cast<int>(stride));
  const __m128i vdim = _mm_set1_epi32(static_cast<int>(dim));
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128i idx = factor_indices(cols, i, vstride, vdim);
    const __m256d q = gather_pd(factors, idx);
    const __m256d r = _mm256_loadu_pd(resid + i);
    _mm256_storeu_pd(resid + i, _mm256_sub_pd(r, _mm256_mul_pd(vscale, q)));
  }
  for (std::size_t i = n4; i < n; ++i) {
    resid[i] -= scale * factors[cols[i] * stride + dim];
  }
}

void score_tfidf(double* out, const double* sqrt_tf,
                 const std::uint32_t* docs, const double* len_norm, double w,
                 std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vw = _mm256_set1_pd(w);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(docs + i));
    const __m256d ln = gather_pd(len_norm, idx);
    const __m256d s = _mm256_mul_pd(_mm256_loadu_pd(sqrt_tf + i), vw);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(s, ln));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = (sqrt_tf[i] * w) * len_norm[docs[i]];
  }
}

void score_bm25(double* out, const double* tf, const std::uint32_t* docs,
                const double* bm25_norm, double w, double k1p1,
                std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vw = _mm256_set1_pd(w);
  const __m256d vk = _mm256_set1_pd(k1p1);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(docs + i));
    const __m256d norm = gather_pd(bm25_norm, idx);
    const __m256d vtf = _mm256_loadu_pd(tf + i);
    const __m256d num = _mm256_mul_pd(vw, _mm256_mul_pd(vtf, vk));
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(num, _mm256_add_pd(vtf, norm)));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = (w * (tf[i] * k1p1)) / (tf[i] + bm25_norm[docs[i]]);
  }
}

void inv_sqrt_or_zero(double* out, const double* in, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(in + i);
    const __m256d r = _mm256_div_pd(one, _mm256_sqrt_pd(v));
    // GT_OQ: ordered greater-than, so NaN lengths produce 0 exactly like
    // the scalar ternary.
    const __m256d mask = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(zero, r, mask));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = in[i] > 0.0 ? 1.0 / std::sqrt(in[i]) : 0.0;
  }
}

void bm25_doc_norms(double* out, const double* dl, double k1, double b,
                    double avg, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vk1 = _mm256_set1_pd(k1);
  const __m256d vb = _mm256_set1_pd(b);
  const __m256d vavg = _mm256_set1_pd(avg);
  const __m256d one_minus_b = _mm256_set1_pd(1.0 - b);
  for (std::size_t i = 0; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(dl + i);
    const __m256d t = _mm256_add_pd(
        one_minus_b, _mm256_div_pd(_mm256_mul_pd(vb, v), vavg));
    _mm256_storeu_pd(out + i, _mm256_mul_pd(vk1, t));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = k1 * (1.0 - b + b * dl[i] / avg);
  }
}

void score_tfidf_codes(double* out, const std::uint8_t* codes,
                       const double* lut256, const std::uint32_t* docs,
                       const double* len_norm, double w, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vw = _mm256_set1_pd(w);
  for (std::size_t i = 0; i < n4; i += 4) {
    std::uint32_t packed;
    __builtin_memcpy(&packed, codes + i, sizeof packed);
    const __m128i code_idx =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    const __m256d sqrt_tf = gather_pd(lut256, code_idx);
    const __m128i doc_idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(docs + i));
    const __m256d ln = gather_pd(len_norm, doc_idx);
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_mul_pd(sqrt_tf, vw), ln));
  }
  for (std::size_t i = n4; i < n; ++i) {
    out[i] = (lut256[codes[i]] * w) * len_norm[docs[i]];
  }
}

void score_bm25_codes(double* out, const std::uint8_t* codes,
                      const std::uint32_t* docs, const double* bm25_norm,
                      double w, double k1p1, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d vw = _mm256_set1_pd(w);
  const __m256d vk = _mm256_set1_pd(k1p1);
  for (std::size_t i = 0; i < n4; i += 4) {
    std::uint32_t packed;
    __builtin_memcpy(&packed, codes + i, sizeof packed);
    const __m256d vtf = _mm256_cvtepi32_pd(
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed))));
    const __m128i doc_idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(docs + i));
    const __m256d norm = gather_pd(bm25_norm, doc_idx);
    const __m256d num = _mm256_mul_pd(vw, _mm256_mul_pd(vtf, vk));
    _mm256_storeu_pd(out + i,
                     _mm256_div_pd(num, _mm256_add_pd(vtf, norm)));
  }
  for (std::size_t i = n4; i < n; ++i) {
    const double tf = static_cast<double>(codes[i]);
    out[i] = (w * (tf * k1p1)) / (tf + bm25_norm[docs[i]]);
  }
}

void expand_lut_u8(double* out, const std::uint8_t* codes,
                   const double* lut256, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    // 4 bytes -> 4 u32 lane indices -> gathered LUT doubles.
    std::uint32_t packed;
    __builtin_memcpy(&packed, codes + i, sizeof packed);
    const __m128i idx =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    _mm256_storeu_pd(out + i, gather_pd(lut256, idx));
  }
  for (std::size_t i = n4; i < n; ++i) out[i] = lut256[codes[i]];
}

void u8_to_f64(double* out, const std::uint8_t* codes, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  for (std::size_t i = 0; i < n4; i += 4) {
    std::uint32_t packed;
    __builtin_memcpy(&packed, codes + i, sizeof packed);
    const __m128i idx =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    _mm256_storeu_pd(out + i, _mm256_cvtepi32_pd(idx));
  }
  for (std::size_t i = n4; i < n; ++i) out[i] = static_cast<double>(codes[i]);
}

// 128-bit kernels: 4-id groups, the crc32 instruction and the 8x8 byte
// transpose do not widen usefully to 256 bits. -mavx2 implies the SSE4.2
// pshufb and crc32 instructions they use.
//
// The group-varint decoder is the classic pshufb shuffle-table expansion:
// one 256-entry table maps each control byte to a 16-byte shuffle that
// scatters the 4..16 data bytes into four zero-padded u32 lanes, then an
// in-register prefix sum turns deltas into doc ids.
struct GroupTables {
  alignas(16) std::uint8_t shuf[256][16];
  std::uint8_t len[256];
};

constexpr GroupTables make_group_tables() {
  GroupTables t{};
  for (int c = 0; c < 256; ++c) {
    int off = 0;
    for (int v = 0; v < 4; ++v) {
      const int len = ((c >> (2 * v)) & 0x3) + 1;
      for (int b = 0; b < 4; ++b) {
        // 0x80 in a pshufb control lane writes a zero byte.
        t.shuf[c][4 * v + b] =
            b < len ? static_cast<std::uint8_t>(off + b) : 0x80;
      }
      off += len;
    }
    t.len[c] = static_cast<std::uint8_t>(off);
  }
  return t;
}

constexpr GroupTables kGroupTables = make_group_tables();

const std::uint8_t* decode_group_deltas(const std::uint8_t* p,
                                        std::uint32_t* ids,
                                        std::uint32_t* prev, std::size_t n) {
  __m128i pv = _mm_set1_epi32(static_cast<int>(*prev));
  for (std::size_t i = 0; i < n; i += 4) {
    const std::uint8_t control = *p++;
    const __m128i raw =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i d = _mm_shuffle_epi8(
        raw, _mm_load_si128(
                 reinterpret_cast<const __m128i*>(kGroupTables.shuf[control])));
    // In-register inclusive prefix sum of the four u32 deltas.
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    const __m128i vals = _mm_add_epi32(d, pv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + i), vals);
    pv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
    p += kGroupTables.len[control];
  }
  *prev = static_cast<std::uint32_t>(_mm_cvtsi128_si32(pv));
  return p;
}

const std::uint8_t* decode_u8_deltas(const std::uint8_t* p,
                                     std::uint32_t* ids, std::uint32_t* prev,
                                     std::size_t n) {
  __m128i pv = _mm_set1_epi32(static_cast<int>(*prev));
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t i = 0;
  for (; i < n4; i += 4) {
    std::uint32_t packed;
    std::memcpy(&packed, p + i, sizeof packed);
    __m128i d =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    const __m128i vals = _mm_add_epi32(d, pv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + i), vals);
    pv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
  }
  if (i < n) {
    // Tail quad: bytes past the block's deltas belong to the next block
    // (or the pool pad), so mask them out of the prefix sum before the
    // full-quad store (the ids buffer always has room for a rounded-up
    // quad — see the Kernels contract).
    static constexpr std::uint32_t kTailMask[4] = {0, 0xFFu, 0xFFFFu,
                                                   0xFFFFFFu};
    std::uint32_t packed;
    std::memcpy(&packed, p + i, sizeof packed);  // pool pad keeps this safe
    packed &= kTailMask[n - i];
    __m128i d =
        _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(packed)));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 4));
    d = _mm_add_epi32(d, _mm_slli_si128(d, 8));
    const __m128i vals = _mm_add_epi32(d, pv);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(ids + i), vals);
    pv = _mm_shuffle_epi32(vals, _MM_SHUFFLE(3, 3, 3, 3));
  }
  *prev = static_cast<std::uint32_t>(_mm_cvtsi128_si32(pv));
  return p + n;
}

std::uint32_t crc32c_update(std::uint32_t crc, const std::uint8_t* p,
                            std::size_t n) {
  // The crc32 instruction implements the Castagnoli polynomial directly;
  // widening to u64 steps just feeds it 8 input bytes per issue.
  std::uint64_t c = crc;
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    std::uint64_t chunk;
    std::memcpy(&chunk, p + i, sizeof chunk);
    c = _mm_crc32_u64(c, chunk);
  }
  std::uint32_t c32 = static_cast<std::uint32_t>(c);
  for (std::size_t i = n8; i < n; ++i) {
    c32 = _mm_crc32_u8(c32, p[i]);
  }
  return c32;
}

// 8x8 byte transpose of one element group: doubles d0..d7 in four 16-byte
// registers ([d0,d1], [d2,d3], [d4,d5], [d6,d7]) to four registers of two
// 8-byte planes each ([p0,p1], [p2,p3], [p4,p5], [p6,p7]). Three unpack
// stages; the network is an involution on the 8x8 byte matrix, so
// unshuffle runs the identical network with planes as input rows.
inline void transpose8x8(__m128i r0, __m128i r1, __m128i r2, __m128i r3,
                         __m128i& w0, __m128i& w1, __m128i& w2, __m128i& w3) {
  const __m128i t0 = _mm_unpacklo_epi8(r0, r1);  // rows 0,2 interleaved
  const __m128i t1 = _mm_unpackhi_epi8(r0, r1);  // rows 1,3 interleaved
  const __m128i t2 = _mm_unpacklo_epi8(r2, r3);  // rows 4,6
  const __m128i t3 = _mm_unpackhi_epi8(r2, r3);  // rows 5,7
  const __m128i u0 = _mm_unpacklo_epi8(t0, t1);  // cols 0..3 of rows 0..3
  const __m128i u1 = _mm_unpackhi_epi8(t0, t1);  // cols 4..7 of rows 0..3
  const __m128i u2 = _mm_unpacklo_epi8(t2, t3);  // cols 0..3 of rows 4..7
  const __m128i u3 = _mm_unpackhi_epi8(t2, t3);  // cols 4..7 of rows 4..7
  w0 = _mm_unpacklo_epi32(u0, u2);
  w1 = _mm_unpackhi_epi32(u0, u2);
  w2 = _mm_unpacklo_epi32(u1, u3);
  w3 = _mm_unpackhi_epi32(u1, u3);
}

void shuffle_u64(std::uint8_t* out, const std::uint64_t* in, std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    const __m128i* src = reinterpret_cast<const __m128i*>(in + i);
    __m128i w0, w1, w2, w3;
    transpose8x8(_mm_loadu_si128(src), _mm_loadu_si128(src + 1),
                 _mm_loadu_si128(src + 2), _mm_loadu_si128(src + 3), w0, w1,
                 w2, w3);
    const __m128i w[4] = {w0, w1, w2, w3};
    for (int k = 0; k < 4; ++k) {
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (2 * k) * n + i),
                       w[k]);
      _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (2 * k + 1) * n + i),
                       _mm_srli_si128(w[k], 8));
    }
  }
  for (std::size_t i = n8; i < n; ++i) {
    const std::uint64_t x = in[i];
    for (std::size_t plane = 0; plane < 8; ++plane) {
      out[plane * n + i] = static_cast<std::uint8_t>(x >> (8 * plane));
    }
  }
}

void unshuffle_u64(std::uint64_t* out, const std::uint8_t* in,
                   std::size_t n) {
  const std::size_t n8 = n & ~std::size_t{7};
  for (std::size_t i = 0; i < n8; i += 8) {
    __m128i r[4];
    for (int k = 0; k < 4; ++k) {
      const __m128i lo = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(in + (2 * k) * n + i));
      const __m128i hi = _mm_loadl_epi64(
          reinterpret_cast<const __m128i*>(in + (2 * k + 1) * n + i));
      r[k] = _mm_unpacklo_epi64(lo, hi);
    }
    __m128i w0, w1, w2, w3;
    transpose8x8(r[0], r[1], r[2], r[3], w0, w1, w2, w3);
    __m128i* dst = reinterpret_cast<__m128i*>(out + i);
    _mm_storeu_si128(dst, w0);
    _mm_storeu_si128(dst + 1, w1);
    _mm_storeu_si128(dst + 2, w2);
    _mm_storeu_si128(dst + 3, w3);
  }
  for (std::size_t i = n8; i < n; ++i) {
    std::uint64_t x = 0;
    for (std::size_t plane = 0; plane < 8; ++plane) {
      x |= static_cast<std::uint64_t>(in[plane * n + i]) << (8 * plane);
    }
    out[i] = x;
  }
}

const Kernels kAvx2Kernels = {
    &dot,
    &distance_sq,
    &retire_axpy,
    &score_tfidf,
    &score_bm25,
    &inv_sqrt_or_zero,
    &bm25_doc_norms,
    &score_tfidf_codes,
    &score_bm25_codes,
    &expand_lut_u8,
    &u8_to_f64,
    &decode_group_deltas,
    &decode_u8_deltas,
    &crc32c_update,
    &shuffle_u64,
    &unshuffle_u64,
};

}  // namespace

const Kernels& avx2_kernels() { return kAvx2Kernels; }
bool avx2_compiled() { return kHaveAvx2; }

}  // namespace at::simd::detail

#else  // !(AT_SIMD_X86 && __AVX2__)

namespace at::simd::detail {

namespace {
const Kernels kAvx2Fallback = {
    &scalar_dot,
    &scalar_distance_sq,
    &scalar_retire_axpy,
    &scalar_score_tfidf,
    &scalar_score_bm25,
    &scalar_inv_sqrt_or_zero,
    &scalar_bm25_doc_norms,
    &scalar_score_tfidf_codes,
    &scalar_score_bm25_codes,
    &scalar_expand_lut_u8,
    &scalar_u8_to_f64,
    &scalar_decode_group_deltas,
    &scalar_decode_u8_deltas,
    &scalar_crc32c_update,
    &scalar_shuffle_u64,
    &scalar_unshuffle_u64,
};
}  // namespace

const Kernels& avx2_kernels() { return kAvx2Fallback; }
bool avx2_compiled() { return false; }

}  // namespace at::simd::detail

#endif
