// Runtime-dispatched SIMD kernel layer (ROADMAP "SIMD dot kernels" /
// "SIMD block decode").
//
// One set of flat-array kernels backs the numeric hot loops — linalg
// dot/norm/distance, the SVD residual-retire gather, the fused
// decode-and-score scan over compressed postings, and the doc-norm pass in
// index construction — with two implementation tiers selected once at
// startup:
//
//   tier      requires        notes
//   scalar    nothing         portable reference, always available
//   avx2      AVX2 (x86)      256-bit doubles + gathers, 128-bit pshufb
//                             group-varint decode and hardware crc32 (no
//                             FMA: kernels must round exactly like the
//                             scalar tier)
//
// Every tier computes BIT-IDENTICAL results: element-wise kernels perform
// the same IEEE operations in the same per-element order, and the one
// reduction (dot) uses a fixed 4-lane decomposition in *all* tiers — four
// stride-4 partial sums combined as (s0+s2)+(s1+s3), then the scalar tail
// in sequence — so scalar and AVX2 (4 lanes) round identically. FMA is
// deliberately never used. The parity suites (tests/simd_test.cpp) pin
// tf-idf/BM25 top-k and SVD factors across tiers bit for bit.
//
// Selection: the highest tier the CPU supports, overridable with the
// AT_SIMD environment variable ("scalar", "avx2", "auto") and from tests
// via set_tier(); requests above hardware support clamp down.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace at::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1 };

/// Highest tier the running CPU supports (compile-target permitting).
Tier max_supported_tier();

/// Tier whose kernels are currently dispatched.
Tier active_tier();

/// Forces a tier (clamped to max_supported_tier()); returns the tier that
/// was actually applied. Used by the parity tests and the scalar-vs-SIMD
/// benches; thread-safe but not meant to race with in-flight kernels.
Tier set_tier(Tier t);

const char* tier_name(Tier t);

/// Parses an AT_SIMD-style spec ("scalar", "avx2", "auto";
/// case-insensitive). Returns false on an unknown spec. "auto" parses to
/// max_supported_tier().
bool parse_tier(const char* spec, Tier* out);

/// True when the named tier's kernels were actually compiled with the
/// matching ISA (the build falls back to scalar code for tiers the
/// compiler/arch cannot target — results stay identical, speed does not).
bool tier_compiled(Tier t);

namespace detail {

/// Per-tier kernel table. Consumers go through the free functions below.
struct Kernels {
  double (*dot)(const double* a, const double* b, std::size_t n);
  double (*distance_sq)(const double* a, const double* b, std::size_t n);
  /// resid[i] -= scale * factors[cols[i] * stride + dim] for i in [0, n).
  void (*retire_axpy)(double* resid, const std::uint32_t* cols,
                      std::size_t n, const double* factors,
                      std::size_t stride, std::size_t dim, double scale);
  /// out[i] = (sqrt_tf[i] * w) * len_norm[docs[i]].
  void (*score_tfidf)(double* out, const double* sqrt_tf,
                      const std::uint32_t* docs, const double* len_norm,
                      double w, std::size_t n);
  /// out[i] = (w * (tf[i] * k1p1)) / (tf[i] + bm25_norm[docs[i]]).
  void (*score_bm25)(double* out, const double* tf,
                     const std::uint32_t* docs, const double* bm25_norm,
                     double w, double k1p1, std::size_t n);
  /// out[i] = in[i] > 0 ? 1.0 / sqrt(in[i]) : 0.0.
  void (*inv_sqrt_or_zero)(double* out, const double* in, std::size_t n);
  /// out[i] = k1 * (1.0 - b + b * dl[i] / avg), scalar operation order.
  void (*bm25_doc_norms)(double* out, const double* dl, double k1, double b,
                         double avg, std::size_t n);
  /// out[i] = (lut256[codes[i]] * w) * len_norm[docs[i]] — fuses the LUT
  /// expansion into the tf-idf score for exception-free blocks, skipping
  /// the tf staging round-trip. Bit-identical to expand_lut_u8 followed by
  /// score_tfidf.
  void (*score_tfidf_codes)(double* out, const std::uint8_t* codes,
                            const double* lut256, const std::uint32_t* docs,
                            const double* len_norm, double w, std::size_t n);
  /// out[i] = (w * (double(codes[i]) * k1p1)) /
  ///          (double(codes[i]) + bm25_norm[docs[i]]) — the BM25 analogue.
  void (*score_bm25_codes)(double* out, const std::uint8_t* codes,
                           const std::uint32_t* docs,
                           const double* bm25_norm, double w, double k1p1,
                           std::size_t n);
  /// out[i] = lut256[codes[i]] (e.g. the codec sqrt LUT).
  void (*expand_lut_u8)(double* out, const std::uint8_t* codes,
                        const double* lut256, std::size_t n);
  /// out[i] = double(codes[i]).
  void (*u8_to_f64)(double* out, const std::uint8_t* codes, std::size_t n);
  /// Decodes ceil(n/4) groups of group-varint deltas from p, writing
  /// prefix-summed ids (ids[i] = *prev + d0 + ... + di). Pads of the tail
  /// group are added into the running prev (encoders emit zero pads).
  /// Returns the new read cursor and updates *prev.
  ///
  /// CONTRACT: `ids` must have room for n rounded up to a multiple of 4,
  /// and at least 16 bytes beyond each group's data must be readable (the
  /// AVX2 tier loads full 16-byte windows). CompressedPostings pads its
  /// pool accordingly; hand-built buffers in tests must do the same.
  const std::uint8_t* (*decode_group_deltas)(const std::uint8_t* p,
                                             std::uint32_t* ids,
                                             std::uint32_t* prev,
                                             std::size_t n);
  /// Decodes n raw u8 deltas from p into prefix-summed ids (same id/prev
  /// semantics and the same ids/overread contract as decode_group_deltas;
  /// consumes exactly n bytes).
  const std::uint8_t* (*decode_u8_deltas)(const std::uint8_t* p,
                                          std::uint32_t* ids,
                                          std::uint32_t* prev, std::size_t n);
  /// Running CRC32C (Castagnoli, reflected). Callers seed with ~0u and
  /// finalize with ~crc; the AVX2 tier uses the hardware crc32
  /// instruction, which computes the exact same polynomial as the scalar
  /// table walk.
  std::uint32_t (*crc32c_update)(std::uint32_t crc, const std::uint8_t* p,
                                 std::size_t n);
  /// Byte-plane transpose (Blosc-style "shuffle") of n 8-byte elements:
  /// out[plane * n + i] = byte `plane` of in[i]. `out` holds 8*n bytes.
  void (*shuffle_u64)(std::uint8_t* out, const std::uint64_t* in,
                      std::size_t n);
  /// Inverse transpose: out[i] reassembled from the 8 planes of `in`.
  void (*unshuffle_u64)(std::uint64_t* out, const std::uint8_t* in,
                        std::size_t n);
};

extern std::atomic<const Kernels*> g_active;
const Kernels* init_from_env();

inline const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) k = init_from_env();
  return *k;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatched kernel entry points
// ---------------------------------------------------------------------------

inline double dot(const double* a, const double* b, std::size_t n) {
  return detail::active().dot(a, b, n);
}

inline double distance_sq(const double* a, const double* b, std::size_t n) {
  return detail::active().distance_sq(a, b, n);
}

inline void retire_axpy(double* resid, const std::uint32_t* cols,
                        std::size_t n, const double* factors,
                        std::size_t stride, std::size_t dim, double scale) {
  detail::active().retire_axpy(resid, cols, n, factors, stride, dim, scale);
}

inline void score_tfidf(double* out, const double* sqrt_tf,
                        const std::uint32_t* docs, const double* len_norm,
                        double w, std::size_t n) {
  detail::active().score_tfidf(out, sqrt_tf, docs, len_norm, w, n);
}

inline void score_bm25(double* out, const double* tf,
                       const std::uint32_t* docs, const double* bm25_norm,
                       double w, double k1p1, std::size_t n) {
  detail::active().score_bm25(out, tf, docs, bm25_norm, w, k1p1, n);
}

inline void inv_sqrt_or_zero(double* out, const double* in, std::size_t n) {
  detail::active().inv_sqrt_or_zero(out, in, n);
}

inline void bm25_doc_norms(double* out, const double* dl, double k1, double b,
                           double avg, std::size_t n) {
  detail::active().bm25_doc_norms(out, dl, k1, b, avg, n);
}

inline void score_tfidf_codes(double* out, const std::uint8_t* codes,
                              const double* lut256,
                              const std::uint32_t* docs,
                              const double* len_norm, double w,
                              std::size_t n) {
  detail::active().score_tfidf_codes(out, codes, lut256, docs, len_norm, w,
                                     n);
}

inline void score_bm25_codes(double* out, const std::uint8_t* codes,
                             const std::uint32_t* docs,
                             const double* bm25_norm, double w, double k1p1,
                             std::size_t n) {
  detail::active().score_bm25_codes(out, codes, docs, bm25_norm, w, k1p1, n);
}

inline void expand_lut_u8(double* out, const std::uint8_t* codes,
                          const double* lut256, std::size_t n) {
  detail::active().expand_lut_u8(out, codes, lut256, n);
}

inline void u8_to_f64(double* out, const std::uint8_t* codes, std::size_t n) {
  detail::active().u8_to_f64(out, codes, n);
}

inline const std::uint8_t* decode_group_deltas(const std::uint8_t* p,
                                               std::uint32_t* ids,
                                               std::uint32_t* prev,
                                               std::size_t n) {
  return detail::active().decode_group_deltas(p, ids, prev, n);
}

inline const std::uint8_t* decode_u8_deltas(const std::uint8_t* p,
                                            std::uint32_t* ids,
                                            std::uint32_t* prev,
                                            std::size_t n) {
  return detail::active().decode_u8_deltas(p, ids, prev, n);
}

inline std::uint32_t crc32c_update(std::uint32_t crc, const std::uint8_t* p,
                                   std::size_t n) {
  return detail::active().crc32c_update(crc, p, n);
}

inline void shuffle_u64(std::uint8_t* out, const std::uint64_t* in,
                        std::size_t n) {
  detail::active().shuffle_u64(out, in, n);
}

inline void unshuffle_u64(std::uint64_t* out, const std::uint8_t* in,
                          std::size_t n) {
  detail::active().unshuffle_u64(out, in, n);
}

/// Slack the group-varint SIMD decoder may read past the last encoded
/// byte; byte pools that feed decode_group_deltas must keep this many
/// readable (zero) bytes after the payload.
inline constexpr std::size_t kDecodePadBytes = 16;

}  // namespace at::simd
