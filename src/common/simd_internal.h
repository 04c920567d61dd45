// Internal glue between simd.cpp and the AVX2 TU: the AVX2 dispatch table,
// and the scalar reference kernels that TU falls back to when the compiler
// cannot target AVX2 (results are bit-identical either way).
#pragma once

#include "common/simd.h"

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define AT_SIMD_X86 1
#else
#define AT_SIMD_X86 0
#endif

namespace at::simd::detail {

// Scalar reference kernels (simd.cpp). The dot/distance reductions define
// the canonical 4-lane order every tier must reproduce.
double scalar_dot(const double* a, const double* b, std::size_t n);
double scalar_distance_sq(const double* a, const double* b, std::size_t n);
void scalar_retire_axpy(double* resid, const std::uint32_t* cols,
                        std::size_t n, const double* factors,
                        std::size_t stride, std::size_t dim, double scale);
void scalar_score_tfidf(double* out, const double* sqrt_tf,
                        const std::uint32_t* docs, const double* len_norm,
                        double w, std::size_t n);
void scalar_score_bm25(double* out, const double* tf,
                       const std::uint32_t* docs, const double* bm25_norm,
                       double w, double k1p1, std::size_t n);
void scalar_inv_sqrt_or_zero(double* out, const double* in, std::size_t n);
void scalar_bm25_doc_norms(double* out, const double* dl, double k1, double b,
                           double avg, std::size_t n);
void scalar_score_tfidf_codes(double* out, const std::uint8_t* codes,
                              const double* lut256,
                              const std::uint32_t* docs,
                              const double* len_norm, double w,
                              std::size_t n);
void scalar_score_bm25_codes(double* out, const std::uint8_t* codes,
                             const std::uint32_t* docs,
                             const double* bm25_norm, double w, double k1p1,
                             std::size_t n);
void scalar_expand_lut_u8(double* out, const std::uint8_t* codes,
                          const double* lut256, std::size_t n);
void scalar_u8_to_f64(double* out, const std::uint8_t* codes, std::size_t n);
const std::uint8_t* scalar_decode_group_deltas(const std::uint8_t* p,
                                               std::uint32_t* ids,
                                               std::uint32_t* prev,
                                               std::size_t n);
const std::uint8_t* scalar_decode_u8_deltas(const std::uint8_t* p,
                                            std::uint32_t* ids,
                                            std::uint32_t* prev,
                                            std::size_t n);
std::uint32_t scalar_crc32c_update(std::uint32_t crc, const std::uint8_t* p,
                                   std::size_t n);
void scalar_shuffle_u64(std::uint8_t* out, const std::uint64_t* in,
                        std::size_t n);
void scalar_unshuffle_u64(std::uint64_t* out, const std::uint8_t* in,
                          std::size_t n);

// AVX2 tier table + compile marker (simd_avx2.cpp). When the TU could not
// be compiled for AVX2 the table holds scalar fallbacks and the marker is
// false.
const Kernels& avx2_kernels();
bool avx2_compiled();

}  // namespace at::simd::detail
