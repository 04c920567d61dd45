// SIMD dispatch core: scalar reference kernels, cpuid tier detection and
// the AT_SIMD override. The scalar kernels double as the portable fallback
// and as the bit-exactness reference the ISA tiers are tested against.
#include "common/simd_internal.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace at::simd {
namespace detail {

// ---------------------------------------------------------------------------
// Scalar reference kernels
// ---------------------------------------------------------------------------

// Canonical reduction order shared by every tier: four stride-4 partial
// sums over the vectorizable prefix, combined as (s0+s2)+(s1+s3) — exactly
// how a 256-bit accumulator folds its lanes (extract high 128, add, then
// low+high) — followed by the tail elements in sequence.
double scalar_dot(const double* a, const double* b, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double acc = (s0 + s2) + (s1 + s3);
  for (std::size_t i = n4; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

double scalar_distance_sq(const double* a, const double* b, std::size_t n) {
  const std::size_t n4 = n & ~std::size_t{3};
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::size_t i = 0; i < n4; i += 4) {
    const double d0 = a[i] - b[i];
    const double d1 = a[i + 1] - b[i + 1];
    const double d2 = a[i + 2] - b[i + 2];
    const double d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double acc = (s0 + s2) + (s1 + s3);
  for (std::size_t i = n4; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

void scalar_retire_axpy(double* resid, const std::uint32_t* cols,
                        std::size_t n, const double* factors,
                        std::size_t stride, std::size_t dim, double scale) {
  for (std::size_t i = 0; i < n; ++i) {
    resid[i] -= scale * factors[cols[i] * stride + dim];
  }
}

void scalar_score_tfidf(double* out, const double* sqrt_tf,
                        const std::uint32_t* docs, const double* len_norm,
                        double w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (sqrt_tf[i] * w) * len_norm[docs[i]];
  }
}

void scalar_score_bm25(double* out, const double* tf,
                       const std::uint32_t* docs, const double* bm25_norm,
                       double w, double k1p1, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (w * (tf[i] * k1p1)) / (tf[i] + bm25_norm[docs[i]]);
  }
}

void scalar_inv_sqrt_or_zero(double* out, const double* in, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = in[i] > 0.0 ? 1.0 / std::sqrt(in[i]) : 0.0;
  }
}

void scalar_bm25_doc_norms(double* out, const double* dl, double k1, double b,
                           double avg, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = k1 * (1.0 - b + b * dl[i] / avg);
  }
}

void scalar_score_tfidf_codes(double* out, const std::uint8_t* codes,
                              const double* lut256,
                              const std::uint32_t* docs,
                              const double* len_norm, double w,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = (lut256[codes[i]] * w) * len_norm[docs[i]];
  }
}

void scalar_score_bm25_codes(double* out, const std::uint8_t* codes,
                             const std::uint32_t* docs,
                             const double* bm25_norm, double w, double k1p1,
                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double tf = static_cast<double>(codes[i]);
    out[i] = (w * (tf * k1p1)) / (tf + bm25_norm[docs[i]]);
  }
}

void scalar_expand_lut_u8(double* out, const std::uint8_t* codes,
                          const double* lut256, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = lut256[codes[i]];
}

void scalar_u8_to_f64(double* out, const std::uint8_t* codes, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<double>(codes[i]);
}

// Mirrors the AVX2 tier's pshufb decoder exactly: every group contributes
// all four deltas (tail pads are zero by the encoder's contract) to the
// running prev, and only real entries are stored.
const std::uint8_t* scalar_decode_group_deltas(const std::uint8_t* p,
                                               std::uint32_t* ids,
                                               std::uint32_t* prev,
                                               std::size_t n) {
  std::uint32_t pv = *prev;
  for (std::size_t i = 0; i < n; i += 4) {
    const std::uint8_t control = *p++;
    for (int j = 0; j < 4; ++j) {
      const std::size_t len = ((control >> (2 * j)) & 0x3) + 1;
      std::uint32_t x = 0;
      for (std::size_t byte = 0; byte < len; ++byte) {
        x |= static_cast<std::uint32_t>(*p++) << (8 * byte);
      }
      pv += x;
      if (i + static_cast<std::size_t>(j) < n) {
        ids[i + static_cast<std::size_t>(j)] = pv;
      }
    }
  }
  *prev = pv;
  return p;
}

const std::uint8_t* scalar_decode_u8_deltas(const std::uint8_t* p,
                                            std::uint32_t* ids,
                                            std::uint32_t* prev,
                                            std::size_t n) {
  std::uint32_t pv = *prev;
  for (std::size_t i = 0; i < n; ++i) {
    pv += p[i];
    ids[i] = pv;
  }
  *prev = pv;
  return p + n;
}

namespace {

// CRC32C (Castagnoli, polynomial 0x1EDC6F41 reflected to 0x82F63B78) —
// the polynomial the x86 crc32 instruction implements, so the table walk
// and the AVX2 tier agree bit for bit.
struct Crc32cTable {
  std::uint32_t t[256];
};

constexpr Crc32cTable make_crc32c_table() {
  Crc32cTable tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    tb.t[i] = c;
  }
  return tb;
}

constexpr Crc32cTable kCrc32cTable = make_crc32c_table();

}  // namespace

std::uint32_t scalar_crc32c_update(std::uint32_t crc, const std::uint8_t* p,
                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable.t[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

void scalar_shuffle_u64(std::uint8_t* out, const std::uint64_t* in,
                        std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t x = in[i];
    for (std::size_t plane = 0; plane < 8; ++plane) {
      out[plane * n + i] = static_cast<std::uint8_t>(x >> (8 * plane));
    }
  }
}

void scalar_unshuffle_u64(std::uint64_t* out, const std::uint8_t* in,
                          std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t x = 0;
    for (std::size_t plane = 0; plane < 8; ++plane) {
      x |= static_cast<std::uint64_t>(in[plane * n + i]) << (8 * plane);
    }
    out[i] = x;
  }
}

namespace {

const Kernels kScalarKernels = {
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

const Kernels& table_for(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return avx2_kernels();
    case Tier::kScalar:
      break;
  }
  return kScalarKernels;
}

std::atomic<int> g_tier{-1};  // -1: not yet resolved

}  // namespace

std::atomic<const Kernels*> g_active{nullptr};

const Kernels* init_from_env() {
  Tier t = max_supported_tier();
  if (const char* spec = std::getenv("AT_SIMD")) {
    Tier parsed;
    if (parse_tier(spec, &parsed)) {
      if (parsed < t) t = parsed;
    } else {
      // A typo'd override must not silently run at full tier — CI steps
      // that force a tier rely on this warning to stay honest.
      std::fprintf(stderr,
                   "warning: unrecognized AT_SIMD value \"%s\" "
                   "(expected scalar|avx2|auto); using %s\n",
                   spec, tier_name(t));
    }
  }
  const Kernels* k = &table_for(t);
  // Publish tier before table so active_tier() never runs ahead of the
  // kernels a racing first caller observes.
  g_tier.store(static_cast<int>(t), std::memory_order_release);
  g_active.store(k, std::memory_order_release);
  return k;
}

}  // namespace detail

Tier max_supported_tier() {
#if AT_SIMD_X86
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier active_tier() {
  if (detail::g_active.load(std::memory_order_acquire) == nullptr) {
    detail::init_from_env();
  }
  return static_cast<Tier>(detail::g_tier.load(std::memory_order_acquire));
}

Tier set_tier(Tier t) {
  const Tier max = max_supported_tier();
  if (t > max) t = max;
  detail::g_tier.store(static_cast<int>(t), std::memory_order_release);
  detail::g_active.store(&detail::table_for(t), std::memory_order_release);
  return t;
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return "avx2";
    case Tier::kScalar:
      break;
  }
  return "scalar";
}

bool parse_tier(const char* spec, Tier* out) {
  if (spec == nullptr) return false;
  std::string s(spec);
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "scalar") {
    *out = Tier::kScalar;
  } else if (s == "avx2" || s == "avx") {
    *out = Tier::kAvx2;
  } else if (s == "auto" || s.empty()) {
    *out = max_supported_tier();
  } else {
    return false;
  }
  return true;
}

bool tier_compiled(Tier t) {
  switch (t) {
    case Tier::kAvx2:
      return detail::avx2_compiled();
    case Tier::kScalar:
      break;
  }
  return true;
}

}  // namespace at::simd
