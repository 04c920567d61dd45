// Block-compressed postings storage (ROADMAP "Postings compression").
//
// The PR-1 inverted index kept one raw u32 doc id plus two doubles (tf and
// cached sqrt(tf)) per posting — ~20 bytes each — which made cold index
// scans memory-bound and the synopsis footprint 3-4x larger than needed.
// This codec stores each term's postings as delta-encoded doc ids in
// fixed-size blocks (128 postings, the RediSearch/Lucene block shape) with
// two interchangeable delta encodings chosen per block, and term
// frequencies quantized to one byte with an exception side-table for the
// rare non-integral or >255 values.
//
// Per-block layout (values before ids, so decoding needs no staging):
//   tag      u8                 0 = varint deltas, 1 = group-varint
//                               deltas, 2 = raw u8 deltas (all gaps <= 255)
//   tfs      n x u8             1..255 = exact integral tf; 0 = exception
//   excs     varint count, then count raw IEEE f64s in posting order
//   deltas   n encoded u32      doc-id gaps; the running previous doc id
//                               carries across blocks of the same list
//
// Decoding is exact: a tf byte c decodes to double(c) (bit-identical to
// the original count) and exceptions store the original double verbatim,
// so sqrt(tf)/norm products reproduce the uncompressed scorer bit for bit
// (kSqrtLut[c] == std::sqrt(double(c)) for the quantized range).
//
// The low-level list primitives (encode_list/decode_list) are shared with
// the synopsis serializer, which uses the same layout for the v2
// on-disk SparseRows format.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/simd.h"

namespace at::search {

namespace codec {

/// Postings per block. 128 keeps the decode buffers L1-resident while
/// amortizing the per-block tag/exception headers.
inline constexpr std::size_t kBlockSize = 128;

/// Block encoding tags. kTagU8Delta stores each doc-id gap as one raw
/// byte — eligible whenever every gap in the block is <= 255, which dense
/// postings lists (small gaps) almost always satisfy. It is never larger
/// than the varint layout (a varint costs >= 1 byte per gap) and decodes
/// with a SIMD widening prefix-sum instead of a serial continuation-bit
/// chain, so the encoder prefers it whenever it is eligible.
inline constexpr std::uint8_t kTagVarint = 0;
inline constexpr std::uint8_t kTagGroupVarint = 1;
inline constexpr std::uint8_t kTagU8Delta = 2;

/// kSqrtLut[c] == std::sqrt(double(c)); lets the tf-idf decode path skip
/// the sqrt for quantized tfs without changing a single result bit.
extern const double kSqrtLut[256];

/// LEB128 varint (u32 payloads; u64 accepted for counts). The decoders
/// are header-inline so the scoring loop's fused decode inlines fully.
///
/// Both readers cap the continuation walk at the widest canonical
/// encoding (10 bytes / shift 63 for u64, 5 bytes / shift 28 for u32):
/// well-formed input decodes unchanged, while a malformed run of
/// continuation bytes can no longer grow the shift count past the operand
/// width (undefined behavior) or march the cursor arbitrarily far past the
/// buffer. Garbage in still means garbage out on the trusted in-memory
/// path — decode_block is the checked walk that rejects it loudly.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v);
inline const std::uint8_t* get_varint(const std::uint8_t* p,
                                      std::uint64_t* v) {
  std::uint64_t r = 0;
  int shift = 0;
  while ((*p & 0x80) && shift < 63) {
    r |= static_cast<std::uint64_t>(*p & 0x7F) << shift;
    shift += 7;
    ++p;
  }
  *v = r | (static_cast<std::uint64_t>(*p & 0x7F) << shift);
  return p + 1;
}

/// u32 varint read with an explicit one/two-byte fast path — doc-id gaps
/// are overwhelmingly short, and keeping the common widths branch-cheap
/// measurably helps the fused scoring scan.
inline const std::uint8_t* get_varint32(const std::uint8_t* p,
                                        std::uint32_t* v) {
  std::uint32_t b = *p++;
  if (b < 0x80) {
    *v = b;
    return p;
  }
  std::uint32_t r = b & 0x7F;
  b = *p++;
  if (b < 0x80) {
    *v = r | (b << 7);
    return p;
  }
  r |= (b & 0x7F) << 7;
  int shift = 14;
  while ((b = *p++) >= 0x80 && shift < 28) {
    r |= (b & 0x7F) << shift;
    shift += 7;
  }
  *v = r | ((b & 0x7F) << shift);
  return p;
}

/// Group varint: 4 u32s packed as one control byte (2 length bits per
/// value) followed by 4..16 little-endian data bytes.
void put_group4(std::vector<std::uint8_t>& out, const std::uint32_t v[4]);
inline const std::uint8_t* get_group4(const std::uint8_t* p,
                                      std::uint32_t v[4]) {
  const std::uint8_t control = *p++;
  for (int i = 0; i < 4; ++i) {
    const std::size_t len = ((control >> (2 * i)) & 0x3) + 1;
    std::uint32_t x = 0;
    for (std::size_t b = 0; b < len; ++b) {
      x |= static_cast<std::uint32_t>(*p++) << (8 * b);
    }
    v[i] = x;
  }
  return p;
}

/// One-byte tf code: 1..255 for a value that is exactly that integer,
/// 0 ("exception") for everything else — non-integral, negative, zero, or
/// larger than 255 values go to the side-table as exact doubles.
std::uint8_t quantize_tf(double tf);

/// Encodes a sorted, duplicate-free id list with parallel double values
/// into `out` (appended). Ids must be strictly ascending.
void encode_list(std::vector<std::uint8_t>& out, const std::uint32_t* ids,
                 const double* vals, std::size_t n);

/// Decodes one block of `n` (<= kBlockSize) entries into flat arrays.
/// `prev` is the running previous id (0 before the first block). This is
/// the *checked* walk of the block wire format for file-supplied bytes:
/// every read is bounds-checked against `end` and the exception count is
/// validated in both directions, so corrupt input throws instead of
/// reading out of bounds or silently patching values to 0.
/// CompressedPostings::scan mirrors this walk unchecked — keep the two in
/// lockstep on any format change (the shared-template unification was
/// measured at ~15% scoring-loop cost and rejected; the parity and
/// round-trip suites pin them to each other).
const std::uint8_t* decode_block(const std::uint8_t* p,
                                 const std::uint8_t* end, std::size_t n,
                                 std::uint32_t prev, std::uint32_t* ids,
                                 double* vals);

/// Full-list decode of `n` entries from a `bytes`-sized buffer (appends to
/// the output vectors). Throws on truncated or corrupt input.
void decode_list(const std::uint8_t* p, std::size_t bytes, std::size_t n,
                 std::vector<std::uint32_t>& ids, std::vector<double>& vals);

/// One decoded block as staged by CompressedPostings::scan_blocks: doc ids
/// are materialized into an L1-resident buffer (SIMD shuffle decode for
/// group-varint blocks), tf codes and exception doubles stay views into
/// the compressed pool. `excs` packs exc_count raw f64s in posting order
/// for the entries whose code is 0.
struct BlockView {
  const std::uint32_t* docs = nullptr;
  const std::uint8_t* codes = nullptr;
  const std::uint8_t* excs = nullptr;
  std::size_t exc_count = 0;
  std::size_t n = 0;
};

}  // namespace codec

/// All terms' postings in one compressed byte pool with per-term offsets
/// (the CSR shape of the raw layout, minus ~80% of the bytes).
class CompressedPostings {
 public:
  CompressedPostings() = default;

  /// Builds from raw CSR postings: term t's postings are
  /// docs/tfs[term_ptr[t], term_ptr[t+1]), docs ascending per term.
  CompressedPostings(const std::vector<std::size_t>& term_ptr,
                     const std::vector<std::uint32_t>& docs,
                     const std::vector<double>& tfs);

  std::size_t num_terms() const { return counts_.size(); }
  std::uint32_t count(std::uint32_t term) const {
    return term < counts_.size() ? counts_[term] : 0;
  }
  std::size_t total_postings() const { return total_postings_; }

  /// Compressed footprint: byte pool (payload only, excluding the SIMD
  /// decode pad) plus the per-term offset/count directory.
  std::size_t compressed_bytes() const {
    return (offsets_.empty() ? 0 : offsets_.back()) +
           offsets_.size() * sizeof(std::uint64_t) +
           counts_.size() * sizeof(std::uint32_t);
  }

  /// Decodes one term's full postings (tests / interop; the scoring path
  /// uses scan() and never materializes this).
  void decode_term(std::uint32_t term, std::vector<std::uint32_t>& docs,
                   std::vector<double>& tfs) const;

  /// Block-at-a-time decode-and-visit over one term's postings:
  /// `fn(const codec::BlockView&)` once per block, doc ids staged into an
  /// L1-resident buffer (group-varint blocks decode through the dispatched
  /// pshufb shuffle-table kernel; varint blocks through the scalar chain).
  /// Staging the ids first lets callers run vectorized kernels over the
  /// whole block — gathered norms, LUT-expanded tfs — instead of paying a
  /// decode/score dependency per posting.
  ///
  /// This is the *unchecked* mirror of codec::decode_block — it trusts the
  /// in-memory pool the encoder built and elides every bounds check; keep
  /// the two walks in lockstep on any format change (a shared policy
  /// template was measured at ~15% scoring-loop cost and rejected).
  template <typename Fn>
  void scan_blocks(std::uint32_t term, Fn&& fn) const {
    if (term >= num_terms()) return;
    const std::uint8_t* p = bytes_.data() + offsets_[term];
    std::size_t remaining = counts_[term];
    std::uint32_t prev = 0;
    // kBlockSize is a multiple of 4, so the SIMD decoder's full-quad
    // stores never step outside the staging buffer.
    static_assert(codec::kBlockSize % 4 == 0);
    std::uint32_t ids[codec::kBlockSize];
    while (remaining > 0) {
      const std::size_t n = std::min(remaining, codec::kBlockSize);
      const std::uint8_t tag = *p++;
      assert(tag == codec::kTagVarint || tag == codec::kTagGroupVarint ||
             tag == codec::kTagU8Delta);
      const std::uint8_t* codes = p;
      p += n;
      std::uint64_t exc_count;
      p = codec::get_varint(p, &exc_count);
      const std::uint8_t* excp = p;
      p += sizeof(double) * exc_count;
      if (tag == codec::kTagU8Delta) {
        // The SIMD tiers read rounded-up 4-byte windows; the pool keeps
        // simd::kDecodePadBytes of slack after the payload for this.
        p = simd::decode_u8_deltas(p, ids, &prev, n);
      } else if (tag == codec::kTagGroupVarint) {
        // The SIMD tier reads 16-byte windows (same pool slack).
        p = simd::decode_group_deltas(p, ids, &prev, n);
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          std::uint32_t delta;
          p = codec::get_varint32(p, &delta);
          prev += delta;
          ids[i] = prev;
        }
      }
      fn(codec::BlockView{ids, codes, excp,
                          static_cast<std::size_t>(exc_count), n});
      remaining -= n;
    }
  }

  /// Fused per-posting visit, in doc order: `fn(doc, code, exc)` where
  /// code is the quantized tf (tf == code bit-exactly when nonzero) and
  /// exc the exact exception value when code == 0. Thin adapter over
  /// scan_blocks for callers that don't batch.
  template <typename Fn>
  void scan(std::uint32_t term, Fn&& fn) const {
    scan_blocks(term, [&](const codec::BlockView& bv) {
      const std::uint8_t* excp = bv.excs;
      for (std::size_t i = 0; i < bv.n; ++i) {
        double exc = 0.0;
        if (bv.codes[i] == 0) {
          std::memcpy(&exc, excp, sizeof exc);
          excp += sizeof exc;
        }
        fn(bv.docs[i], bv.codes[i], exc);
      }
    });
  }

 private:
  std::vector<std::uint64_t> offsets_;  // per-term byte offset, terms+1
  std::vector<std::uint32_t> counts_;   // postings per term (df)
  std::vector<std::uint8_t> bytes_;     // payload + simd::kDecodePadBytes
  std::size_t total_postings_ = 0;
};

}  // namespace at::search
