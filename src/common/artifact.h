// Unified versioned artifact store: the one persistence layer every
// serialized component state goes through — synopsis feature vectors,
// linalg::Matrix, the incremental-SVD model, index files and the service
// snapshots (ROADMAP "Compress remaining artifacts").
//
// Container wire format (all integers little-endian):
//
//   header   "ATAC" | u32 container_version (=1) | kind[4] | u32 kind_version
//   chunk*   tag[4] | u64 payload_len | u32 crc32c(payload) | payload
//   end      "ATND" | u64 0 | u32 0
//
// `kind` names the artifact type ("MATX", "SVDM", "SROW", ...) and
// kind_version its schema, so a reader can reject the wrong artifact or an
// unknown schema *before* touching the payload. Every chunk is framed
// (typed tag + length) and checksummed with CRC32C — hardware-accelerated
// through the at::simd dispatch layer — so truncation, bit rot and
// mis-spliced streams fail loudly instead of deserializing garbage.
// Nested artifacts (a structure embeds an SVD model, matrices and an index
// file) are written sequentially between the parent's chunks; each nested
// container carries its own header and checksums.
//
// Value codecs for f64 columns — both round-trip bit-exactly:
//
//   raw      the IEEE bytes verbatim. The reference for verification.
//   shuffle  sign bit rotated to the mantissa end, then the smaller of
//            two exact layouts per column: (a) Blosc-style byte-plane
//            transpose through the dispatched SIMD 8x8 byte-transpose
//            kernel, each plane stored as the smallest of raw / RLE /
//            dict-packed (<=128 distinct bytes -> 1..7-bit indices) —
//            wins on regular data; (b) an exponent/mantissa bit-split —
//            the 11 exponent bits escape-coded against a frequency-sorted
//            dictionary, the 53 mantissa+sign bits packed verbatim —
//            wins on continuous data (SVD factors), whose mantissa noise
//            caps any byte-granular scheme near 0.91x. Every save
//            writes shuffle unless a caller asks for raw.
//
// Corrupt input throws ArtifactError (a std::runtime_error); decoders are
// bounds-checked end to end so malformed bytes can never read out of
// bounds (fuzz suite: tests/artifact_test.cpp).
#pragma once

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace at::common {

class ArtifactError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC32C (Castagnoli) of a buffer, via the dispatched kernel (hardware
/// crc32 in the AVX2 tier; identical results in every tier).
std::uint32_t crc32c(const void* data, std::size_t n);

// ---------------------------------------------------------------------------
// Value codecs
// ---------------------------------------------------------------------------

/// Codec byte values are part of the format: any other byte (including 2,
/// a retired codec) is rejected with ArtifactError.
enum class Codec : std::uint8_t { kRaw = 0, kShuffle = 1 };
inline constexpr Codec kAllCodecs[] = {Codec::kRaw, Codec::kShuffle};

const char* codec_name(Codec c);

/// Appends the self-describing encoding (1 codec byte + payload) of n
/// doubles to `out`.
void encode_f64(std::vector<std::uint8_t>& out, const double* v,
                std::size_t n, Codec codec);

/// Decodes exactly n doubles from [p, end); returns the new cursor.
/// Throws ArtifactError on any malformed byte.
const std::uint8_t* decode_f64(const std::uint8_t* p, const std::uint8_t* end,
                               double* out, std::size_t n);

// ---------------------------------------------------------------------------
// Chunk payload primitives
// ---------------------------------------------------------------------------

/// Builds one chunk's payload in memory (little-endian fixed-width
/// primitives, mirroring BinaryWriter).
class ChunkWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  template <typename T>
  void vec_u32(const std::vector<T>& v) {
    u64(v.size());
    for (const auto& x : v) u32(static_cast<std::uint32_t>(x));
  }

  /// Length-prefixed f64 column through a value codec. Columns are capped
  /// at the reader's forged-count bound (2^26 values) so oversized state
  /// fails loudly at save time instead of persisting unloadably; columns
  /// beyond that need a sharded layout, not a bigger cap.
  void vec_f64(const std::vector<double>& v, Codec codec) {
    f64_column(v.data(), v.size(), codec);
  }
  void f64_column(const double* v, std::size_t n, Codec codec) {
    if (n > (std::size_t{1} << 26))
      throw ArtifactError("artifact chunk: f64 column exceeds format cap");
    u64(n);
    encode_f64(buf_, v, n, codec);
  }

  /// Length-prefixed opaque bytes.
  void blob(const void* p, std::size_t n) {
    u64(n);
    raw(p, n);
  }
  void blob(const std::vector<std::uint8_t>& v) { blob(v.data(), v.size()); }
  void blob(const std::string& s) { blob(s.data(), s.size()); }

  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  // resize + memcpy rather than a range insert: GCC 12 at -O2 inlines the
  // insert of a fixed 4/8-byte source and reports a false
  // -Wstringop-overflow, which fails -Werror builds. An empty str/blob
  // passes n == 0 with a possibly null pointer, which memcpy must not see.
  void raw(const void* p, std::size_t n) {
    if (n == 0) return;
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    std::memcpy(buf_.data() + at, p, n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over one chunk's payload. Every read validates
/// the remaining length and throws ArtifactError on over-read, so corrupt
/// lengths fail cleanly.
class ChunkReader {
 public:
  explicit ChunkReader(std::vector<std::uint8_t> payload)
      : buf_(std::move(payload)) {}

  std::uint8_t u8() {
    need(1);
    return buf_[pos_++];
  }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  double f64() { return fixed<double>(); }
  bool boolean() { return u8() != 0; }

  std::string str() {
    const std::uint64_t n = len64();
    std::string s(static_cast<std::size_t>(n), '\0');
    need(s.size());
    std::memcpy(s.data(), buf_.data() + pos_, s.size());
    pos_ += s.size();
    return s;
  }

  std::vector<std::uint32_t> vec_u32() {
    const std::uint64_t n = len64();
    if (n > remaining() / sizeof(std::uint32_t))
      throw ArtifactError("artifact chunk: u32 vector overruns payload");
    std::vector<std::uint32_t> v(static_cast<std::size_t>(n));
    for (auto& x : v) x = u32();
    return v;
  }

  std::vector<double> vec_f64() {
    // Forged-count guards, applied BEFORE allocating n doubles. An unknown
    // codec byte is rejected outright. raw spends 8 payload bytes per
    // value, so its count bounds against the remaining payload. A shuffle
    // column has no such floor (a constant-valued column encodes to ~90
    // bytes at any n — eight dict-packed planes with one-entry dicts), so
    // it gets an absolute cap instead: 2^26 values, far above any real
    // column here.
    // Decoding allocates up to ~3.5x the column (v + the decoder's rot
    // and planes staging), so the cap bounds a worst-case forgery at
    // ~1.7 GiB of transient allocation rather than an OOM. The codec
    // decoder bounds-checks every actual read.
    const std::uint64_t n = u64();
    if (n > (std::uint64_t{1} << 26))
      throw ArtifactError("artifact chunk: f64 column implausibly large");
    if (n > 0 && remaining() > 0) {
      const std::uint8_t codec = buf_[pos_];  // decode_f64 re-validates
      if (codec != static_cast<std::uint8_t>(Codec::kRaw) &&
          codec != static_cast<std::uint8_t>(Codec::kShuffle))
        throw ArtifactError("f64 codec: unknown codec byte");
      if (codec == static_cast<std::uint8_t>(Codec::kRaw) &&
          n > (remaining() - 1) / sizeof(double))
        throw ArtifactError("artifact chunk: f64 column overruns payload");
    }
    std::vector<double> v(static_cast<std::size_t>(n));
    const std::uint8_t* next = decode_f64(
        buf_.data() + pos_, buf_.data() + buf_.size(), v.data(), v.size());
    pos_ = static_cast<std::size_t>(next - buf_.data());
    return v;
  }

  std::vector<std::uint8_t> blob() {
    const std::uint64_t n = len64();
    need(static_cast<std::size_t>(n));
    std::vector<std::uint8_t> v(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                buf_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }

  std::size_t remaining() const { return buf_.size() - pos_; }

  /// Whole chunks must be consumed: a trailing-garbage chunk is corrupt.
  void expect_consumed() const {
    if (remaining() != 0)
      throw ArtifactError("artifact chunk: trailing bytes");
  }

 private:
  template <typename T>
  T fixed() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }
  std::uint64_t len64() {
    const std::uint64_t n = u64();
    if (n > buf_.size())
      throw ArtifactError("artifact chunk: length overruns payload");
    return n;
  }
  void need(std::size_t n) const {
    if (n > remaining())
      throw ArtifactError("artifact chunk: truncated payload");
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

class ArtifactWriter {
 public:
  /// Writes the container header.
  ArtifactWriter(std::ostream& os, const char kind[4], std::uint32_t version);

  /// Writes one framed, checksummed chunk.
  void chunk(const char tag[4], const ChunkWriter& payload);

  /// The underlying stream, for nested artifacts between chunks.
  std::ostream& stream() { return os_; }

  /// Writes the end marker. Must be the final call.
  void finish();

 private:
  std::ostream& os_;
};

class ArtifactReader {
 public:
  /// Reads and validates the container header; throws ArtifactError when
  /// the stream is not an artifact container or is of a different kind.
  /// A bad magic error names the four bytes found, so a pre-ATAC file
  /// ("ATSR", "ATMX", ...) is reported as a retired format.
  ArtifactReader(std::istream& is, const char kind[4]);

  std::uint32_t version() const { return version_; }

  /// Reads the next chunk, which must carry `tag`; verifies its CRC.
  ChunkReader chunk(const char tag[4]);

  std::istream& stream() { return is_; }

  /// Consumes the end marker; throws if the next chunk is not it.
  void finish();

 private:
  std::istream& is_;
  std::uint32_t version_ = 0;
};

}  // namespace at::common
