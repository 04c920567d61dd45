#include "common/artifact.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <istream>
#include <ostream>

#include "common/failpoint.h"
#include "common/simd.h"

namespace at::common {

namespace {

constexpr char kContainerMagic[4] = {'A', 'T', 'A', 'C'};
constexpr char kEndTag[4] = {'A', 'T', 'N', 'D'};
constexpr std::uint32_t kContainerVersion = 1;

/// Upper bound on one chunk's payload. Far above any real artifact; its
/// job is turning a corrupted length field into ArtifactError instead of
/// a multi-gigabyte allocation attempt.
constexpr std::uint64_t kMaxChunkBytes = std::uint64_t{1} << 33;

// Shuffle-codec column layouts.
constexpr std::uint8_t kLayoutPlanes = 0;    // 8 byte-plane records
constexpr std::uint8_t kLayoutExpSplit = 1;  // exponent dict + mantissa bits

// Shuffle-codec plane storage modes (kLayoutPlanes).
constexpr std::uint8_t kPlaneRaw = 0;     // n verbatim bytes
constexpr std::uint8_t kPlaneRle = 1;     // (run_len u8 >= 1, value u8) pairs
constexpr std::uint8_t kPlanePacked = 2;  // dict (<=128 bytes) + packed ids

/// Rotate the sign bit to the mantissa end, so the transposed top plane is
/// pure exponent (one or two distinct bytes for data of similar magnitude)
/// and the sign lands in the already-incompressible mantissa-LSB plane.
inline std::uint64_t rotl1(std::uint64_t x) { return (x << 1) | (x >> 63); }
inline std::uint64_t rotr1(std::uint64_t x) { return (x >> 1) | (x << 63); }

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const auto* b = reinterpret_cast<const std::uint8_t*>(&v);
  out.insert(out.end(), b, b + sizeof v);
}

/// Four header bytes for an error message: printable ASCII verbatim,
/// anything else as \xNN.
std::string printable_magic(const char magic[4]) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    const auto c = static_cast<unsigned char>(magic[i]);
    if (std::isprint(c)) {
      out += static_cast<char>(c);
    } else {
      char hex[5];
      std::snprintf(hex, sizeof hex, "\\x%02X", c);
      out += hex;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Shuffle-codec plane coding
// ---------------------------------------------------------------------------

/// Appends the smallest of the three plane encodings:
///   mode u8 | len u64 | payload
void encode_plane(std::vector<std::uint8_t>& out, const std::uint8_t* plane,
                  std::size_t n) {
  bool seen[256] = {false};
  std::size_t distinct = 0;
  // One pass collects the distinct set and the RLE segmentation
  // (equal-byte stretches capped at 255); the emit below replays `runs`
  // so the sizing and the payload can never diverge.
  std::vector<std::pair<std::uint8_t, std::uint8_t>> runs;  // (len, value)
  for (std::size_t i = 0; i < n;) {
    if (!seen[plane[i]]) {
      seen[plane[i]] = true;
      ++distinct;
    }
    std::size_t j = i + 1;
    while (j < n && plane[j] == plane[i] && j - i < 255) ++j;
    runs.emplace_back(static_cast<std::uint8_t>(j - i), plane[i]);
    i = j;
  }

  const std::size_t raw_size = n;
  const std::size_t rle_size = 2 * runs.size();
  // Index width: ceil(log2(distinct)), dict-packing eligible up to 7 bits
  // (128 distinct values) — at 8 the plane is raw anyway.
  std::size_t packed_bits = 0;
  while (packed_bits < 8 && (std::size_t{1} << packed_bits) < distinct)
    ++packed_bits;
  const std::size_t packed_size =
      packed_bits >= 8 ? raw_size + 1
                       : 1 + distinct + (n * packed_bits + 7) / 8;

  std::uint8_t mode = kPlaneRaw;
  std::size_t best = raw_size;
  if (rle_size < best) {
    mode = kPlaneRle;
    best = rle_size;
  }
  if (packed_bits < 8 && packed_size < best) {
    mode = kPlanePacked;
    best = packed_size;
  }

  out.push_back(mode);
  append_u64(out, best);
  switch (mode) {
    case kPlaneRaw:
      out.insert(out.end(), plane, plane + n);
      break;
    case kPlaneRle:
      for (const auto& [len_, value] : runs) {
        out.push_back(len_);
        out.push_back(value);
      }
      break;
    case kPlanePacked: {
      std::uint8_t index_of[256];
      out.push_back(static_cast<std::uint8_t>(distinct));
      std::uint8_t next = 0;
      for (int v = 0; v < 256; ++v) {
        if (seen[v]) {
          index_of[v] = next++;
          out.push_back(static_cast<std::uint8_t>(v));
        }
      }
      if (packed_bits > 0) {
        // Little-endian bit stream: index j occupies bits
        // [j*bits, (j+1)*bits); widths that do not divide 8 cross byte
        // boundaries through the accumulator.
        std::uint32_t acc = 0;
        std::size_t filled = 0;
        for (std::size_t i = 0; i < n; ++i) {
          acc |= static_cast<std::uint32_t>(index_of[plane[i]]) << filled;
          filled += packed_bits;
          while (filled >= 8) {
            out.push_back(static_cast<std::uint8_t>(acc));
            acc >>= 8;
            filled -= 8;
          }
        }
        if (filled != 0) out.push_back(static_cast<std::uint8_t>(acc));
      }
      break;
    }
  }
}

const std::uint8_t* decode_plane(const std::uint8_t* p,
                                 const std::uint8_t* end, std::uint8_t* plane,
                                 std::size_t n) {
  const auto need = [&](std::size_t k) {
    if (static_cast<std::size_t>(end - p) < k)
      throw ArtifactError("shuffle codec: truncated plane");
  };
  need(1 + sizeof(std::uint64_t));
  const std::uint8_t mode = *p++;
  std::uint64_t len;
  std::memcpy(&len, p, sizeof len);
  p += sizeof len;
  need(static_cast<std::size_t>(len));
  const std::uint8_t* const payload_end = p + len;
  switch (mode) {
    case kPlaneRaw:
      if (len != n) throw ArtifactError("shuffle codec: bad raw plane size");
      std::memcpy(plane, p, n);
      p = payload_end;
      break;
    case kPlaneRle: {
      std::size_t i = 0;
      while (p < payload_end) {
        if (payload_end - p < 2 || p[0] == 0 || i + p[0] > n)
          throw ArtifactError("shuffle codec: bad RLE plane");
        std::memset(plane + i, p[1], p[0]);
        i += p[0];
        p += 2;
      }
      if (i != n) throw ArtifactError("shuffle codec: RLE plane short");
      break;
    }
    case kPlanePacked: {
      if (len < 1) throw ArtifactError("shuffle codec: bad packed plane");
      const std::size_t k = *p++;
      if (k == 0 || k > 128 || len < 1 + k)
        throw ArtifactError("shuffle codec: bad packed dict");
      const std::uint8_t* dict = p;
      p += k;
      std::size_t bits = 0;
      while ((std::size_t{1} << bits) < k) ++bits;
      const std::size_t index_bytes = (n * bits + 7) / 8;
      if (len != 1 + k + index_bytes)
        throw ArtifactError("shuffle codec: bad packed plane size");
      if (bits == 0) {
        std::memset(plane, dict[0], n);
      } else {
        const std::uint32_t mask = (std::uint32_t{1} << bits) - 1;
        // Mirror of the encoder's little-endian bit stream; an index can
        // span two bytes, so widen through a u16 window (the trailing
        // partial byte is zero-padded by the encoder).
        for (std::size_t i = 0; i < n; ++i) {
          const std::size_t bit = i * bits;
          std::uint32_t window = p[bit / 8];
          if (bit / 8 + 1 < index_bytes)
            window |= static_cast<std::uint32_t>(p[bit / 8 + 1]) << 8;
          const std::uint32_t idx = (window >> (bit % 8)) & mask;
          if (idx >= k)
            throw ArtifactError("shuffle codec: packed index out of range");
          plane[i] = dict[idx];
        }
        p += index_bytes;
      }
      break;
    }
    default:
      throw ArtifactError("shuffle codec: unknown plane mode");
  }
  return payload_end;
}

// ---------------------------------------------------------------------------
// Shuffle-codec exponent/mantissa bit-split layout
// ---------------------------------------------------------------------------
//
// SGD-trained factor matrices are the artifact store's hard case: the 52
// mantissa bits and the sign are incompressible noise, so byte-granular
// plane coding can never beat ~0.91x on them — the compressible exponent
// bits are smeared across two byte planes. This layout splits each
// rotated value at the bit level instead: the 11 exponent bits are
// escape-coded against a frequency-sorted dictionary (clustered factor
// magnitudes cost ~3-5 bits each), and the 53 mantissa+sign bits are
// bit-packed verbatim — approaching the 53/64 entropy floor.

/// LSB-first bit stream writer (widths <= 32 per put).
class BitWriter {
 public:
  explicit BitWriter(std::vector<std::uint8_t>& out) : out_(out) {}
  void put(std::uint32_t value, std::size_t width) {
    acc_ |= static_cast<std::uint64_t>(value) << nbits_;
    nbits_ += width;
    while (nbits_ >= 8) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ >>= 8;
      nbits_ -= 8;
    }
  }
  void put53(std::uint64_t value) {
    put(static_cast<std::uint32_t>(value & 0xFFFFFFFFu), 32);
    put(static_cast<std::uint32_t>(value >> 32), 21);
  }
  void flush() {
    if (nbits_ > 0) {
      out_.push_back(static_cast<std::uint8_t>(acc_));
      acc_ = 0;
      nbits_ = 0;
    }
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t acc_ = 0;
  std::size_t nbits_ = 0;
};

/// Bounds-checked LSB-first bit stream reader.
class BitReader {
 public:
  BitReader(const std::uint8_t* p, const std::uint8_t* end)
      : p_(p), end_(end) {}
  std::uint32_t get(std::size_t width) {
    while (nbits_ < width) {
      if (p_ == end_)
        throw ArtifactError("shuffle codec: truncated bit stream");
      acc_ |= static_cast<std::uint64_t>(*p_++) << nbits_;
      nbits_ += 8;
    }
    const auto v =
        static_cast<std::uint32_t>(acc_ & ((std::uint64_t{1} << width) - 1));
    acc_ >>= width;
    nbits_ -= width;
    return v;
  }
  std::uint64_t get53() {
    const std::uint64_t lo = get(32);
    return lo | (static_cast<std::uint64_t>(get(21)) << 32);
  }
  /// Byte cursor after the bits consumed so far. Every loaded byte is at
  /// least partially consumed (the buffer never holds >= 8 spare bits),
  /// and the encoder pads the final byte, so the cursor is the load point.
  const std::uint8_t* byte_cursor() const { return p_; }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
  std::uint64_t acc_ = 0;
  std::size_t nbits_ = 0;
};

constexpr std::uint64_t kMant53Mask = (std::uint64_t{1} << 53) - 1;

/// Appends the exp-split encoding of the rotated values:
///   u8 bits | u16 dcount | dcount x u16 dict | bit stream
/// Code semantics: codes 0..dcount-1 index the dict; when dcount <
/// 2^bits, the all-ones code escapes to 11 raw exponent bits. The code
/// stream (one code [+ escape bits] per value) is followed by 53 mantissa
/// +sign bits per value in the same stream.
void encode_expsplit(std::vector<std::uint8_t>& out,
                     const std::uint64_t* rot, std::size_t n) {
  std::vector<std::uint32_t> count(2048, 0);
  for (std::size_t i = 0; i < n; ++i) ++count[rot[i] >> 53];
  std::vector<std::uint16_t> symbols;
  for (std::uint32_t e = 0; e < 2048; ++e) {
    if (count[e] > 0) symbols.push_back(static_cast<std::uint16_t>(e));
  }
  std::sort(symbols.begin(), symbols.end(),
            [&](std::uint16_t a, std::uint16_t b) {
              return count[a] != count[b] ? count[a] > count[b] : a < b;
            });
  const std::size_t k = symbols.size();

  // Pick the code width minimizing total bits (direct codes for the most
  // frequent symbols, 11 raw bits after an escape for the rest).
  std::size_t best_bits = 11;
  std::uint64_t best_cost = ~std::uint64_t{0};
  for (std::size_t bits = (k == 1 ? 0 : 1); bits <= 11; ++bits) {
    const std::size_t capacity = std::size_t{1} << bits;
    const std::size_t direct = k <= capacity ? k : capacity - 1;
    std::uint64_t escaped = 0;
    for (std::size_t s = direct; s < k; ++s) escaped += count[symbols[s]];
    const std::uint64_t cost =
        16 * direct + n * bits + escaped * 11;
    if (cost < best_cost) {
      best_cost = cost;
      best_bits = bits;
    }
    if (k <= capacity) break;  // wider codes only add direct-code bits
  }
  const std::size_t bits = best_bits;
  const std::size_t capacity = std::size_t{1} << bits;
  const std::size_t direct = k <= capacity ? k : capacity - 1;

  out.push_back(static_cast<std::uint8_t>(bits));
  const auto dcount = static_cast<std::uint16_t>(direct);
  out.push_back(static_cast<std::uint8_t>(dcount));
  out.push_back(static_cast<std::uint8_t>(dcount >> 8));
  std::vector<std::uint16_t> rank(2048, 0xFFFF);
  for (std::size_t s = 0; s < direct; ++s) {
    rank[symbols[s]] = static_cast<std::uint16_t>(s);
    out.push_back(static_cast<std::uint8_t>(symbols[s]));
    out.push_back(static_cast<std::uint8_t>(symbols[s] >> 8));
  }
  BitWriter bw(out);
  for (std::size_t i = 0; i < n; ++i) {
    const auto e = static_cast<std::uint32_t>(rot[i] >> 53);
    if (bits == 0) continue;  // k == 1: the dict entry says it all
    const std::uint16_t r = rank[e];
    if (r != 0xFFFF) {
      bw.put(r, bits);
    } else {
      bw.put(static_cast<std::uint32_t>(capacity - 1), bits);
      bw.put(e, 11);
    }
  }
  for (std::size_t i = 0; i < n; ++i) bw.put53(rot[i] & kMant53Mask);
  bw.flush();
}

const std::uint8_t* decode_expsplit(const std::uint8_t* p,
                                    const std::uint8_t* end,
                                    std::uint64_t* rot, std::size_t n) {
  const auto need = [&](std::size_t want) {
    if (static_cast<std::size_t>(end - p) < want)
      throw ArtifactError("shuffle codec: truncated exp-split header");
  };
  need(3);
  const std::size_t bits = *p++;
  std::uint16_t dcount;
  std::memcpy(&dcount, p, sizeof dcount);
  p += sizeof dcount;
  // The encoder always emits at least one direct dict entry (direct =
  // min(k, capacity-1) >= 1), so a zero dcount is corrupt.
  if (bits > 11 || dcount == 0 || dcount > 2048 ||
      (bits == 0 && dcount != 1) ||
      (bits > 0 && dcount > (std::size_t{1} << bits)))
    throw ArtifactError("shuffle codec: bad exp-split header");
  need(2 * static_cast<std::size_t>(dcount));
  std::vector<std::uint16_t> dict(dcount);
  std::memcpy(dict.data(), p, 2 * dict.size());
  p += 2 * dict.size();
  for (const auto e : dict) {
    if (e >= 2048)
      throw ArtifactError("shuffle codec: exp-split dict entry out of range");
  }
  const std::size_t capacity = std::size_t{1} << bits;
  const bool has_escape = bits > 0 && dcount < capacity;
  BitReader br(p, end);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t e;
    if (bits == 0) {
      e = dict[0];
    } else {
      const std::uint32_t code = br.get(bits);
      if (has_escape && code == capacity - 1) {
        e = br.get(11);  // masked to 11 bits, always < 2048
      } else {
        if (code >= dcount)
          throw ArtifactError("shuffle codec: exp-split code out of range");
        e = dict[code];
      }
    }
    rot[i] = static_cast<std::uint64_t>(e) << 53;
  }
  for (std::size_t i = 0; i < n; ++i) rot[i] |= br.get53();
  return br.byte_cursor();
}

void read_exact(std::istream& is, void* p, std::size_t n,
                const char* what) {
  is.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(is.gcount()) != n)
    throw ArtifactError(std::string("artifact: truncated ") + what);
}

void write_exact(std::ostream& os, const void* p, std::size_t n) {
  os.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  if (!os) throw ArtifactError("artifact: write failed");
}

}  // namespace

std::uint32_t crc32c(const void* data, std::size_t n) {
  return ~simd::crc32c_update(~std::uint32_t{0},
                              static_cast<const std::uint8_t*>(data), n);
}

const char* codec_name(Codec c) {
  switch (c) {
    case Codec::kRaw:
      return "raw";
    case Codec::kShuffle:
      return "shuffle";
  }
  return "?";
}

void encode_f64(std::vector<std::uint8_t>& out, const double* v,
                std::size_t n, Codec codec) {
  out.push_back(static_cast<std::uint8_t>(codec));
  if (n == 0) return;
  switch (codec) {
    case Codec::kRaw: {
      const auto* b = reinterpret_cast<const std::uint8_t*>(v);
      out.insert(out.end(), b, b + n * sizeof(double));
      break;
    }
    case Codec::kShuffle: {
      std::vector<std::uint64_t> rot(n);
      std::memcpy(rot.data(), v, n * sizeof(double));
      for (auto& x : rot) x = rotl1(x);
      // Two exact layouts; keep whichever is smaller for this column:
      // byte planes win on regular data (repetitive mantissas), the
      // exponent/mantissa bit-split wins on continuous data whose
      // mantissa bits are noise.
      std::vector<std::uint8_t> planes_enc;
      {
        std::vector<std::uint8_t> planes(8 * n);
        simd::shuffle_u64(planes.data(), rot.data(), n);
        for (std::size_t plane = 0; plane < 8; ++plane) {
          encode_plane(planes_enc, planes.data() + plane * n, n);
        }
      }
      std::vector<std::uint8_t> split_enc;
      encode_expsplit(split_enc, rot.data(), n);
      if (planes_enc.size() <= split_enc.size()) {
        out.push_back(kLayoutPlanes);
        out.insert(out.end(), planes_enc.begin(), planes_enc.end());
      } else {
        out.push_back(kLayoutExpSplit);
        out.insert(out.end(), split_enc.begin(), split_enc.end());
      }
      break;
    }
  }
}

const std::uint8_t* decode_f64(const std::uint8_t* p, const std::uint8_t* end,
                               double* out, std::size_t n) {
  const auto need = [&](std::size_t k) {
    if (static_cast<std::size_t>(end - p) < k)
      throw ArtifactError("f64 codec: truncated column");
  };
  need(1);
  const std::uint8_t codec = *p++;
  if (n == 0) {
    if (codec != static_cast<std::uint8_t>(Codec::kRaw) &&
        codec != static_cast<std::uint8_t>(Codec::kShuffle))
      throw ArtifactError("f64 codec: unknown codec byte");
    return p;
  }
  switch (static_cast<Codec>(codec)) {
    case Codec::kRaw:
      need(n * sizeof(double));
      std::memcpy(out, p, n * sizeof(double));
      return p + n * sizeof(double);
    case Codec::kShuffle: {
      need(1);
      const std::uint8_t layout = *p++;
      std::vector<std::uint64_t> rot(n);
      if (layout == kLayoutPlanes) {
        std::vector<std::uint8_t> planes(8 * n);
        for (std::size_t plane = 0; plane < 8; ++plane) {
          p = decode_plane(p, end, planes.data() + plane * n, n);
        }
        simd::unshuffle_u64(rot.data(), planes.data(), n);
      } else if (layout == kLayoutExpSplit) {
        p = decode_expsplit(p, end, rot.data(), n);
      } else {
        throw ArtifactError("shuffle codec: unknown column layout");
      }
      for (auto& x : rot) x = rotr1(x);
      std::memcpy(out, rot.data(), n * sizeof(double));
      return p;
    }
  }
  throw ArtifactError("f64 codec: unknown codec byte");
}

// ---------------------------------------------------------------------------
// Container framing
// ---------------------------------------------------------------------------

ArtifactWriter::ArtifactWriter(std::ostream& os, const char kind[4],
                               std::uint32_t version)
    : os_(os) {
  write_exact(os_, kContainerMagic, 4);
  write_exact(os_, &kContainerVersion, sizeof kContainerVersion);
  write_exact(os_, kind, 4);
  write_exact(os_, &version, sizeof version);
}

void ArtifactWriter::chunk(const char tag[4], const ChunkWriter& payload) {
  const auto& bytes = payload.data();
  // Mirror of the reader's cap: refuse to persist a chunk no reader will
  // accept back.
  if (bytes.size() > kMaxChunkBytes)
    throw ArtifactError("artifact: chunk exceeds format cap");
  const std::uint64_t len = bytes.size();
  const std::uint32_t crc = crc32c(bytes.data(), bytes.size());
  write_exact(os_, tag, 4);
  write_exact(os_, &len, sizeof len);
  write_exact(os_, &crc, sizeof crc);
  write_exact(os_, bytes.data(), bytes.size());
}

void ArtifactWriter::finish() {
  const std::uint64_t len = 0;
  const std::uint32_t crc = 0;
  write_exact(os_, kEndTag, 4);
  write_exact(os_, &len, sizeof len);
  write_exact(os_, &crc, sizeof crc);
}

ArtifactReader::ArtifactReader(std::istream& is, const char kind[4])
    : is_(is) {
  char magic[4];
  read_exact(is_, magic, 4, "container magic");
  if (std::memcmp(magic, kContainerMagic, 4) != 0)
    throw ArtifactError("artifact: bad container magic '" +
                        printable_magic(magic) +
                        "' (pre-ATAC formats are no longer read)");
  std::uint32_t container_version;
  read_exact(is_, &container_version, sizeof container_version,
             "container version");
  if (container_version != kContainerVersion)
    throw ArtifactError("artifact: unsupported container version");
  char got_kind[4];
  read_exact(is_, got_kind, 4, "artifact kind");
  if (std::memcmp(got_kind, kind, 4) != 0)
    throw ArtifactError(std::string("artifact: kind mismatch, want ") +
                        std::string(kind, 4) + " got " +
                        std::string(got_kind, 4));
  read_exact(is_, &version_, sizeof version_, "artifact version");
}

ChunkReader ArtifactReader::chunk(const char tag[4]) {
  // Fault-injection site: an armed "artifact.chunk" error surfaces as this
  // layer's structured error, exactly like real corruption would.
  if (failpoint::any_armed()) {
    try {
      failpoint::check_throw("artifact.chunk");
    } catch (const failpoint::FailpointError& e) {
      throw ArtifactError(e.what());
    }
  }
  char got[4];
  read_exact(is_, got, 4, "chunk tag");
  if (std::memcmp(got, tag, 4) != 0)
    throw ArtifactError(std::string("artifact: chunk tag mismatch, want ") +
                        std::string(tag, 4) + " got " + std::string(got, 4));
  std::uint64_t len;
  std::uint32_t crc;
  read_exact(is_, &len, sizeof len, "chunk length");
  read_exact(is_, &crc, sizeof crc, "chunk crc");
  if (len > kMaxChunkBytes)
    throw ArtifactError("artifact: chunk length implausibly large");
  // Read in bounded pieces so a forged length fails on the (short) stream
  // instead of attempting one multi-gigabyte allocation up front.
  constexpr std::size_t kReadStep = std::size_t{1} << 26;
  std::vector<std::uint8_t> payload;
  payload.reserve(static_cast<std::size_t>(
      len < kReadStep ? len : std::uint64_t{kReadStep}));
  std::uint64_t left = len;
  while (left > 0) {
    const std::size_t step =
        static_cast<std::size_t>(left < kReadStep ? left : kReadStep);
    const std::size_t base = payload.size();
    payload.resize(base + step);
    read_exact(is_, payload.data() + base, step, "chunk payload");
    left -= step;
  }
  if (crc32c(payload.data(), payload.size()) != crc)
    throw ArtifactError(std::string("artifact: CRC mismatch in chunk ") +
                        std::string(tag, 4));
  return ChunkReader(std::move(payload));
}

void ArtifactReader::finish() {
  char got[4];
  read_exact(is_, got, 4, "end marker");
  if (std::memcmp(got, kEndTag, 4) != 0)
    throw ArtifactError("artifact: missing end marker");
  std::uint64_t len;
  std::uint32_t crc;
  read_exact(is_, &len, sizeof len, "end marker length");
  read_exact(is_, &crc, sizeof crc, "end marker crc");
  if (len != 0 || crc != 0)
    throw ArtifactError("artifact: malformed end marker");
}

}  // namespace at::common
