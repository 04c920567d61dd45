// Unified artifact store: container framing, the two exact f64 codecs
// (raw / shuffle) across every SIMD dispatch tier, fuzz-style corrupt
// and truncated inputs (must throw cleanly — the suite runs under the
// ASan/UBSan CI jobs), the clear error for retired pre-container formats,
// and golden files locking the current writers' bytes.
#include "common/artifact.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/simd.h"
#include "services/recommender/component.h"
#include "services/search/component.h"
#include "synopsis/serialize.h"
#include "golden_fixtures.h"

namespace at::common {
namespace {

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> tiers = {simd::Tier::kScalar};
  if (simd::max_supported_tier() >= simd::Tier::kAvx2)
    tiers.push_back(simd::Tier::kAvx2);
  return tiers;
}

/// Restores the entry dispatch tier on scope exit.
struct TierGuard {
  simd::Tier entry = simd::active_tier();
  ~TierGuard() { simd::set_tier(entry); }
};

/// Mixed-sign doubles with magnitudes in the few-octave band SVD factors
/// actually occupy (~0.05..2), the shuffle codec's target distribution.
std::vector<double> continuous_column(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = 0.05 + 2.0 * static_cast<double>((i * 37) % 100) / 100.0;
    v[i] = (i % 3 == 0 ? -1.0 : 1.0) * mag / 1.37;
  }
  return v;
}

/// The awkward case for shuffle: magnitudes spanning many octaves (the
/// exponent planes carry more distinct bytes). Exactness must still hold.
std::vector<double> wide_range_column(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = 0.01 + 0.4 * static_cast<double>((i * 37) % 100);
    v[i] = (i % 3 == 0 ? -1.0 : 1.0) * mag / 7.0;
  }
  return v;
}

std::vector<double> count_column(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<double>(1 + (i * 13) % 200);
    if (i % 17 == 0) v[i] += 0.5;     // non-integral
    if (i % 23 == 0) v[i] = 400.0;    // beyond one byte
  }
  return v;
}

std::vector<double> nasty_column() {
  return {0.0, -0.0, 1.0, -1.0, 255.0, 256.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::min(), 1e-300, -1e300, 0.1, 3.0};
}

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << "value " << i << ": " << a[i] << " vs " << b[i];
  }
}

TEST(Crc32c, KnownVectorAndTierParity) {
  // The iSCSI test vector: CRC32C("123456789") == 0xE3069283.
  const char* s = "123456789";
  TierGuard guard;
  for (simd::Tier tier : supported_tiers()) {
    simd::set_tier(tier);
    EXPECT_EQ(crc32c(s, 9), 0xE3069283u) << simd::tier_name(tier);
  }
  // Tier parity on awkward lengths (tails around the 8-byte hw stride).
  std::vector<std::uint8_t> buf(1031);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 3));
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1031u}) {
    simd::set_tier(simd::Tier::kScalar);
    const std::uint32_t want = crc32c(buf.data(), len);
    for (simd::Tier tier : supported_tiers()) {
      simd::set_tier(tier);
      EXPECT_EQ(crc32c(buf.data(), len), want)
          << simd::tier_name(tier) << " len " << len;
    }
  }
}

TEST(ShuffleKernel, TierParityAndRoundTrip) {
  TierGuard guard;
  for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 16u, 33u, 200u}) {
    std::vector<std::uint64_t> in(n);
    for (std::size_t i = 0; i < n; ++i)
      in[i] = 0x0123456789ABCDEFull * (i + 1) + (i << 56);
    simd::set_tier(simd::Tier::kScalar);
    std::vector<std::uint8_t> want(8 * n);
    simd::shuffle_u64(want.data(), in.data(), n);
    for (simd::Tier tier : supported_tiers()) {
      simd::set_tier(tier);
      std::vector<std::uint8_t> got(8 * n);
      simd::shuffle_u64(got.data(), in.data(), n);
      EXPECT_EQ(got, want) << simd::tier_name(tier) << " n=" << n;
      std::vector<std::uint64_t> back(n);
      simd::unshuffle_u64(back.data(), got.data(), n);
      EXPECT_EQ(back, in) << simd::tier_name(tier) << " n=" << n;
    }
  }
}

TEST(F64Codecs, ExactRoundTripAllCodecsAllTiers) {
  TierGuard guard;
  const std::vector<std::vector<double>> columns = {
      {}, {42.0}, continuous_column(5), continuous_column(1000),
      wide_range_column(1000), count_column(300), nasty_column(),
      std::vector<double>(500, 0.0)};
  for (const auto& column : columns) {
    for (Codec codec : kAllCodecs) {
      for (simd::Tier enc_tier : supported_tiers()) {
        simd::set_tier(enc_tier);
        std::vector<std::uint8_t> bytes;
        encode_f64(bytes, column.data(), column.size(), codec);
        for (simd::Tier dec_tier : supported_tiers()) {
          simd::set_tier(dec_tier);
          std::vector<double> out(column.size());
          const std::uint8_t* end = decode_f64(
              bytes.data(), bytes.data() + bytes.size(), out.data(),
              out.size());
          EXPECT_EQ(end, bytes.data() + bytes.size())
              << codec_name(codec) << " left trailing bytes";
          expect_bits_equal(out, column);
        }
      }
    }
  }
}

TEST(F64Codecs, EncodingsAreTierIndependent) {
  // The *bytes* must match across tiers too (the shuffle kernel is a pure
  // permutation), so artifacts written on any machine compare equal.
  TierGuard guard;
  const auto column = continuous_column(777);
  for (Codec codec : kAllCodecs) {
    simd::set_tier(simd::Tier::kScalar);
    std::vector<std::uint8_t> want;
    encode_f64(want, column.data(), column.size(), codec);
    for (simd::Tier tier : supported_tiers()) {
      simd::set_tier(tier);
      std::vector<std::uint8_t> got;
      encode_f64(got, column.data(), column.size(), codec);
      EXPECT_EQ(got, want) << codec_name(codec) << " on "
                           << simd::tier_name(tier);
    }
  }
}

TEST(F64Codecs, ShuffleBeatsRawOnContinuousData) {
  const auto column = continuous_column(4096);
  std::vector<std::uint8_t> raw, shuffle;
  encode_f64(raw, column.data(), column.size(), Codec::kRaw);
  encode_f64(shuffle, column.data(), column.size(), Codec::kShuffle);
  EXPECT_LE(static_cast<double>(shuffle.size()),
            0.9 * static_cast<double>(raw.size()))
      << "shuffle " << shuffle.size() << " vs raw " << raw.size();
}

// Codec byte 2 belonged to the retired q8 codec (one byte per integral
// 1..255 value, then a u64 exception count and the exception doubles).
// Only raw (0) and shuffle (1) are read: a well-formed q8 column fails
// with ArtifactError wherever a column is decoded.
TEST(F64Codecs, RetiredCodecByteRejected) {
  constexpr std::uint8_t kRetiredQ8 = 2;
  // The values {3, 4}: two codes and a zero exception count.
  std::vector<std::uint8_t> column = {kRetiredQ8, 3, 4};
  column.resize(column.size() + sizeof(std::uint64_t), 0);
  double out[2];
  EXPECT_THROW(
      decode_f64(column.data(), column.data() + column.size(), out, 2),
      ArtifactError);

  // Through a whole MATX artifact whose chunk CRCs are valid, so the codec
  // check, not a checksum, is what rejects it.
  std::stringstream buf;
  {
    ArtifactWriter w(buf, "MATX", 1);
    ChunkWriter meta;
    meta.u64(1);
    meta.u64(2);
    w.chunk("META", meta);
    ChunkWriter data;
    data.u64(2);
    for (const std::uint8_t byte : column) data.u8(byte);
    w.chunk("DATA", data);
    w.finish();
  }
  try {
    (void)linalg::load_matrix(buf);
    FAIL() << "a q8 column loaded";
  } catch (const ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown codec byte"),
              std::string::npos)
        << e.what();
  }
}

TEST(ArtifactContainer, ChunkRoundTripAndKindChecks) {
  std::stringstream buf;
  {
    ArtifactWriter w(buf, "TSTK", 3);
    ChunkWriter meta;
    meta.u64(7);
    meta.str("hello");
    meta.vec_u32(std::vector<std::uint32_t>{1, 2, 3});
    w.chunk("META", meta);
    ChunkWriter data;
    data.vec_f64({1.5, -2.5, 1e308}, Codec::kShuffle);
    w.chunk("DATA", data);
    w.finish();
  }
  ArtifactReader r(buf, "TSTK");
  EXPECT_EQ(r.version(), 3u);
  ChunkReader meta = r.chunk("META");
  EXPECT_EQ(meta.u64(), 7u);
  EXPECT_EQ(meta.str(), "hello");
  EXPECT_EQ(meta.vec_u32(), (std::vector<std::uint32_t>{1, 2, 3}));
  meta.expect_consumed();
  ChunkReader data = r.chunk("DATA");
  EXPECT_EQ(data.vec_f64(), (std::vector<double>{1.5, -2.5, 1e308}));
  data.expect_consumed();
  r.finish();

  std::stringstream again(buf.str());
  EXPECT_THROW(ArtifactReader(again, "OTHR"), ArtifactError);
}

TEST(ArtifactContainer, EmptyStringAndBlobRoundTrip) {
  ChunkWriter w;
  w.str("");
  w.blob(std::vector<std::uint8_t>{});
  w.blob(nullptr, 0);
  w.u32(7);
  EXPECT_EQ(w.data().size(), 3 * sizeof(std::uint64_t) + sizeof(std::uint32_t));
  ChunkReader r{std::vector<std::uint8_t>(w.data())};
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.blob().empty());
  EXPECT_EQ(r.u32(), 7u);
  r.expect_consumed();
}

TEST(ArtifactContainer, WrongChunkTagThrows) {
  std::stringstream buf;
  ArtifactWriter w(buf, "TSTK", 1);
  w.chunk("AAAA", ChunkWriter{});
  w.finish();
  ArtifactReader r(buf, "TSTK");
  EXPECT_THROW(r.chunk("BBBB"), ArtifactError);
}

TEST(ArtifactFuzz, EveryTruncationThrows) {
  std::stringstream buf;
  linalg::save(buf, testing::golden_matrix());
  const std::string bytes = buf.str();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::stringstream cut(bytes.substr(0, len));
    EXPECT_THROW(linalg::load_matrix(cut), std::runtime_error) << "len " << len;
  }
}

TEST(ArtifactFuzz, EveryByteFlipThrowsOrRoundTrips) {
  std::stringstream buf;
  linalg::save(buf, testing::golden_svd_model());
  const std::string bytes = buf.str();
  const auto reference = testing::golden_svd_model();
  std::size_t flips_survived = 0;
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0xFF);
    std::stringstream in(mutated);
    try {
      const auto loaded = linalg::load_svd_model(in);
      // A surviving flip would have to beat the chunk CRCs; count it so a
      // framing hole shows up as a failure here instead of silence.
      ++flips_survived;
      EXPECT_EQ(loaded.train_rmse, reference.train_rmse);
    } catch (const std::runtime_error&) {
      // Expected: CRC mismatch / bad magic / truncation, never UB.
    }
  }
  EXPECT_EQ(flips_survived, 0u);
}

TEST(ArtifactFuzz, CorruptCodecPayloadsThrowCleanly) {
  // Mutate only the DATA chunk payload bytes but patch the CRC to match,
  // so the codec decoders themselves (not just the CRC) are exercised
  // against malformed plane modes, dict sizes and exception counts.
  const auto column = continuous_column(64);
  for (Codec codec : kAllCodecs) {
    std::vector<std::uint8_t> payload;
    payload.push_back(8);  // leading u64 count (little-endian 64)
    for (int i = 0; i < 7; ++i) payload.push_back(0);
    encode_f64(payload, column.data(), 8, codec);
    for (std::size_t pos = 8; pos < payload.size(); ++pos) {
      for (const std::uint8_t delta : {0x01, 0xFF}) {
        std::vector<std::uint8_t> mutated = payload;
        mutated[pos] = static_cast<std::uint8_t>(mutated[pos] ^ delta);
        ChunkReader reader{std::move(mutated)};
        try {
          const auto out = reader.vec_f64();
          EXPECT_EQ(out.size(), 8u);  // decoded *something* in bounds
        } catch (const std::runtime_error&) {
          // Clean rejection is equally fine; ASan/UBSan guard the rest.
        }
      }
    }
  }
}

TEST(ArtifactFuzz, ForgedRowEntryCountRejected) {
  // A CRC-valid SROW artifact whose per-row entry count dwarfs its
  // encoded bytes must throw before decode_list reserves for it.
  std::stringstream buf;
  {
    ArtifactWriter w(buf, "SROW", 1);
    ChunkWriter meta;
    meta.u64(8);  // cols
    meta.u64(1);  // rows
    w.chunk("META", meta);
    ChunkWriter body;
    body.u64(std::uint64_t{1} << 40);  // forged entry count
    body.blob(std::vector<std::uint8_t>{0x00});
    w.chunk("ROWS", body);
    w.finish();
  }
  EXPECT_THROW(synopsis::load_sparse_rows(buf), ArtifactError);
}

TEST(ArtifactFuzz, OverflowingMatrixDimensionsRejected) {
  // rows * cols wrapping to 0 must not pass the element-count check and
  // index out of bounds of the (empty) storage.
  std::stringstream buf;
  ArtifactWriter w(buf, "MATX", 1);
  ChunkWriter meta;
  meta.u64(std::uint64_t{1} << 32);
  meta.u64(std::uint64_t{1} << 32);
  w.chunk("META", meta);
  ChunkWriter data;
  data.vec_f64({}, Codec::kRaw);
  w.chunk("DATA", data);
  w.finish();
  EXPECT_THROW(linalg::load_matrix(buf), std::runtime_error);
}

TEST(ArtifactFuzz, ForgedF64CountsRejectedBeforeAllocating) {
  // A CRC-valid chunk whose f64 count is forged must throw ArtifactError
  // without first value-initializing gigabytes.
  const auto forged = [](std::uint64_t n, Codec codec) {
    ChunkWriter w;
    w.u64(n);
    w.u8(static_cast<std::uint8_t>(codec));
    ChunkReader r{std::vector<std::uint8_t>(w.data())};
    return r;  // copy elision; reader owns the forged payload
  };
  for (Codec codec : kAllCodecs) {
    auto r = forged(std::uint64_t{1} << 28 | 1, codec);
    EXPECT_THROW(r.vec_f64(), ArtifactError) << codec_name(codec);
  }
  // Payload-relative bound for raw, which spends 8 bytes per value.
  auto raw = forged(1000, Codec::kRaw);  // 1000 doubles, 0 payload bytes
  EXPECT_THROW(raw.vec_f64(), ArtifactError);
}

// ---------------------------------------------------------------------------
// Retired formats: the pre-container magics are no longer read. Each loader
// must fail with an ArtifactError that names the magic it found.
// ---------------------------------------------------------------------------

using Loader = std::function<void(std::istream&)>;

/// Feeds `magic`, a v1 version word and zero padding (the shape every
/// pre-container header had) to `load`; returns the ArtifactError text.
std::string retired_format_error(const std::string& magic, const Loader& load) {
  std::stringstream buf;
  buf << magic << std::string("\x01\x00\x00\x00", 4) << std::string(64, '\0');
  try {
    load(buf);
  } catch (const ArtifactError& e) {
    return e.what();
  }
  return "(loaded)";
}

TEST(RetiredFormats, PreAtacMagicsFailWithClearError) {
  const std::vector<std::pair<std::string, Loader>> cases = {
      {"ATSR", [](std::istream& is) { (void)synopsis::load_sparse_rows(is); }},
      {"ATMX", [](std::istream& is) { (void)linalg::load_matrix(is); }},
      {"ATSV", [](std::istream& is) { (void)linalg::load_svd_model(is); }},
      {"ATIX", [](std::istream& is) { (void)synopsis::load_index_file(is); }},
      {"ATSY", [](std::istream& is) { (void)synopsis::load_synopsis(is); }},
      {"ATSS", [](std::istream& is) { (void)synopsis::load_structure(is); }},
      {"ATSC",
       [](std::istream& is) { (void)search::SearchComponent::load(is); }},
      {"ATRC",
       [](std::istream& is) { (void)reco::RecommenderComponent::load(is); }},
  };
  for (const auto& [magic, load] : cases) {
    const std::string what = retired_format_error(magic, load);
    const std::string want =
        "'" + magic + "' (pre-ATAC formats are no longer read)";
    EXPECT_NE(what.find(want), std::string::npos) << magic << ": " << what;
  }
  // Non-printable header bytes are named as \xNN escapes.
  const std::string what =
      retired_format_error(std::string("\x00\x7F", 2) + "AB", cases[1].second);
  EXPECT_NE(what.find("'\\x00\\x7FAB'"), std::string::npos) << what;
}

// ---------------------------------------------------------------------------
// Golden lock for the CURRENT (ATAC container) writers: the checked-in
// bytes were produced by today's writers with the codec pinned; these tests
// fail the moment a writer's output drifts, making the next format change
// a conscious version bump (regenerate with AT_REGEN_GOLDEN=1, inspect the
// diff, bump the kind version) instead of an accident. The paired load
// tests keep proving the files still deserialize to the fixtures (recipes:
// tests/golden_fixtures.h).
// ---------------------------------------------------------------------------

std::ifstream open_golden(const std::string& name) {
  const std::string path = std::string(AT_TEST_DATA_DIR) + "/golden/" + name;
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing golden fixture " << path;
  return is;
}

void expect_rows_equal(const synopsis::SparseRows& got,
                       const synopsis::SparseRows& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::uint32_t r = 0; r < want.rows(); ++r) {
    const auto a = got.row(r);
    const auto b = want.row(r);
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.cols()[i], b.cols()[i]) << "row " << r;
      EXPECT_EQ(a.vals()[i], b.vals()[i]) << "row " << r;
    }
  }
}

void expect_matrix_bits_equal(const linalg::Matrix& got,
                              const linalg::Matrix& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      const double a = got(r, c);
      const double b = want(r, c);
      EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << r << "," << c << ": " << a << " vs " << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Codec edge-case property tests: IEEE special values through the shuffle
// byte planes and exponent/mantissa bit-split. Every codec must reproduce
// the exact bit patterns (NaN payloads included) in every SIMD dispatch
// tier, and the encoded bytes must not depend on the tier.
// ---------------------------------------------------------------------------

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// Columns of pure and salted special values. Uniform columns steer the
/// shuffle encoder toward its dict/RLE plane layout, continuous ones
/// toward the exponent/mantissa bit-split — so the specials hit every
/// decoder branch.
std::vector<std::pair<const char*, std::vector<double>>> special_columns() {
  const double qnan = std::numeric_limits<double>::quiet_NaN();
  const double snan = from_bits(0x7ff4deadbeef0001ull);  // signaling payload
  const double nnan = from_bits(0xfff8000000000123ull);  // negative, payload
  const double inf = std::numeric_limits<double>::infinity();
  const double dmin = std::numeric_limits<double>::denorm_min();

  std::vector<std::pair<const char*, std::vector<double>>> cols;
  cols.emplace_back("all_nan", std::vector<double>(97, qnan));
  cols.emplace_back("nan_payloads", std::vector<double>{qnan, snan, nnan,
                                                        qnan, snan, nnan});
  cols.emplace_back("all_inf", std::vector<double>(64, inf));
  cols.emplace_back("mixed_inf", std::vector<double>{inf, -inf, inf, -inf});
  cols.emplace_back("neg_zero", std::vector<double>(130, -0.0));
  cols.emplace_back("zero_signs", std::vector<double>{0.0, -0.0, 0.0, -0.0});
  cols.emplace_back("all_denormal", [&] {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
      v.push_back(from_bits(static_cast<std::uint64_t>(i * 977)));
    return v;
  }());
  cols.emplace_back("denormal_extremes",
                    std::vector<double>{
                        dmin, -dmin,
                        from_bits(0x000fffffffffffffull),   // largest subnormal
                        from_bits(0x800fffffffffffffull),   // negative largest
                        std::numeric_limits<double>::min(), // smallest normal
                        0.0});
  // Continuous data (forces the exp-split layout) salted with specials.
  cols.emplace_back("continuous_salted", [&] {
    auto v = continuous_column(512);
    for (std::size_t i = 0; i < v.size(); i += 37) v[i] = qnan;
    for (std::size_t i = 13; i < v.size(); i += 53) v[i] = (i % 2) ? inf : -inf;
    for (std::size_t i = 7; i < v.size(); i += 41) v[i] = -0.0;
    for (std::size_t i = 3; i < v.size(); i += 61) v[i] = dmin * double(i);
    return v;
  }());
  // Count-like data salted with specials.
  cols.emplace_back("counts_salted", [&] {
    auto v = count_column(512);
    for (std::size_t i = 0; i < v.size(); i += 29) v[i] = snan;
    for (std::size_t i = 11; i < v.size(); i += 43) v[i] = -inf;
    for (std::size_t i = 5; i < v.size(); i += 31) v[i] = -0.0;
    for (std::size_t i = 2; i < v.size(); i += 59) v[i] = dmin;
    return v;
  }());
  return cols;
}

TEST(CodecSpecialValues, ExactBitsPerCodecPerTier) {
  TierGuard guard;
  for (const auto& [name, column] : special_columns()) {
    for (Codec codec : kAllCodecs) {
      for (simd::Tier enc_tier : supported_tiers()) {
        simd::set_tier(enc_tier);
        std::vector<std::uint8_t> bytes;
        encode_f64(bytes, column.data(), column.size(), codec);
        for (simd::Tier dec_tier : supported_tiers()) {
          simd::set_tier(dec_tier);
          std::vector<double> out(column.size());
          const std::uint8_t* end = decode_f64(
              bytes.data(), bytes.data() + bytes.size(), out.data(),
              out.size());
          ASSERT_EQ(end, bytes.data() + bytes.size())
              << name << " via " << codec_name(codec);
          for (std::size_t i = 0; i < column.size(); ++i) {
            ASSERT_EQ(bits_of(out[i]), bits_of(column[i]))
                << name << " via " << codec_name(codec) << " enc "
                << simd::tier_name(enc_tier) << " dec "
                << simd::tier_name(dec_tier) << " value " << i;
          }
        }
      }
    }
  }
}

TEST(CodecSpecialValues, EncodedBytesTierIndependent) {
  TierGuard guard;
  for (const auto& [name, column] : special_columns()) {
    for (Codec codec : kAllCodecs) {
      simd::set_tier(simd::Tier::kScalar);
      std::vector<std::uint8_t> want;
      encode_f64(want, column.data(), column.size(), codec);
      for (simd::Tier tier : supported_tiers()) {
        simd::set_tier(tier);
        std::vector<std::uint8_t> got;
        encode_f64(got, column.data(), column.size(), codec);
        EXPECT_EQ(got, want) << name << " via " << codec_name(codec) << " on "
                             << simd::tier_name(tier);
      }
    }
  }
}

TEST(CodecSpecialValues, RandomBitPatternsRoundTripExactly) {
  // Property test: ANY 64-bit pattern — including trap representations of
  // other types' views — survives every codec bit-exactly.
  common::Rng rng(0xc0dec);
  std::vector<double> column(2048);
  for (auto& v : column) v = from_bits(rng.next());
  for (Codec codec : kAllCodecs) {
    std::vector<std::uint8_t> bytes;
    encode_f64(bytes, column.data(), column.size(), codec);
    std::vector<double> out(column.size());
    decode_f64(bytes.data(), bytes.data() + bytes.size(), out.data(),
               out.size());
    for (std::size_t i = 0; i < column.size(); ++i) {
      ASSERT_EQ(bits_of(out[i]), bits_of(column[i]))
          << codec_name(codec) << " value " << i;
    }
  }
}

std::string golden_path(const std::string& name) {
  return std::string(AT_TEST_DATA_DIR) + "/golden/" + name;
}

/// Serializes via `write`, regenerates the file when AT_REGEN_GOLDEN is
/// set, and asserts the bytes equal the checked-in golden.
template <typename WriteFn>
std::string check_current_golden(const std::string& name, WriteFn&& write) {
  std::ostringstream os(std::ios::binary);
  write(os);
  const std::string bytes = os.str();
  const std::string path = golden_path(name);
  if (std::getenv("AT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    EXPECT_TRUE(out.good()) << "could not regenerate " << path;
  }
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing current-writer golden " << path
                         << " (regenerate with AT_REGEN_GOLDEN=1)";
  std::ostringstream disk;
  disk << is.rdbuf();
  EXPECT_EQ(bytes.size(), disk.str().size()) << name;
  EXPECT_TRUE(bytes == disk.str())
      << name << ": writer output drifted from the checked-in golden — if "
      << "intentional, bump the kind version and regenerate";
  return bytes;
}

TEST(CurrentGolden, MatrixBytesStableAndLoads) {
  check_current_golden("atac_matrix_v1.bin", [](std::ostream& os) {
    linalg::save(os, testing::golden_matrix(), Codec::kShuffle);
  });
  auto is = open_golden("atac_matrix_v1.bin");
  expect_matrix_bits_equal(linalg::load_matrix(is), testing::golden_matrix());
}

TEST(CurrentGolden, SvdModelBytesStableAndLoads) {
  check_current_golden("atac_svd_model_v1.bin", [](std::ostream& os) {
    linalg::save(os, testing::golden_svd_model(), Codec::kShuffle);
  });
  auto is = open_golden("atac_svd_model_v1.bin");
  const auto got = linalg::load_svd_model(is);
  const auto want = testing::golden_svd_model();
  EXPECT_EQ(got.train_rmse, want.train_rmse);
  EXPECT_EQ(got.global_mean, want.global_mean);
  EXPECT_EQ(got.row_bias, want.row_bias);
  EXPECT_EQ(got.col_bias, want.col_bias);
  expect_matrix_bits_equal(got.row_factors, want.row_factors);
  expect_matrix_bits_equal(got.col_factors, want.col_factors);
}

TEST(CurrentGolden, SparseRowsBytesStableAndLoads) {
  check_current_golden("atac_sparse_rows_v1.bin", [](std::ostream& os) {
    synopsis::save(os, testing::golden_rows());
  });
  auto is = open_golden("atac_sparse_rows_v1.bin");
  expect_rows_equal(synopsis::load_sparse_rows(is), testing::golden_rows());
}

TEST(CurrentGolden, IndexFileBytesStableAndLoads) {
  check_current_golden("atac_index_file_v1.bin", [](std::ostream& os) {
    synopsis::save(os, testing::golden_index_file());
  });
  auto is = open_golden("atac_index_file_v1.bin");
  const auto got = synopsis::load_index_file(is);
  const auto want = testing::golden_index_file();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_EQ(got.groups()[g].node_id, want.groups()[g].node_id);
    EXPECT_EQ(got.groups()[g].version, want.groups()[g].version);
    EXPECT_EQ(got.groups()[g].members, want.groups()[g].members);
  }
}

TEST(CurrentGolden, SynopsisBytesStableAndLoads) {
  check_current_golden("atac_synopsis_v1.bin", [](std::ostream& os) {
    synopsis::save(os, testing::golden_synopsis());
  });
  auto is = open_golden("atac_synopsis_v1.bin");
  const auto got = synopsis::load_synopsis(is);
  const auto want = testing::golden_synopsis();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t g = 0; g < want.size(); ++g) {
    EXPECT_EQ(got.points[g].features, want.points[g].features);
    EXPECT_EQ(got.points[g].support, want.points[g].support);
  }
}

TEST(CurrentGolden, StructureBytesStableAndLoads) {
  // golden_structure runs the deterministic-mode build, which is
  // bit-reproducible by contract — so the serialized bytes are too.
  check_current_golden("atac_structure_v1.bin", [](std::ostream& os) {
    synopsis::save(os, testing::golden_structure(), Codec::kShuffle);
  });
  auto is = open_golden("atac_structure_v1.bin");
  auto got = synopsis::load_structure(is);
  const auto want = testing::golden_structure();
  EXPECT_EQ(got.level, want.level);
  expect_matrix_bits_equal(got.reduced, want.reduced);
  expect_matrix_bits_equal(got.svd.row_factors, want.svd.row_factors);
  got.tree.check_invariants();
}

TEST(CurrentGolden, SearchComponentBytesStableAndLoads) {
  const auto build = [] {
    return search::SearchComponent(testing::golden_rows(), 1000,
                                   testing::golden_build_config(),
                                   search::ScorerParams{}, nullptr);
  };
  check_current_golden("atac_search_component_v1.bin",
                       [&](std::ostream& os) {
                         build().save(os, Codec::kShuffle);
                       });
  auto is = open_golden("atac_search_component_v1.bin");
  const auto loaded = search::SearchComponent::load(is);
  const auto fresh = build();
  const search::SearchRequest request{{1, 5, 12}};
  const auto got = loaded.exact_topk(request, 5);
  const auto want = fresh.exact_topk(request, 5);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc);
    EXPECT_EQ(got[i].score, want[i].score);
  }
}

TEST(CurrentGolden, RecommenderComponentBytesStableAndLoads) {
  const auto build = [] {
    return reco::RecommenderComponent(testing::golden_rows(),
                                      testing::golden_build_config(),
                                      nullptr);
  };
  check_current_golden("atac_recommender_component_v1.bin",
                       [&](std::ostream& os) {
                         build().save(os, Codec::kShuffle);
                       });
  auto is = open_golden("atac_recommender_component_v1.bin");
  const auto loaded = reco::RecommenderComponent::load(is);
  const auto fresh = build();
  const auto request =
      reco::CfRequest::make({{2, 4.0}, {9, 2.0}, {16, 5.0}}, 5);
  const auto got = loaded.analyze(request).exact();
  const auto want = fresh.analyze(request).exact();
  EXPECT_EQ(got.weighted_dev, want.weighted_dev);
  EXPECT_EQ(got.weight_abs, want.weight_abs);
  EXPECT_EQ(got.neighbors, want.neighbors);
}

// New-format snapshots round-trip through every codec with bit-identical
// scores (acceptance: parity across codecs).
TEST(ComponentSnapshots, AllCodecsScoreBitIdentical) {
  search::SearchComponent fresh(testing::golden_rows(), 0,
                                testing::golden_build_config(),
                                search::ScorerParams{}, nullptr);
  const search::SearchRequest request{{1, 5, 12, 30}};
  const auto want = fresh.exact_topk(request, 6);
  for (Codec codec : kAllCodecs) {
    std::stringstream buf;
    fresh.save(buf, codec);
    const auto loaded = search::SearchComponent::load(buf);
    const auto got = loaded.exact_topk(request, 6);
    ASSERT_EQ(got.size(), want.size()) << codec_name(codec);
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].doc, want[i].doc) << codec_name(codec);
      EXPECT_EQ(got[i].score, want[i].score) << codec_name(codec);
    }
  }
}

// Failed loads must be all-or-nothing: SearchComponent::load builds into
// a temporary, so any failure — truncation at every length, or an
// injected artifact.chunk fault mid-load — throws the layer's structured
// ArtifactError and leaves previously loaded state fully usable with
// bit-identical scores.
TEST(ComponentSnapshots, StateUnchangedAfterEveryFailedLoad) {
  search::SearchComponent comp(testing::golden_rows(), 0,
                               testing::golden_build_config(),
                               search::ScorerParams{}, nullptr);
  const search::SearchRequest request{{1, 5, 12, 30}};
  const auto want = comp.exact_topk(request, 6);
  std::stringstream buf;
  comp.save(buf);
  const std::string bytes = buf.str();

  auto expect_unchanged = [&] {
    const auto got = comp.exact_topk(request, 6);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].doc, want[i].doc);
      ASSERT_EQ(got[i].score, want[i].score);  // bitwise
    }
  };

  // Every truncation throws a structured error, never partially applies.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::stringstream cut(bytes.substr(0, len));
    try {
      auto loaded = search::SearchComponent::load(cut);
      FAIL() << "truncation at " << len << " loaded";
    } catch (const ArtifactError&) {
    } catch (const std::exception& e) {
      FAIL() << "non-artifact error at " << len << ": " << e.what();
    }
  }
  expect_unchanged();

  // Injected chunk-read faults surface as ArtifactError too (the
  // failpoint layer is translated at the artifact boundary), and clear
  // cleanly.
  failpoint::clear_all();
  failpoint::set("artifact.chunk", "error:x1");
  {
    std::stringstream in(bytes);
    EXPECT_THROW(search::SearchComponent::load(in), ArtifactError);
  }
  expect_unchanged();
  failpoint::clear_all();
  {
    std::stringstream in(bytes);
    EXPECT_NO_THROW(search::SearchComponent::load(in));
  }
}

}  // namespace
}  // namespace at::common
