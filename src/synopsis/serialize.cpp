#include "synopsis/serialize.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "common/artifact.h"
#include "rtree/rtree.h"
#include "services/search/postings_codec.h"

namespace at::synopsis {

namespace {

/// Forged-count guard for codec-encoded lists: every encoding spends at
/// least one payload byte per entry (the tf/value code byte), so a count
/// beyond the blob size is corrupt — reject it before decode_list
/// reserves for it.
void check_row_entries(std::uint64_t entries, std::size_t blob_bytes) {
  if (entries > blob_bytes)
    throw common::ArtifactError(
        "sparse list: entry count overruns encoded bytes");
}

}  // namespace

void save(std::ostream& os, const SparseRows& rows) {
  common::ArtifactWriter w(os, "SROW", 1);
  common::ChunkWriter meta;
  meta.u64(rows.cols());
  meta.u64(rows.rows());
  w.chunk("META", meta);
  // All rows in one CRC-checked chunk, each as its entry count plus one
  // postings-codec blob (delta-encoded columns, quantized values with an
  // exact-double exception table — bit-exact round-trip).
  common::ChunkWriter body;
  std::vector<std::uint8_t> buf;
  for (std::uint32_t r = 0; r < rows.rows(); ++r) {
    const SparseRowView row = rows.row(r);
    buf.clear();
    search::codec::encode_list(buf, row.cols(), row.vals(), row.size());
    body.u64(row.size());
    body.blob(buf);
  }
  w.chunk("ROWS", body);
  w.finish();
}

SparseRows load_sparse_rows(std::istream& is) {
  common::ArtifactReader r(is, "SROW");
  if (r.version() != 1)
    throw common::ArtifactError("load_sparse_rows: unsupported version");
  common::ChunkReader meta = r.chunk("META");
  const auto cols = meta.u64();
  const auto n = meta.u64();
  meta.expect_consumed();
  common::ChunkReader body = r.chunk("ROWS");
  if (n > body.remaining() / 16)
    throw common::ArtifactError("load_sparse_rows: row count overruns chunk");
  SparseRows rows(cols);
  std::vector<std::uint32_t> ids;
  std::vector<double> vals;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto entries = body.u64();
    const auto buf = body.blob();
    check_row_entries(entries, buf.size());
    ids.clear();
    vals.clear();
    search::codec::decode_list(buf.data(), buf.size(), entries, ids, vals);
    SparseVector v;
    v.reserve(ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j) v.emplace_back(ids[j], vals[j]);
    rows.add_row(std::move(v));
  }
  body.expect_consumed();
  r.finish();
  return rows;
}

linalg::Matrix load_matrix(std::istream& is) {
  return linalg::load_matrix(is);
}

linalg::SvdModel load_svd_model(std::istream& is) {
  return linalg::load_svd_model(is);
}

void save(std::ostream& os, const IndexFile& index) { index.save(os); }

IndexFile load_index_file(std::istream& is) { return IndexFile::load(is); }

void save(std::ostream& os, const Synopsis& synopsis) {
  common::ArtifactWriter w(os, "SYNO", 1);
  common::ChunkWriter body;
  body.u64(synopsis.points.size());
  std::vector<std::uint8_t> buf;
  for (const auto& p : synopsis.points) {
    body.u64(p.node_id);
    body.u32(p.member_count);
    body.u64(p.features.size());
    buf.clear();
    if (!p.features.empty()) {
      // Feature vectors ride the same exact list codec as SparseRows
      // (columns ascending and duplicate-free by SparseVector contract).
      std::vector<std::uint32_t> ids;
      std::vector<double> vals;
      ids.reserve(p.features.size());
      vals.reserve(p.features.size());
      for (const auto& [c, val] : p.features) {
        ids.push_back(c);
        vals.push_back(val);
      }
      search::codec::encode_list(buf, ids.data(), vals.data(), ids.size());
    }
    body.blob(buf);
    body.vec_u32(p.support);
  }
  w.chunk("PNTS", body);
  w.finish();
}

Synopsis load_synopsis(std::istream& is) {
  common::ArtifactReader r(is, "SYNO");
  if (r.version() != 1)
    throw common::ArtifactError("load_synopsis: unsupported version");
  common::ChunkReader body = r.chunk("PNTS");
  const auto n = body.u64();
  if (n > body.remaining() / 36)
    throw common::ArtifactError("load_synopsis: point count overruns chunk");
  Synopsis synopsis;
  synopsis.points.reserve(static_cast<std::size_t>(n));
  std::vector<std::uint32_t> ids;
  std::vector<double> vals;
  for (std::uint64_t i = 0; i < n; ++i) {
    AggregatedPoint p;
    p.node_id = body.u64();
    p.member_count = body.u32();
    const auto entries = body.u64();
    const auto buf = body.blob();
    check_row_entries(entries, buf.size());
    ids.clear();
    vals.clear();
    search::codec::decode_list(buf.data(), buf.size(), entries, ids, vals);
    p.features.reserve(ids.size());
    for (std::size_t j = 0; j < ids.size(); ++j)
      p.features.emplace_back(ids[j], vals[j]);
    p.support = body.vec_u32();
    synopsis.points.push_back(std::move(p));
  }
  body.expect_consumed();
  r.finish();
  return synopsis;
}

void save(std::ostream& os, const SynopsisStructure& s, common::Codec codec) {
  common::ArtifactWriter w(os, "SSTR", 1);
  common::ChunkWriter meta;
  meta.u64(s.level);
  w.chunk("META", meta);
  linalg::save(os, s.svd, codec);
  linalg::save(os, s.reduced, codec);
  // The R-tree keeps its own format; wrapping the bytes in a chunk adds
  // the CRC and framing the raw stream lacked.
  std::ostringstream tree_bytes;
  s.tree.save(tree_bytes);
  common::ChunkWriter tree;
  tree.blob(std::move(tree_bytes).str());
  w.chunk("TREE", tree);
  save(os, s.index);
  w.finish();
}

SynopsisStructure load_structure(std::istream& is) {
  common::ArtifactReader r(is, "SSTR");
  if (r.version() != 1)
    throw common::ArtifactError("load_structure: unsupported version");
  common::ChunkReader meta = r.chunk("META");
  const auto level = meta.u64();
  meta.expect_consumed();
  linalg::SvdModel svd = load_svd_model(is);
  linalg::Matrix reduced = load_matrix(is);
  common::ChunkReader tree_chunk = r.chunk("TREE");
  const auto tree_blob = tree_chunk.blob();
  tree_chunk.expect_consumed();
  // Move the image into the stream (C++20 rvalue ctor) — one transient
  // copy instead of two for large trees.
  std::istringstream tree_bytes(
      std::string(tree_blob.begin(), tree_blob.end()), std::ios::in);
  rtree::RTree tree = rtree::RTree::load(tree_bytes);
  IndexFile index = load_index_file(is);
  r.finish();
  return SynopsisStructure{std::move(svd), std::move(reduced),
                           std::move(tree), level, std::move(index)};
}

}  // namespace at::synopsis
