// Persistence for the offline artifacts (paper §3.1: "once the synopsis is
// generated, the R-tree and the index file are stored and they can be used
// as the starting point of synopsis updating").
//
// Every artifact is written through the unified artifact store
// (common/artifact.h): a chunked container with a kind/version header and
// CRC32C-checked chunks, f64 columns going through an exact codec
// (shuffle, or raw). A saved SynopsisStructure round-trips everything
// needed to (a) serve stage-1 queries and (b) continue incremental
// updates: the SVD model, the reduced coordinates, the R-tree (with stable
// node ids/versions so dirty-tracking survives the reload), the selected
// level and index file.
//
// Every loader reads only the ATAC container; a pre-container stream
// ("ATSR", "ATMX", "ATSV", "ATIX", "ATSY", "ATSS") fails with an
// ArtifactError naming the magic it found. All values round-trip
// bit-exactly in every codec (golden fixtures: tests/data/golden/).
#pragma once

#include <iosfwd>

#include "common/artifact.h"
#include "linalg/svd.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"

namespace at::synopsis {

/// SparseRows persist as one checksummed chunk of block-compressed rows
/// (delta columns + quantized values with an exact-double exception table,
/// see services/search/postings_codec.h).
void save(std::ostream& os, const SparseRows& rows);
SparseRows load_sparse_rows(std::istream& is);

// Matrix/SVD-model persistence lives with its types (linalg::save /
// linalg::load_matrix / linalg::load_svd_model; unqualified save() calls
// resolve there via ADL). The istream-only loaders are re-exposed here
// because argument-dependent lookup cannot find them from this namespace.
linalg::Matrix load_matrix(std::istream& is);
linalg::SvdModel load_svd_model(std::istream& is);

void save(std::ostream& os, const IndexFile& index);
IndexFile load_index_file(std::istream& is);

void save(std::ostream& os, const Synopsis& synopsis);
Synopsis load_synopsis(std::istream& is);

void save(std::ostream& os, const SynopsisStructure& s,
          common::Codec codec = common::Codec::kShuffle);
SynopsisStructure load_structure(std::istream& is);

}  // namespace at::synopsis
