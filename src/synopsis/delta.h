// Delta artifacts (ATAC kind "DLTA"): the changed rows of ONE epoch
// publish, in the same CRC-framed chunk container as full snapshots.
//
// Every successful component publish can emit one delta — the applied
// UpdateBatch plus the (from_version, to_version] epoch interval it moved
// the component across. Because SynopsisUpdater::apply is deterministic, a
// warm standby that loaded a full snapshot at epoch V can tail the delta
// stream and replay each batch with V == delta.from_version to arrive at
// byte-identical component state — the building block for shard takeover
// without full-snapshot transfer (ROADMAP: replicated multi-node serving).
//
// Wire format (kind "DLTA", version 1):
//
//   META  u32 component | u64 from_version | u64 to_version |
//         u64 n_added | u64 n_changed
//   DADD  lengths vec_u32 | terms vec_u32 | values vec_f64(codec)
//         (added rows, columnar: row i owns lengths[i] consecutive
//          term/value pairs; terms strictly ascending within a row)
//   DCHG  row_ids vec_u32 | lengths vec_u32 | terms vec_u32 |
//         values vec_f64(codec)   (changed rows, same columnar layout)
//
// Loaders are bounds-checked end to end: inconsistent lengths, unsorted
// terms, truncation and bit flips all throw ArtifactError (fuzz coverage
// in tests/epoch_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "common/artifact.h"
#include "synopsis/updater.h"

namespace at::synopsis {

/// One publish's worth of change: apply `batch` to a replica at epoch
/// `from_version` of component `component` to reach `to_version`.
struct DeltaArtifact {
  std::uint32_t component = 0;
  std::uint64_t from_version = 0;
  std::uint64_t to_version = 0;
  UpdateBatch batch;
};

/// Writes one delta as an ATAC "DLTA" v1 container. Failpoint
/// "artifact.delta_write" (error action) aborts the write with
/// ArtifactError — serving must survive a standby stream that fails
/// mid-publish (the epoch itself is already live; only the delta is lost).
void save_delta(std::ostream& os, const DeltaArtifact& delta,
                common::Codec codec = common::Codec::kShuffle);

/// Reads one delta; throws common::ArtifactError on any corruption.
DeltaArtifact load_delta(std::istream& is);

// ---------------------------------------------------------------------------
// Replication-stream file naming
// ---------------------------------------------------------------------------
//
// Both the delta writer (the serving front end) and the tailer (the warm
// standby) agree on one on-disk convention:
//
//   delta_<kind><component>_<to_version>.atac   one publish's delta
//   ckpt_<kind><component>_<version>.atac       full snapshot at `version`
//
// where <kind> is 'c' (search component) or 'r' (recommender component)
// and versions are zero-padded to a fixed width so a plain lexicographic
// directory sort is also the numeric version sort (the tailer still parses
// and sorts numerically; the padding is for humans and shell globs).
// Writers must create files under a temporary name and atomically
// std::rename them into place — a tailer may list the directory at any
// instant and must never observe a half-framed container under a final
// name. Anything that does not parse (".tmp" leftovers, foreign files) is
// skipped by the tailer.

/// Width every version number is zero-padded to in stream filenames.
inline constexpr int kVersionPadWidth = 12;

/// "delta_c3_000000000017.atac" for kind 'c', component 3, to_version 17.
std::string delta_filename(char kind, std::uint32_t component,
                           std::uint64_t to_version);

/// "ckpt_c3_000000000015.atac": full snapshot of component 3 at version 15.
std::string checkpoint_filename(char kind, std::uint32_t component,
                                std::uint64_t version);

/// Parses `name` (no directory part) against the given prefix convention
/// ("delta" or "ckpt"). Returns false for anything that is not a
/// well-formed "<prefix>_<kind><component>_<version>.atac" — the tailer's
/// skip condition. On success fills kind ('c'/'r'), component and version.
bool parse_stream_filename(const std::string& name, const std::string& prefix,
                           char* kind, std::uint32_t* component,
                           std::uint64_t* version);

}  // namespace at::synopsis
