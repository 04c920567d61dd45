// Synopsis creation (paper §2.2, steps 1–2): dimensionality reduction via
// incremental SVD, similar-point organization via an R-tree, and selection
// of the tree level whose nodes become the aggregated data points.
//
// Step 3 (information aggregation) lives in aggregate.h; it is split out
// because the aggregation payload is service-specific (attribute means for
// numeric data, merged contents for text) while steps 1–2 are generic.
#pragma once

#include <cstdint>

#include "linalg/svd.h"
#include "rtree/rtree.h"
#include "synopsis/index_file.h"
#include "synopsis/sparse_rows.h"

namespace at::synopsis {

struct BuildConfig {
  /// SVD settings for step 1 (rank j = 3 and 100 epochs/dim in the paper).
  linalg::SvdConfig svd;
  /// R-tree fan-out for step 2.
  rtree::RTreeParams rtree_params;
  /// Target compression: #original points / #aggregated points (the paper
  /// uses "e.g. 100 times smaller").
  double size_ratio = 100.0;
  /// Never collapse below this many aggregated points (keeps ranking
  /// meaningful for tiny test datasets).
  std::size_t min_groups = 2;
};

/// The structural half of a synopsis: everything needed to (a) derive the
/// index file and (b) update it incrementally later. The aggregated
/// payloads built from it are owned by the service (see aggregate.h).
struct SynopsisStructure {
  linalg::SvdModel svd;      // column factors are reused for fold-in
  linalg::Matrix reduced;    // n x j reduced coordinates, row-aligned
  rtree::RTree tree;         // built over the reduced coordinates
  std::size_t level = 0;     // selected synopsis level (0 = leaves)
  IndexFile index;           // aggregated point -> member rows

  std::size_t num_points() const { return reduced.rows(); }
  std::size_t num_groups() const { return index.size(); }

  /// Deep copy (the R-tree member makes the implicit copy deleted); the
  /// clone updates incrementally exactly like the original.
  SynopsisStructure clone() const {
    return SynopsisStructure{svd, reduced, tree.clone(), level, index};
  }
};

class SynopsisBuilder {
 public:
  explicit SynopsisBuilder(BuildConfig config) : config_(config) {}

  const BuildConfig& config() const { return config_; }

  /// Runs steps 1–2 on a subset of input data. The returned structure's
  /// index file is guaranteed to partition the rows of `data`. The SVD
  /// runs sequentially; callers parallelize across components.
  SynopsisStructure build(const SparseRows& data) const;

  /// Derives the index file for the structure's current tree/level.
  /// Exposed for the updater, which re-derives groups after mutations.
  static IndexFile derive_index(const rtree::RTree& tree, std::size_t level);

  /// Picks the synopsis level for a tree over n points given the target
  /// compression ratio.
  static std::size_t pick_level(const rtree::RTree& tree, std::size_t n,
                                double size_ratio, std::size_t min_groups);

 private:
  BuildConfig config_;
};

}  // namespace at::synopsis
