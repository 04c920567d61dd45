#include "synopsis/builder.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace at::synopsis {

IndexFile SynopsisBuilder::derive_index(const rtree::RTree& tree,
                                        std::size_t level) {
  std::vector<IndexGroup> groups;
  for (const auto& node : tree.nodes_at_level(level)) {
    IndexGroup g;
    g.node_id = node.node_id;
    g.version = node.version;
    auto ids = tree.subtree_data_ids(node.node_id);
    g.members.reserve(ids.size());
    for (auto id : ids) g.members.push_back(static_cast<std::uint32_t>(id));
    std::sort(g.members.begin(), g.members.end());
    groups.push_back(std::move(g));
  }
  // Deterministic group order: by smallest member id. Node enumeration
  // order depends on tree internals; experiments want stable output.
  std::sort(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
    const std::uint32_t ma = a.members.empty() ? 0 : a.members.front();
    const std::uint32_t mb = b.members.empty() ? 0 : b.members.front();
    return ma < mb;
  });
  return IndexFile(std::move(groups));
}

std::size_t SynopsisBuilder::pick_level(const rtree::RTree& tree,
                                        std::size_t n, double size_ratio,
                                        std::size_t min_groups) {
  if (size_ratio < 1.0)
    throw std::invalid_argument("pick_level: size_ratio must be >= 1");
  const double target = std::max(static_cast<double>(min_groups),
                                 std::ceil(static_cast<double>(n) / size_ratio));
  // Pick the level whose node count is closest to the target in ratio
  // terms: fine enough to differentiate data ("a sufficient number of
  // R-tree nodes"), coarse enough that processing the synopsis stays cheap
  // ("much smaller than the number of data points"). With discrete tree
  // levels an exact match rarely exists, so closest-in-log-ratio is the
  // faithful reading of the paper's depth-selection rule.
  std::size_t best_level = 0;
  double best_gap = std::numeric_limits<double>::infinity();
  const std::size_t height = tree.height();
  for (std::size_t level = 0; level < height; ++level) {
    const std::size_t count = tree.node_count_at_level(level);
    if (count < min_groups && level > 0) continue;
    const double gap =
        std::abs(std::log(static_cast<double>(count) / target));
    if (gap < best_gap) {
      best_gap = gap;
      best_level = level;
    }
  }
  return best_level;
}

SynopsisStructure SynopsisBuilder::build(const SparseRows& data) const {
  if (data.rows() == 0)
    throw std::invalid_argument("SynopsisBuilder::build: empty dataset");

  // Step 1: dimensionality reduction. The reduced dataset preserves
  // proximity: rows similar in the original space stay close in R^j.
  linalg::SvdModel svd =
      linalg::incremental_svd(data.csr_dataset(), config_.svd);

  // Step 2a: organize the reduced points with an R-tree (bulk-loaded; the
  // paper builds the initial tree offline in O(k log k)).
  const std::size_t j = config_.svd.rank;
  std::vector<std::pair<std::uint64_t, rtree::Rect>> items;
  items.reserve(data.rows());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    items.emplace_back(
        r, rtree::Rect::point(std::span<const double>(svd.row_factors.row(r),
                                                      j)));
  }
  rtree::RTree tree = rtree::RTree::bulk_load(j, std::move(items),
                                              config_.rtree_params);

  // Step 2b: select the synopsis level and emit the index file.
  const std::size_t level =
      pick_level(tree, data.rows(), config_.size_ratio, config_.min_groups);
  IndexFile index = derive_index(tree, level);
  index.validate_partition(data.rows());

  SynopsisStructure s{std::move(svd), {}, std::move(tree), level,
                      std::move(index)};
  s.reduced = s.svd.row_factors;  // row-aligned copy used for erase/reinsert
  return s;
}

}  // namespace at::synopsis
