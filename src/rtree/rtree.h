// Guttman R-tree with quadratic split, dynamic insert/delete, and STR bulk
// loading — synopsis creation step 2 and the substrate for incremental
// synopsis updating.
//
// Properties the synopsis pipeline relies on (paper §2.2):
//  * Points close in feature space land in the same node (quadratic split
//    minimizes MBR area growth).
//  * The tree is depth-balanced: all leaves sit at the same level, so the
//    nodes at one level partition the dataset into similarly sized groups
//    with a uniform "approximation level".
//  * Leaf entries can be inserted and deleted dynamically, enabling
//    incremental updates of an existing synopsis.
//
// Extra machinery for the updater: every node has a stable id and a version
// counter that is bumped whenever anything in its subtree changes, so the
// synopsis updater can re-aggregate only the dirty groups.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <unordered_map>
#include <vector>

#include "rtree/rect.h"

namespace at::rtree {

/// Node-split algorithm.
enum class SplitPolicy {
  /// Guttman's quadratic split: seeds by maximum dead area, distribution
  /// by maximum preference difference.
  kQuadratic,
  /// R*-tree split (Beckmann et al.): axis by minimum margin sum,
  /// distribution by minimum overlap (area as tie-break). Produces more
  /// square, less overlapping nodes — tighter synopsis groups.
  kRStar,
};

struct RTreeParams {
  std::size_t max_entries = 8;  // node capacity M
  std::size_t min_entries = 3;  // fill floor m (<= M/2)
  SplitPolicy split = SplitPolicy::kQuadratic;
};

struct RTreeStats {
  std::size_t data_entries = 0;
  std::size_t nodes = 0;
  std::size_t height = 0;  // number of levels; 1 = root is a leaf
};

class RTree {
 public:
  /// A stable reference to an internal node, exposed for synopsis building.
  struct NodeRef {
    std::uint64_t node_id = 0;
    std::uint64_t version = 0;  // bumped on any subtree modification
    std::size_t level = 0;      // 0 = leaf
    Rect mbr;
    std::size_t subtree_size = 0;  // number of data entries beneath
  };

  explicit RTree(std::size_t dims, RTreeParams params = {});
  ~RTree();

  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Deep copy preserving node ids, versions and the id allocator, so the
  /// clone continues incremental updates exactly like the original. This
  /// is what lets an update edit its own tree for the next epoch while
  /// readers keep scanning the published one (copying is explicit — the
  /// copy ctor stays deleted so a tree is never duplicated by accident).
  RTree clone() const;

  std::size_t dims() const { return dims_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of levels (1 when the root is a leaf).
  std::size_t height() const;

  /// Inserts a data entry. data_id need not be unique, but erase() removes
  /// one matching (id, rect) pair at a time.
  void insert(std::uint64_t data_id, const Rect& rect);
  void insert_point(std::uint64_t data_id, std::span<const double> coords) {
    insert(data_id, Rect::point(coords));
  }

  /// Removes one entry matching (data_id, rect). Returns false if absent.
  bool erase(std::uint64_t data_id, const Rect& rect);

  /// Sort-Tile-Recursive bulk load; O(k log k) and produces well-packed
  /// nodes. `items` are (data_id, point/rect) pairs.
  static RTree bulk_load(std::size_t dims,
                         std::vector<std::pair<std::uint64_t, Rect>> items,
                         RTreeParams params = {});

  /// All data ids whose rect intersects `query`.
  std::vector<std::uint64_t> range_query(const Rect& query) const;

  /// The k data entries nearest to `point` (squared Euclidean distance to
  /// their rectangles), best first. Ties broken by lower data id.
  struct Neighbor {
    std::uint64_t data_id = 0;
    double dist2 = 0.0;
  };
  std::vector<Neighbor> nearest(std::span<const double> point,
                                std::size_t k) const;

  /// References to every node at the given level (0 = leaves).
  std::vector<NodeRef> nodes_at_level(std::size_t level) const;
  std::size_t node_count_at_level(std::size_t level) const;

  /// Highest-resolution level whose node count does not exceed max_nodes:
  /// scans levels from the leaves upward and returns the first (deepest)
  /// one that fits. This implements the paper's depth-selection rule
  /// ("sufficient number of nodes for fine-grained differentiation, yet
  /// much smaller than the number of data points").
  std::size_t select_level(std::size_t max_nodes) const;

  /// Data ids of every entry in the subtree rooted at node_id.
  std::vector<std::uint64_t> subtree_data_ids(std::uint64_t node_id) const;

  /// Current version of a node (throws if unknown).
  std::uint64_t node_version(std::uint64_t node_id) const;

  RTreeStats stats() const;

  /// Serializes the full tree — structure, data entries, stable node ids
  /// and versions — so incremental synopsis updating can resume after a
  /// reload (paper §3.1 stores the R-tree and index file for exactly this).
  void save(std::ostream& os) const;
  static RTree load(std::istream& is);

  /// Validates structural invariants; throws std::logic_error on violation.
  ///  - all leaves at level 0, consistent levels per node
  ///  - every child MBR is contained in its parent entry MBR
  ///  - entry counts within [min_entries, max_entries] except the root
  ///  - size() equals the number of reachable data entries
  void check_invariants() const;

 private:
  struct Node;
  struct Entry;

  Node* choose_subtree(Node* node, const Rect& rect, std::size_t target_level);
  void split_node(Node* node, std::unique_ptr<Node>& sibling_out);
  void split_quadratic(Node* node, std::unique_ptr<Node>& sibling_out);
  void split_rstar(Node* node, std::unique_ptr<Node>& sibling_out);
  void adjust_after_insert(std::vector<Node*>& path);
  Node* find_leaf(Node* node, std::uint64_t data_id, const Rect& rect,
                  std::vector<Node*>& path);
  void condense_tree(std::vector<Node*>& path);
  void bump_versions(const std::vector<Node*>& path);
  void register_node(Node* node);
  void unregister_subtree(Node* node);
  void collect_ids(const Node* node, std::vector<std::uint64_t>& out) const;
  void insert_at_level(std::uint64_t data_id, const Rect& rect,
                       std::unique_ptr<Node> subtree, std::size_t level);
  static void gather_entries_recursive(
      Node* node, std::vector<std::pair<std::uint64_t, Rect>>& out);
  static void unregister_subtree_shallow_reregister(Node* node);

  std::size_t dims_;
  RTreeParams params_;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  std::uint64_t next_node_id_ = 1;
  std::unordered_map<std::uint64_t, Node*> registry_;
};

}  // namespace at::rtree
