// The index file (paper §2.2): the mapping between each aggregated data
// point and the original data points it aggregates, derived from the nodes
// at the selected R-tree level.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace at::synopsis {

struct IndexGroup {
  /// Stable R-tree node id backing this aggregated data point.
  std::uint64_t node_id = 0;
  /// Node version at the time the group's aggregation was computed.
  std::uint64_t version = 0;
  /// Row ids of the original data points aggregated by this group.
  std::vector<std::uint32_t> members;
};

class IndexFile {
 public:
  IndexFile() = default;
  explicit IndexFile(std::vector<IndexGroup> groups)
      : groups_(std::move(groups)) {}

  const std::vector<IndexGroup>& groups() const { return groups_; }
  std::vector<IndexGroup>& groups() { return groups_; }
  std::size_t size() const { return groups_.size(); }
  bool empty() const { return groups_.empty(); }

  /// Total member count across groups.
  std::size_t total_members() const;

  /// Average members per group (the paper reports 133.01 users and 42.55
  /// pages per aggregated point for its two services).
  double mean_group_size() const;

  /// True iff the groups' member sets exactly partition {0..n-1}.
  bool is_partition_of(std::size_t n) const;

  /// Throws std::logic_error with a diagnostic if not a partition of n.
  void validate_partition(std::size_t n) const;

  std::string summary() const;

  /// Artifact-store persistence (kind "INDX", one CRC-checked chunk for
  /// the whole group table).
  void save(std::ostream& os) const;
  static IndexFile load(std::istream& is);

 private:
  std::vector<IndexGroup> groups_;
};

}  // namespace at::synopsis
