#include "synopsis/index_file.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "common/artifact.h"

namespace at::synopsis {

std::size_t IndexFile::total_members() const {
  std::size_t n = 0;
  for (const auto& g : groups_) n += g.members.size();
  return n;
}

double IndexFile::mean_group_size() const {
  if (groups_.empty()) return 0.0;
  return static_cast<double>(total_members()) /
         static_cast<double>(groups_.size());
}

bool IndexFile::is_partition_of(std::size_t n) const {
  std::vector<bool> seen(n, false);
  std::size_t count = 0;
  for (const auto& g : groups_) {
    for (auto m : g.members) {
      if (m >= n || seen[m]) return false;
      seen[m] = true;
      ++count;
    }
  }
  return count == n;
}

void IndexFile::validate_partition(std::size_t n) const {
  std::vector<std::int32_t> owner(n, -1);
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    for (auto m : groups_[gi].members) {
      if (m >= n) {
        std::ostringstream os;
        os << "IndexFile: member " << m << " out of range (n=" << n << ")";
        throw std::logic_error(os.str());
      }
      if (owner[m] >= 0) {
        std::ostringstream os;
        os << "IndexFile: member " << m << " in groups " << owner[m]
           << " and " << gi;
        throw std::logic_error(os.str());
      }
      owner[m] = static_cast<std::int32_t>(gi);
    }
  }
  const std::size_t covered = total_members();
  if (covered != n) {
    std::ostringstream os;
    os << "IndexFile: covers " << covered << " of " << n << " points";
    throw std::logic_error(os.str());
  }
}

void IndexFile::save(std::ostream& os) const {
  common::ArtifactWriter w(os, "INDX", 1);
  common::ChunkWriter groups;
  groups.u64(groups_.size());
  for (const auto& g : groups_) {
    groups.u64(g.node_id);
    groups.u64(g.version);
    groups.vec_u32(g.members);
  }
  w.chunk("GRPS", groups);
  w.finish();
}

IndexFile IndexFile::load(std::istream& is) {
  common::ArtifactReader r(is, "INDX");
  if (r.version() != 1)
    throw common::ArtifactError("IndexFile::load: unsupported version");
  common::ChunkReader c = r.chunk("GRPS");
  const auto n = c.u64();
  // A group costs >= 24 payload bytes, so this rejects a forged count
  // before reserving for it.
  if (n > c.remaining() / 24)
    throw common::ArtifactError("IndexFile::load: group count overruns chunk");
  std::vector<IndexGroup> groups;
  groups.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    IndexGroup g;
    g.node_id = c.u64();
    g.version = c.u64();
    g.members = c.vec_u32();
    groups.push_back(std::move(g));
  }
  c.expect_consumed();
  r.finish();
  return IndexFile(std::move(groups));
}

std::string IndexFile::summary() const {
  std::size_t min_size = 0, max_size = 0;
  if (!groups_.empty()) {
    min_size = groups_.front().members.size();
    max_size = min_size;
    for (const auto& g : groups_) {
      min_size = std::min(min_size, g.members.size());
      max_size = std::max(max_size, g.members.size());
    }
  }
  std::ostringstream os;
  os << "IndexFile{groups=" << groups_.size()
     << ", members=" << total_members() << ", mean=" << mean_group_size()
     << ", min=" << min_size << ", max=" << max_size << "}";
  return os.str();
}

}  // namespace at::synopsis
