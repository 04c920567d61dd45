#include "synopsis/updater.h"

#include <cassert>
#include <cmath>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "common/stopwatch.h"

namespace at::synopsis {

UpdateReport SynopsisUpdater::apply(SynopsisStructure& s, SparseRows& data,
                                    const Synopsis& current, Synopsis* next,
                                    const UpdateBatch& batch,
                                    AggregationKind kind,
                                    common::ThreadPool* pool) const {
  common::Stopwatch timer;
  UpdateReport report;
  report.groups_before = s.index.size();

  const std::size_t rank = s.svd.row_factors.cols();

  // --- additions -----------------------------------------------------------
  if (!batch.added.empty()) {
    const auto first_new = static_cast<std::uint32_t>(data.rows());
    std::size_t new_entries = 0;
    for (const auto& v : batch.added) new_entries += v.size();
    data.reserve_entries(new_entries);
    for (const auto& v : batch.added) {
      SparseVector copy = v;
      data.add_row(std::move(copy));
    }
    // Fold the appended rows into the SVD (column factors frozen; rows are
    // independent, so the pool-parallel path matches the sequential one).
    linalg::SparseDataset tail = data.csr_dataset(first_new);
    linalg::fold_in_rows(s.svd, tail, config_.svd, pool);

    // Mirror the new coordinates into `reduced` and insert leaf entries.
    linalg::Matrix grown(data.rows(), rank);
    for (std::size_t r = 0; r < s.reduced.rows(); ++r)
      for (std::size_t d = 0; d < rank; ++d) grown(r, d) = s.reduced(r, d);
    for (std::size_t r = first_new; r < data.rows(); ++r)
      for (std::size_t d = 0; d < rank; ++d)
        grown(r, d) = s.svd.row_factors(r, d);
    s.reduced = std::move(grown);

    for (std::uint32_t r = first_new; r < data.rows(); ++r) {
      s.tree.insert_point(r,
                          std::span<const double>(s.reduced.row(r), rank));
    }
    report.points_added = batch.added.size();
  }

  // --- changes --------------------------------------------------------------
  // Phase 1 (sequential): replace row contents and delete the stale leaf
  // entries. A row changed twice in one batch keeps its last content and is
  // erased/retrained/re-inserted once.
  std::vector<std::uint32_t> retrain_rows;  // unique, first-encounter order
  if (!batch.changed.empty()) {
    std::vector<char> seen(data.rows(), 0);
    retrain_rows.reserve(batch.changed.size());
    for (const auto& [row, content] : batch.changed) {
      if (row >= data.rows())
        throw std::out_of_range("SynopsisUpdater: changed row out of range");
      if (!seen[row]) {
        const rtree::Rect old_rect = rtree::Rect::point(
            std::span<const double>(s.reduced.row(row), rank));
        if (!s.tree.erase(row, old_rect))
          throw std::logic_error("SynopsisUpdater: stale point missing in tree");
        seen[row] = 1;
        retrain_rows.push_back(row);
      }
      SparseVector normalized = content;
      normalize(normalized);
      data.replace_row(row, normalized);
    }

    // Phase 2 (parallel): retrain each changed row's reduced coordinates
    // against frozen column factors. Rows are disjoint, so this is exact.
    //
    // View-lifetime contract (SparseRows::row): every replace_row above —
    // including any 25%-dead compaction it triggered — completed before
    // this phase, and phase 2 performs no mutation, so the views acquired
    // inside the tasks cannot be invalidated mid-retrain. The generation
    // snapshot asserts that no stale extent is ever read.
    const std::uint64_t gen = data.generation();
    (void)gen;  // referenced only by the assert in release builds
    auto retrain = [&](std::size_t k) {
      const std::uint32_t row = retrain_rows[k];
      assert(data.generation() == gen &&
             "SparseRows mutated while retraining holds row views");
      const SparseRowView rv = data.row(row);
      linalg::retrain_row_factors(s.svd, row, rv.cols(), rv.vals(), rv.size(),
                                  config_.svd);
    };
    if (pool != nullptr && retrain_rows.size() > 1) {
      pool->parallel_for(retrain_rows.size(), retrain);
    } else {
      for (std::size_t k = 0; k < retrain_rows.size(); ++k) retrain(k);
    }

    // Phase 3 (sequential): mirror coordinates and re-insert leaf entries.
    for (const auto row : retrain_rows) {
      for (std::size_t d = 0; d < rank; ++d)
        s.reduced(row, d) = s.svd.row_factors(row, d);
      s.tree.insert_point(row,
                          std::span<const double>(s.reduced.row(row), rank));
    }
  }
  report.points_changed = batch.changed.size();

  // --- re-derive the index file and re-aggregate dirty groups ---------------
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
      old_groups;  // node_id -> (version, old group index)
  for (std::size_t gi = 0; gi < s.index.size(); ++gi) {
    const auto& g = s.index.groups()[gi];
    old_groups[g.node_id] = {g.version, gi};
  }

  // Level selection with hysteresis: re-deriving the index at a different
  // tree level invalidates every cached aggregation, so the update keeps
  // the current level unless the freshly picked one is decisively closer
  // to the target group count (0.5 in log-ratio, i.e. ~1.65x).
  std::size_t level = SynopsisBuilder::pick_level(
      s.tree, data.rows(), config_.size_ratio, config_.min_groups);
  if (level != s.level && s.level < s.tree.height()) {
    const double target =
        std::max(static_cast<double>(config_.min_groups),
                 std::ceil(static_cast<double>(data.rows()) /
                           config_.size_ratio));
    auto gap = [&](std::size_t lv) {
      const auto count = s.tree.node_count_at_level(lv);
      if (count < config_.min_groups) return 1e18;
      return std::abs(std::log(static_cast<double>(count) / target));
    };
    if (gap(s.level) <= gap(level) + 0.5) level = s.level;
  }
  IndexFile new_index = SynopsisBuilder::derive_index(s.tree, level);
  new_index.validate_partition(data.rows());

  Synopsis new_synopsis;
  new_synopsis.points.resize(new_index.size());
  std::vector<std::size_t> dirty;
  for (std::size_t gi = 0; gi < new_index.size(); ++gi) {
    const auto& g = new_index.groups()[gi];
    auto it = old_groups.find(g.node_id);
    if (it != old_groups.end() && it->second.first == g.version) {
      new_synopsis.points[gi] = current.points[it->second.second];
      ++report.clean_groups;
    } else {
      dirty.push_back(gi);
    }
  }
  auto re_aggregate = [&](std::size_t k) {
    const std::size_t gi = dirty[k];
    new_synopsis.points[gi] =
        aggregate_group(data, new_index.groups()[gi], kind);
  };
  if (pool != nullptr) {
    pool->parallel_for(dirty.size(), re_aggregate);
  } else {
    for (std::size_t k = 0; k < dirty.size(); ++k) re_aggregate(k);
  }
  report.dirty_groups = dirty.size();

  s.level = level;
  s.index = std::move(new_index);
  *next = std::move(new_synopsis);
  report.groups_after = s.index.size();
  report.seconds = timer.elapsed_seconds();
  return report;
}

}  // namespace at::synopsis
