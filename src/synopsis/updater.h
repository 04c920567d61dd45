// Incremental synopsis updating (paper §2.2): periodically reconcile an
// existing synopsis with changes in the input data without rebuilding it.
//
// Two change categories, matching the paper's Fig. 3 evaluation:
//  * additions — new data points arrive; new R-tree leaf entries are
//    inserted and the new rows are folded into the SVD against frozen
//    column factors;
//  * changes — existing points' contents change; their reduced coordinates
//    are retrained, and the corresponding leaf entries are deleted and
//    re-inserted.
// Afterwards the index file is re-derived and only the groups whose R-tree
// node version changed ("dirty" groups) are re-aggregated.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"

namespace at::synopsis {

struct UpdateBatch {
  /// New data points to append.
  std::vector<SparseVector> added;
  /// (row id, new content) pairs for existing points whose content changed.
  std::vector<std::pair<std::uint32_t, SparseVector>> changed;

  bool empty() const { return added.empty() && changed.empty(); }
};

struct UpdateReport {
  std::size_t points_added = 0;
  std::size_t points_changed = 0;
  std::size_t groups_before = 0;
  std::size_t groups_after = 0;
  /// Groups re-aggregated (indices into the new index file / synopsis).
  std::size_t dirty_groups = 0;
  /// Groups whose cached aggregation was reused.
  std::size_t clean_groups = 0;
  /// Wall-clock cost of the whole update.
  double seconds = 0.0;
};

class SynopsisUpdater {
 public:
  explicit SynopsisUpdater(BuildConfig config) : config_(config) {}

  /// Applies the batch, mutating the data rows and the synopsis structure
  /// in place and writing the re-aggregated synopsis to `next`: clean
  /// groups are copied from `current`, dirty ones aggregated afresh.
  /// `current` is only read, so it may be shared with a published epoch.
  /// When `pool` is given, the SVD fold-in of added rows, the changed
  /// rows' coordinate retraining and the dirty-group re-aggregation all
  /// run pool-parallel (each is per-row/per-group independent, so results
  /// match the sequential path). On a throw, `next` is unspecified.
  UpdateReport apply(SynopsisStructure& s, SparseRows& data,
                     const Synopsis& current, Synopsis* next,
                     const UpdateBatch& batch, AggregationKind kind,
                     common::ThreadPool* pool = nullptr) const;

  /// In-place form: replaces `synopsis` with the re-aggregated one.
  UpdateReport apply(SynopsisStructure& s, SparseRows& data,
                     Synopsis& synopsis, const UpdateBatch& batch,
                     AggregationKind kind,
                     common::ThreadPool* pool = nullptr) const {
    Synopsis next;
    const UpdateReport report =
        apply(s, data, synopsis, &next, batch, kind, pool);
    synopsis = std::move(next);
    return report;
  }

 private:
  BuildConfig config_;
};

}  // namespace at::synopsis
