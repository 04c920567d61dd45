// What the search and recommender components share: a shard of input
// data with its synopsis, published as immutable epochs behind an RCU
// epoch slot, one copy at a time.
//
//   ShardEpoch      the synopsis half of one epoch — build config, data
//                   rows, synopsis structure, aggregated synopsis. The three
//                   data pieces are held through shared_ptr<const>, so
//                   consecutive epochs share whatever an update did not
//                   touch. Each service's snapshot derives from it and adds
//                   the arrays its queries scan.
//   EpochComponent  the facade each service component derives from: queries
//                   pin the current snapshot, writers serialize on an
//                   internal mutex and publish through an EpochSlot. An
//                   update derives epoch N+1 from the pinned epoch N by copy
//                   on write (ShardEpoch::apply). Publishing is a pointer
//                   swap: queries never block on retraining, and an epoch
//                   retires (frees) only when the last in-flight query drops
//                   its pin.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <utility>
#include <vector>

#include "common/artifact.h"
#include "common/epoch.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/updater.h"

namespace at::services {

/// The build config as written into a component artifact's CONF chunk.
void put_build_config(common::ChunkWriter& conf,
                      const synopsis::BuildConfig& config);
synopsis::BuildConfig get_build_config(common::ChunkReader& conf);

class ShardEpoch {
 public:
  /// Synopsis creation (steps 1-3) over `rows`.
  ShardEpoch(synopsis::SparseRows rows, const synopsis::BuildConfig& config,
             synopsis::AggregationKind kind, common::ThreadPool* pool);

  /// Reads the rows, structure and synopsis save_pieces() wrote.
  static ShardEpoch load(std::istream& is, const synopsis::BuildConfig& config,
                         synopsis::AggregationKind kind);

  const synopsis::BuildConfig& config() const { return config_; }
  const synopsis::SynopsisStructure& structure() const { return *structure_; }
  const synopsis::Synopsis& synopsis() const { return *synopsis_; }
  std::size_t num_groups() const { return structure_->index.size(); }

  /// Member counts per group, in group order (the sim's cost model input).
  std::vector<std::uint32_t> group_sizes() const;

 protected:
  /// Copy on write: copies the rows and the structure (the updater mutates
  /// both), applies `batch` to the copies and re-aggregates into a fresh
  /// synopsis that shares nothing with this one. This epoch is never
  /// written, also when the update throws.
  ShardEpoch apply(const synopsis::UpdateBatch& batch,
                   common::ThreadPool* pool,
                   synopsis::UpdateReport& report) const;

  void save_pieces(std::ostream& os, common::Codec codec) const;

  const synopsis::SparseRows& rows() const { return *rows_; }
  /// Group index of every row.
  std::vector<std::uint32_t> row_groups() const;

 private:
  ShardEpoch(const synopsis::BuildConfig& config,
             synopsis::AggregationKind kind,
             std::shared_ptr<const synopsis::SparseRows> rows,
             std::shared_ptr<const synopsis::SynopsisStructure> structure,
             std::shared_ptr<const synopsis::Synopsis> synopsis);

  synopsis::BuildConfig config_;
  synopsis::AggregationKind kind_;
  std::shared_ptr<const synopsis::SparseRows> rows_;
  std::shared_ptr<const synopsis::SynopsisStructure> structure_;
  std::shared_ptr<const synopsis::Synopsis> synopsis_;
};

/// `Snapshot` derives from ShardEpoch and befriends this template for its
/// private `next_epoch(batch, pool, report)`, which wraps ShardEpoch::apply
/// with the snapshot's own settings.
template <typename Snapshot>
class EpochComponent {
 public:
  /// Observer of successful publishes: receives the applied batch and the
  /// epoch versions it moved between. The serving layer uses this to emit
  /// DLTA delta artifacts a warm standby can tail (see synopsis/delta.h).
  /// Invoked under the writer mutex — publishes are serialized, so sink
  /// calls are too, in version order.
  using DeltaSink = std::function<void(const synopsis::UpdateBatch& batch,
                                       std::uint64_t from_version,
                                       std::uint64_t to_version)>;

  EpochComponent(EpochComponent&&) noexcept = default;
  EpochComponent& operator=(EpochComponent&&) noexcept = default;

  /// Installs (or clears) the pool used by update().
  void set_pool(common::ThreadPool* pool) {
    common::MutexLock lock(core_->writer_mutex);
    core_->pool = pool;
  }

  /// Pins the currently published epoch. Use one pin per request when a
  /// request makes several calls whose results must be consistent with
  /// each other (e.g. analyze() then group_member_docs()).
  std::shared_ptr<const Snapshot> snapshot() const {
    return core_->epoch.acquire();
  }

  /// Pins the current epoch together with its version atomically — the
  /// checkpoint writer's primitive (the version stamped into the artifact
  /// filename must be the version of the saved bytes).
  std::pair<std::shared_ptr<const Snapshot>, std::uint64_t>
  snapshot_versioned() const {
    return core_->epoch.acquire_versioned();
  }

  /// Version of the published epoch / full slot counters.
  std::uint64_t epoch_version() const { return core_->epoch.version(); }
  common::EpochStats epoch_stats() const { return core_->epoch.stats(); }

  /// Standby alignment: rebases the epoch version counter (no publish) to
  /// the version a loaded checkpoint corresponds to on the primary, so
  /// replayed deltas advance the slot in lockstep with the primary's
  /// stream. The writer mutex serializes the rebase against update(), so
  /// the version never moves between its pre-publish read and the publish.
  void rebase_epoch_version(std::uint64_t v) {
    common::MutexLock lock(core_->writer_mutex);
    core_->epoch.rebase_version(v);
  }

  /// Installs (or clears, with nullptr) the publish observer.
  void set_delta_sink(DeltaSink sink) {
    common::MutexLock lock(core_->writer_mutex);
    core_->delta_sink = std::move(sink);
  }

  // Convenience delegates to the current snapshot. The returned
  // references stay valid until the next publish on this component; pin
  // snapshot() instead when updates may run concurrently.
  std::size_t num_groups() const { return snapshot()->num_groups(); }
  const synopsis::SynopsisStructure& structure() const {
    return snapshot()->structure();
  }
  const synopsis::Synopsis& synopsis() const { return snapshot()->synopsis(); }
  std::vector<std::uint32_t> group_sizes() const {
    return snapshot()->group_sizes();
  }

  /// Derives a new epoch from the published one with an input-data change
  /// batch applied, then publishes it. In-flight queries keep scanning
  /// the epoch they pinned; no reader ever waits on this call. A throw
  /// (bad batch, failed publish) leaves the published epoch, the version
  /// and the delta stream untouched.
  synopsis::UpdateReport update(const synopsis::UpdateBatch& batch) {
    common::MutexLock lock(core_->writer_mutex);
    const auto [cur, from] = core_->epoch.acquire_versioned();
    synopsis::UpdateReport report;
    core_->epoch.publish(cur->next_epoch(batch, core_->pool, report));
    if (core_->delta_sink) {
      core_->delta_sink(batch, from, core_->epoch.version());
    }
    return report;
  }

  void save(std::ostream& os,
            common::Codec codec = common::Codec::kShuffle) const {
    snapshot()->save(os, codec);
  }

 protected:
  EpochComponent(std::unique_ptr<const Snapshot> first,
                 common::ThreadPool* pool)
      : core_(std::make_unique<Core>()) {
    common::MutexLock lock(core_->writer_mutex);
    core_->pool = pool;
    core_->epoch.publish(std::move(first));
  }
  ~EpochComponent() = default;

  /// Publishes `restamp(current epoch)` under the writer mutex.
  template <typename Restamp>
  void republish(const Restamp& restamp) {
    common::MutexLock lock(core_->writer_mutex);
    core_->epoch.publish(restamp(*core_->epoch.acquire()));
  }

 private:
  /// The non-movable anchor behind the movable facade: the writer mutex and
  /// the epoch slot readers pin through. Held via unique_ptr so components
  /// still fit in std::vector.
  struct Core {
    common::Mutex writer_mutex;
    common::ThreadPool* pool AT_GUARDED_BY(writer_mutex) = nullptr;
    DeltaSink delta_sink AT_GUARDED_BY(writer_mutex);
    common::EpochSlot<Snapshot> epoch;
  };

  std::unique_ptr<Core> core_;
};

}  // namespace at::services
