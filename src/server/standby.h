// Warm-standby replica (ISSUE 10 tentpole): the process that actually
// consumes the DLTA delta stream the serving front end emits, and the
// missing half of replicated multi-node serving.
//
// Lifecycle:
//
//   load()     reads a full checkpoint (written by Server::write_checkpoint):
//              one SCMP per search component, one RCMP per recommender
//              component, and the corpus-global idf (MATX). Each loaded
//              component's epoch slot is REBASED to the version stamped in
//              the checkpoint filename, so replayed publishes advance in
//              lockstep with the primary's delta stream — after promotion
//              the replica reports the same effective epoch the primary
//              would (no epoch gap).
//   start()    spawns the tailer thread: every poll lists the delta
//              directory, ignores anything that is not a well-formed
//              "delta_<kind><comp>_<version>.atac" (".tmp" leftovers,
//              foreign files), sorts numerically by version per component,
//              and applies exactly the batches whose from_version matches
//              the component's replayed state. Re-delivered deltas (version
//              at or below the cursor) are no-ops.
//   promote()  stops tailing, drains every delta already on disk, then
//              starts a Server over the replayed components and begins
//              answering queries. Because SynopsisUpdater::apply is
//              deterministic and the checkpointed idf is installed
//              verbatim, the promoted replica's answers are byte-identical
//              to a primary that never failed (the takeover drill in
//              tests/server_test.cpp asserts both properties).
//
// Gap handling: a delta whose from_version is ahead of the replayed state
// means a delta the primary lost (e.g. a failed delta write — they are
// best-effort on the primary). Because delta files are written to ".tmp"
// and atomically renamed in version order per component, a missing middle
// version that persists across `gap_patience` consecutive polls cannot be
// an in-flight write; the replica then surfaces a structured resync
// condition (state kResyncRequired + reason) instead of silently skipping
// — replaying past a hole would diverge forever. Out-of-order *arrival*
// (a later version visible one poll before an earlier one) is absorbed by
// the patience window.
//
// Threading: one tailer thread, serialized with the control plane
// (load/start/promote/stop — call those from one thread) through `mutex_`;
// all shared state is AT_GUARDED_BY(mutex_) and the pacing wait is an
// interruptible CondVar::wait_for, never a bare sleep. Failpoints:
// "standby.apply" fires before a batch is applied (an injected error is
// counted and retried next poll — no partial state), "standby.promote"
// fires before promotion side effects (an injected error leaves the
// replica tailing).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_executor.h"
#include "common/thread_annotations.h"
#include "server/server.h"
#include "services/recommender/service.h"
#include "services/search/service.h"

namespace at::server {

struct StandbyConfig {
  /// Directory holding ckpt_c*/ckpt_r*/ckpt_idf artifacts (see
  /// Server::write_checkpoint).
  std::string checkpoint_dir;
  /// Directory the primary emits delta artifacts into (ServerConfig::
  /// delta_dir on the primary).
  std::string delta_dir;
  /// Tailer pacing between polls.
  double poll_interval_ms = 20.0;
  /// Consecutive polls a version gap must persist before the replica
  /// declares resync. >= 2 absorbs out-of-order arrival within one poll
  /// window; 1 makes every observed gap immediate (tests).
  int gap_patience = 2;
  /// Search top-k of the reconstructed service.
  std::size_t k = 10;
  /// Rating bounds of the reconstructed recommender (not persisted in
  /// RCMP; must match the primary's).
  double min_rating = 1.0;
  double max_rating = 5.0;
  /// Config of the server started at promote(). When its delta_dir is
  /// set (e.g. to the tailed directory), the promoted replica continues
  /// the delta chain exactly where the primary stopped.
  ServerConfig server;
};

enum class StandbyState {
  kCreated,         // constructed, nothing loaded
  kTailing,         // checkpoint loaded; applying deltas (or ready to)
  kResyncRequired,  // structured failure: full re-checkpoint needed
  kPromoted,        // serving
  kStopped,
};

const char* to_string(StandbyState s);

struct StandbyStats {
  StandbyState state = StandbyState::kCreated;
  std::uint64_t polls = 0;
  std::uint64_t deltas_applied = 0;
  /// Directory entries skipped per poll (".tmp", foreign names,
  /// out-of-range components). Re-counted every poll by design — it is a
  /// rate, not a set size.
  std::uint64_t files_ignored = 0;
  /// Well-named delta files that failed to load (torn/corrupt); each is
  /// retried next poll and feeds the gap logic, never skipped past.
  std::uint64_t load_errors = 0;
  /// Injected or I/O apply failures ("standby.apply"); retried next poll.
  std::uint64_t apply_failures = 0;
  /// Components currently stuck behind a version gap (patience running).
  std::uint64_t gaps_pending = 0;
  /// Non-empty exactly when state == kResyncRequired.
  std::string resync_reason;
  /// Sum of search component epoch versions (the promoted server's
  /// epoch_now() contribution); comparable against the primary's.
  std::uint64_t search_epoch = 0;
};

class StandbyReplica {
 public:
  explicit StandbyReplica(StandbyConfig config);
  ~StandbyReplica();

  StandbyReplica(const StandbyReplica&) = delete;
  StandbyReplica& operator=(const StandbyReplica&) = delete;

  /// Loads the checkpoint and rebases every component's epoch version to
  /// its checkpointed value. Throws common::ArtifactError when the
  /// checkpoint is missing, non-contiguous or corrupt.
  void load();

  /// Spawns the tailer thread (load() first).
  void start();

  /// One synchronous tailer iteration: list, sort, apply everything ready.
  /// Returns the number of deltas applied. The deterministic test hook —
  /// usable with or without the tailer thread running.
  std::size_t poll_once();

  /// Stops tailing, drains all remaining on-disk deltas, then starts a
  /// Server over the replayed components and returns it (owned by the
  /// replica until stop()). Throws std::runtime_error when promotion is
  /// impossible (not loaded, resync required) — the replica keeps its
  /// state so the condition is observable. Idempotent once promoted.
  Server& promote();

  /// Joins the tailer and stops the promoted server (if any). Idempotent.
  void stop();

  StandbyStats stats() const;
  std::string stats_json() const;

  StandbyState state() const;
  /// Non-null once promoted, until stop().
  Server* server();
  /// Non-null once loaded. The replica owns both services and the
  /// executor their updates run on.
  search::SearchService* search_service() { return search_.get(); }
  reco::CfService* reco_service() { return reco_.get(); }

 private:
  /// Per-component replay cursor.
  struct Cursor {
    std::uint64_t applied = 0;  // epoch version replayed up to
    int gap_polls = 0;          // consecutive polls stuck behind a gap
  };
  /// One parsed directory entry, per (kind, component) stream.
  struct Entry {
    std::uint64_t version = 0;
    std::string path;
  };

  void tail_loop();
  std::size_t poll_locked() AT_REQUIRES(mutex_);
  /// Replays every ready entry of one component's stream; updates its
  /// cursor and the gap bookkeeping.
  std::size_t replay_component_locked(char kind, std::size_t comp,
                                      std::vector<Entry> entries)
      AT_REQUIRES(mutex_);
  void declare_resync_locked(const std::string& reason) AT_REQUIRES(mutex_);

  StandbyConfig config_;
  common::ShardedExecutor exec_;
  // Set once in load() before any thread exists; the services themselves
  // are internally synchronized (RCU epoch slots + writer mutexes).
  std::unique_ptr<search::SearchService> search_;
  std::unique_ptr<reco::CfService> reco_;

  mutable common::Mutex mutex_;
  common::CondVar cv_;
  StandbyState state_ AT_GUARDED_BY(mutex_) = StandbyState::kCreated;
  bool stop_tailer_ AT_GUARDED_BY(mutex_) = false;
  std::vector<Cursor> search_cursor_ AT_GUARDED_BY(mutex_);
  std::vector<Cursor> reco_cursor_ AT_GUARDED_BY(mutex_);
  std::uint64_t polls_ AT_GUARDED_BY(mutex_) = 0;
  std::uint64_t deltas_applied_ AT_GUARDED_BY(mutex_) = 0;
  std::uint64_t files_ignored_ AT_GUARDED_BY(mutex_) = 0;
  std::uint64_t load_errors_ AT_GUARDED_BY(mutex_) = 0;
  std::uint64_t apply_failures_ AT_GUARDED_BY(mutex_) = 0;
  std::string resync_reason_ AT_GUARDED_BY(mutex_);
  std::unique_ptr<Server> server_ AT_GUARDED_BY(mutex_);
  // Control-plane only (start/promote/stop run from one thread).
  std::thread tailer_;
};

}  // namespace at::server
