// Deadline-aware TCP serving front end (ISSUE 6 tentpole): the live
// request path the paper's accuracy-for-latency trade finally runs
// against.
//
// Threading: one acceptor thread; one frame-I/O thread per connection;
// one bounded read queue drained by W read workers, W = the executor's
// CPU count (ShardedExecutor::cpus); and one writer lane, a FIFO queue
// with one thread, that runs every kUpdate. A publish never holds a read
// worker, and updates still apply one at a time in arrival order. Each
// thread names itself (at-accept, at-conn, at-read-<w>, at-write), so
// `top -H` shows which one is busy.
//
// Read worker w is pinned to the executor's w-th CPU: one worker per CPU.
// Left unpinned, the kernel kept all the read workers and connection
// threads on one of the benchmark server's three CPUs in most server
// processes, so on `burst` each worker spent about as long runnable but
// waiting for that CPU as it spent running, while the other two CPUs sat
// idle. Pinned, each worker waits a small fraction of its run time, and
// the share of `burst` searches that meet their deadline rose from 0.78
// to 0.96 (medians of 10 paired runs, server on 3 vCPUs of a 4-vCPU
// Xeon). The connection threads stay unpinned.
//
// No read fans out: the full scan, the synopsis rung and both recommend
// rungs each walk the components in order on the read worker, and the
// executor pool runs only updates' heavy phases. Fanning a query across
// the pool trims its latency a little but costs about twice the CPU, and
// under overload the CPU is what the deadlines wait for.
//
// Admission control runs at enqueue time: a request whose deadline is
// already unmeetable given the queue ahead of it (its depth times the
// full-scan estimate, divided by the queue's worker count), or that would
// overflow the queue's bound, is shed immediately with a retry-after hint
// instead of rotting in the queue.
//
// Degradation ladder, walked as the remaining deadline budget shrinks
// (each rung's cost is a live EWMA of observed executions, seeded by a
// calibration pass at start()):
//
//   full      full block-decode scan over every component. Components
//             that fail (dead group, injected fault) are skipped and the
//             loss of their doc share is recorded — a partial answer is
//             marked, never silent.
//   synopsis  stage-1-only answer from the aggregated synopsis pages
//             (estimated loss: calibrated mean overlap deficit).
//   cached    the server's bounded answer cache. Fresh entries also serve
//             as the normal fast path; entries from an older data epoch
//             are only used here, as a stale degraded answer, with a
//             staleness penalty added to their recorded loss.
//   shed      structured refusal with retry-after.
//
// Online retraining (ISSUE 8): queries never block on updates. Every
// component owns an RCU epoch slot; a query pins the current snapshot and
// scans it to completion while kUpdate requests derive the next epoch by
// copy on write and publish it with a pointer swap. There is no serving-path
// reader/writer lock anywhere — freshness is an epoch token: cached
// answers are stamped with the effective epoch (reload bumps +
// per-component publish versions) they were computed in, and every publish
// re-annotates older cache entries as stale with an accuracy penalty.
// When `delta_dir` is set, each publish also emits an ATAC "DLTA" delta
// artifact a warm standby can tail (see src/synopsis/delta.h).
//
// Every response records the rung (tier) and estimated accuracy loss;
// per-tier latency and loss aggregate into the stats op / stats_json().
// Failure handling is total: any exception in a rung falls to the next
// rung, any exception outside the ladder becomes a structured error
// response, malformed frames close only their connection — the process
// never crashes (proven by the failpoint suites).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <istream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sharded_executor.h"
#include "common/thread_annotations.h"
#include "common/stats.h"
#include "server/protocol.h"
#include "services/recommender/service.h"
#include "services/search/query_cache.h"
#include "services/search/service.h"

namespace at::server {

/// Loss penalty recorded on top of a stale (previous-epoch) cached answer.
inline constexpr double kStalePenaltyPct = 10.0;

struct ServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = ephemeral; read the bound port from port()
  /// Admission bound: pending requests per queue (the read queue and the
  /// writer lane).
  std::size_t max_queue = 64;
  /// Applied when a request carries deadline_ms == 0.
  double default_deadline_ms = 100.0;
  /// Queries run at start() to seed the per-rung cost EWMAs and measure
  /// the synopsis tier's actual accuracy loss on this corpus.
  std::vector<search::SearchRequest> calibration_queries;
  /// When non-empty, every component publish — search ("c") and
  /// recommender ("r") alike — writes one ATAC "DLTA" delta artifact
  /// (`delta_c<comp>_<ver>.atac` / `delta_r<comp>_<ver>.atac`, version
  /// zero-padded, written to a ".tmp" name and atomically renamed) into
  /// this directory for warm-standby tailing. A failed delta write is
  /// counted, never fatal — the epoch itself is already live.
  std::string delta_dir;
};

/// One rung's aggregate: request count, latency percentiles and mean
/// recorded loss. Snapshot type returned to tests and rendered into the
/// stats op's JSON.
struct TierSnapshot {
  std::uint64_t count = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_loss_pct = 0.0;
};

struct ServingSnapshot {
  TierSnapshot full, synopsis, cached;
  std::uint64_t shed = 0;
  std::uint64_t errors = 0;
  std::uint64_t bad_frames = 0;
  std::uint64_t connections = 0;
  std::uint64_t accepted = 0;  // admitted requests (all ops)
  double est_full_ms = 0.0;
  double est_synopsis_ms = 0.0;
  double synopsis_loss_pct = 0.0;
  std::uint64_t data_epoch = 0;   // reload bumps only
  std::uint64_t updates = 0;      // kUpdate requests applied
  std::uint64_t epoch_version = 0;    // effective epoch (freshness token)
  std::uint64_t epoch_published = 0;  // snapshots published across shards
  std::uint64_t epoch_retired = 0;    // snapshots fully drained + freed
  std::uint64_t deltas_written = 0;   // DLTA artifacts emitted
  std::uint64_t delta_failures = 0;   // DLTA writes that failed (injected)
};

class Server {
 public:
  /// `reco` may be null (recommend requests then get a structured
  /// bad-request response). The caller owns services and executor; they
  /// must outlive the server.
  Server(search::SearchService& search, reco::CfService* reco,
         common::ShardedExecutor& exec, ServerConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, calibrates, spawns the acceptor, the read workers and the
  /// writer lane. Throws std::runtime_error when the socket cannot be
  /// bound.
  void start();

  /// Stops accepting, drains every queued request, joins all threads. The
  /// writer lane drains before the delta sinks detach, so every applied
  /// update's delta is written. Idempotent.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  ServingSnapshot snapshot() const;
  std::string stats_json() const;

  /// Marks every currently cached answer as belonging to an older data
  /// epoch: still servable, but only as the stale-cached degradation rung
  /// with a loss penalty. Called by the reload path; exposed so tests can
  /// drive the rung directly.
  void bump_data_epoch();

  /// Strong-guarantee snapshot reload of one search component (see
  /// SearchService::reload_component). In-flight queries keep scanning
  /// their pinned epoch snapshots — the swap is a publish, not a lock —
  /// and the data epoch is bumped on success.
  void reload_search_component(std::size_t c, std::istream& is);

  /// Effective epoch: reload bumps + the sum of every search component's
  /// published version. Monotonic; changes whenever any shard's data does.
  std::uint64_t epoch_now() const;

  /// Writes a full warm-standby checkpoint into `dir`: one SCMP artifact
  /// per search component (`ckpt_c<comp>_<version>.atac`), one RCMP per
  /// recommender component (`ckpt_r<comp>_<version>.atac`), and the
  /// corpus-global idf as a 1xN MATX matrix (`ckpt_idf.atac`). Each
  /// component's (snapshot, version) pair is pinned atomically, and every
  /// file is written to a ".tmp" name then renamed, so a tailing replica
  /// never observes a half-framed artifact. Per-component chains stay
  /// consistent under concurrent updates (deltas at or below the
  /// checkpointed version are simply skipped at replay); do not call
  /// concurrently with reload_search_component (the idf would be torn
  /// across components). Throws on I/O failure.
  void write_checkpoint(const std::string& dir) const;

 private:
  struct Job;
  struct WorkQueue;

  void acceptor_loop();
  void connection_loop(int fd, std::uint64_t conn_id);
  void worker_loop(WorkQueue& q);

  /// Admission decision + enqueue; returns false when the request was
  /// shed or refused (then *shed_resp is the response to send), true when
  /// enqueued (then *done observes the eventual response).
  bool admit(protocol::Request req, protocol::Response* shed_resp,
             std::future<protocol::Response>* done);

  protocol::Response serve(const Job& job);
  /// Ladder rungs take no lock: each scan pins the epoch snapshots it
  /// needs, so a concurrent update/reload publish never blocks or tears
  /// a query.
  protocol::Response serve_search(const protocol::Request& req,
                                  double remaining_ms);
  protocol::Response serve_recommend(const protocol::Request& req,
                                     double remaining_ms);
  protocol::Response serve_update(const protocol::Request& req);
  /// `kind` is 'c' (search) or 'r' (recommender) — the stream-filename
  /// namespace the delta lands in.
  void write_delta(char kind, std::size_t c, const synopsis::UpdateBatch& batch,
                   std::uint64_t from, std::uint64_t to);
  void record(const protocol::Response& resp);
  void calibrate();
  void observe_cost(std::atomic<double>& est_ms, double observed_ms);

  search::SearchService& search_;
  reco::CfService* reco_;
  common::ShardedExecutor& exec_;
  ServerConfig config_;

  // Atomic: stop() closes and clears the fd while acceptor_loop reads it.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  // The read queue, and the writer lane that takes every kUpdate in
  // arrival order; workers_ holds all their threads.
  std::unique_ptr<WorkQueue> reader_;
  std::unique_ptr<WorkQueue> writer_;
  std::vector<std::thread> workers_;

  common::Mutex conn_mutex_;
  struct Connection {
    int fd = -1;
    std::thread thread;
  };
  std::vector<std::unique_ptr<Connection>> connections_
      AT_GUARDED_BY(conn_mutex_);

  // Answer cache: full-tier answers keyed by the terms as sent, annotated
  // (QueryCache::ResultMeta) with recorded loss + the effective epoch they
  // were computed in. Thread-safe and doubly bounded (entries + bytes).
  // Every publish re-annotates entries from retired epochs as stale.
  std::unique_ptr<search::QueryCache> cache_;
  std::atomic<std::uint64_t> data_epoch_{0};  // reload counter

  // Ladder cost model.
  std::atomic<double> est_full_ms_{0.0};
  std::atomic<double> est_synopsis_ms_{0.0};
  std::atomic<double> est_recommend_full_ms_{0.0};
  std::atomic<double> est_recommend_syn_ms_{0.0};
  double synopsis_loss_pct_ = 0.0;

  // Aggregated serving stats. Every response records under stats_mutex_,
  // so each tier is constant-size: P² latency quantiles, not samples.
  struct TierStats {
    common::P2Quantile p50{0.5};
    common::P2Quantile p99{0.99};
    common::StreamingStats loss;  // its count is the tier's count
  };
  mutable common::Mutex stats_mutex_;
  TierStats full_ AT_GUARDED_BY(stats_mutex_);
  TierStats synopsis_ AT_GUARDED_BY(stats_mutex_);
  TierStats cached_ AT_GUARDED_BY(stats_mutex_);
  std::uint64_t shed_ AT_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t errors_ AT_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t accepted_ AT_GUARDED_BY(stats_mutex_) = 0;
  std::uint64_t updates_ AT_GUARDED_BY(stats_mutex_) = 0;
  std::atomic<std::uint64_t> bad_frames_{0};
  std::atomic<std::uint64_t> connections_seen_{0};
  std::atomic<std::uint64_t> deltas_written_{0};
  std::atomic<std::uint64_t> delta_failures_{0};
};

}  // namespace at::server
