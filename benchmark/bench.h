// Shared declarations of at_bench, the open-loop accuracy-at-deadline
// benchmark for at_server (see benchmark/README.md).
//
// The driver spawns the real at_server, drives it from one open-loop
// generator thread over a few pipelined connections, times every request
// from its *scheduled* send time, and checks every answer against a
// reference SearchService built in-process from the same corpus.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "server/protocol.h"
#include "services/search/service.h"
#include "workload/corpus.h"

namespace at::bench {

namespace protocol = server::protocol;

// ---------------------------------------------------------------------------
// Fixed shape of the served corpus and of the load
// ---------------------------------------------------------------------------

/// at_server --components / --docs. Setup is linear in the doc count
/// (~1.9 s for 16 x 2000 docs on a 4-vCPU Xeon); this size keeps three
/// timed setups per run affordable.
inline constexpr std::size_t kComponents = 16;
inline constexpr std::size_t kDocsPerComponent = 2000;
inline constexpr std::uint32_t kTopK = 10;
/// Connections the generator pipelines over (one process, one thread).
inline constexpr std::size_t kConnections = 4;
/// kUpdate batch shape (rows synthesized server-side from the seed).
inline constexpr std::uint32_t kUpdateAdds = 64;
inline constexpr std::uint32_t kUpdateChanges = 64;

struct WorkloadSpec {
  const char* name;
  /// Mean search rate (Poisson) or, with burst_s > 0, the in-burst rate.
  double rate;
  /// burst_s > 0: each 1 s period opens with burst_s at `rate`, then runs
  /// at `trough_rate`.
  double burst_s;
  double trough_rate;
  double deadline_ms;
  /// 0: every search is a new query (distinct canonical key); else the
  /// searches draw Zipf(zipf_s) ranks over a seeded pool of this many
  /// distinct queries.
  std::size_t pool;
  double zipf_s;
  /// Searches round-robin over the first `search_conns` connections;
  /// updates (update_rate > 0, evenly spaced) use the last one.
  std::size_t search_conns;
  double update_rate;
  /// Capacity bisection range in req/s (traced runs).
  double cap_lo;
  double cap_hi;
};

// ---------------------------------------------------------------------------
// Queries and the request plan
// ---------------------------------------------------------------------------

/// Seeded query source. Distinct mode rejection-samples CorpusGen queries
/// until the canonical (sorted, deduplicated) key is new; pool mode draws
/// Zipf ranks over a pool built the same way.
class QueryStream {
 public:
  QueryStream(const workload::CorpusGen& gen, std::uint64_t seed,
              std::size_t pool, double zipf_s);
  /// Index into table() of the next query.
  std::uint32_t next();
  const std::vector<std::vector<std::uint32_t>>& table() const {
    return table_;
  }

 private:
  std::uint32_t fresh();

  const workload::CorpusGen& gen_;
  common::Rng rng_;
  std::unique_ptr<common::ZipfDistribution> zipf_;  // pool mode only
  std::vector<std::vector<std::uint32_t>> table_;
  std::set<std::vector<std::uint32_t>> seen_;  // canonical keys
};

struct Planned {
  double t_ms = 0.0;  // due time, ms after the schedule starts
  std::uint32_t conn = 0;
  bool update = false;
  std::uint32_t query = 0;      // search: QueryStream::table() index
  std::uint32_t component = 0;  // update: target shard
  std::uint64_t update_seed = 0;
  std::uint32_t deadline_ms = 0;
};

struct Outcome {
  double sent_ms = -1.0;  // handed to the socket (ms after schedule start)
  double recv_ms = -1.0;  // response decoded; < 0: never answered
  bool bad_frame = false;  // undecodable, or answered the wrong request id
  protocol::Response resp;

  bool answered() const { return recv_ms >= 0.0 && !bad_frame; }
  bool ok() const { return answered() && resp.status == protocol::Status::kOk; }
};

/// Search arrivals (and, when spec.update_rate > 0, updates) over
/// [0, seconds), sorted by due time.
std::vector<Planned> make_plan(const WorkloadSpec& spec, double seconds,
                               QueryStream& qs, common::Rng& rng);

// ---------------------------------------------------------------------------
// Spans (Chrome trace-event JSON at exit)
// ---------------------------------------------------------------------------

/// In-memory span log. A span records its name, start, end, parent span
/// and request id; spans of one request share the id.
class Tracer {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Span {
    const char* name;  // a string literal
    TimePoint start, end;
    std::int32_t parent;  // index into spans(), -1 for a root
    std::uint64_t request;
  };

  std::int32_t begin(const char* name, std::int32_t parent,
                     std::uint64_t request);
  void end(std::int32_t span);
  /// Records an already-measured interval.
  std::int32_t add(const char* name, TimePoint start, TimePoint end,
                   std::int32_t parent, std::uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time (duration minus the time direct children cover) of every
  /// span with this name, in microseconds.
  std::vector<double> self_us(const char* name) const;

 private:
  std::vector<Span> spans_;
};

/// Writes Chrome trace-event JSON ({"traceEvents": [...]}, "X" events),
/// one process track per tracer, timestamps in us after `origin`.
bool write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<const Tracer*, const char*>>& tracks,
    Tracer::TimePoint origin);

/// Records a span over its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, std::int32_t parent,
             std::uint64_t request)
      : t_(t), id_(t.begin(name, parent, request)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const { return id_; }

 private:
  Tracer& t_;
  std::int32_t id_;
};

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

struct ProcSample {
  double cpu_s = 0.0;   // utime + stime
  double rss_mb = 0.0;  // VmRSS
  double hwm_mb = 0.0;  // VmHWM (peak RSS)
};

/// at_server child pinned to `cpus`; stopped (SIGTERM, then SIGKILL) and
/// reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& args,
                const std::vector<int>& cpus, const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Blocks until the "LISTENING <port>" line; returns seconds since the
  /// fork. Throws on timeout or early exit.
  double wait_listening(double timeout_s);
  std::uint16_t port() const { return port_; }
  ProcSample sample() const;
  /// SIGTERM and reap; returns the exit status (or -signal).
  int stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::chrono::steady_clock::time_point spawned_;
};

/// CPUs the driver may use (affinity mask), and the split: server on all
/// but the last, generator on the last (both on the only CPU when there
/// is one).
struct CpuSplit {
  std::vector<int> server;
  int generator = 0;
  std::string describe() const;
};
CpuSplit split_cpus();
void pin_current_thread(const std::vector<int>& cpus);

// ---------------------------------------------------------------------------
// The open-loop generator
// ---------------------------------------------------------------------------

struct LiveOptions {
  /// Plan entries due before this are warm-up: sent, checked, not measured.
  double window_start_ms = 0.0;
  /// Called once when the generator's clock reaches window_start_ms.
  std::function<void()> on_window_start;
  /// Grace after the last due time for outstanding responses.
  double drain_ms = 10000.0;
  /// Client-side spans for requests due in odd seconds of the window
  /// (null: none). Lets one run compare traced vs untraced latency.
  Tracer* tracer = nullptr;
  /// Fetch the stats op on connection 0 once the plan has drained.
  bool fetch_stats = false;
};

struct LiveResult {
  std::vector<Outcome> outcomes;  // parallel to the plan
  std::string stats_json;
  std::chrono::steady_clock::time_point origin;  // t_ms == 0
};

LiveResult run_open_loop(std::uint16_t port, const std::vector<Planned>& plan,
                         const std::vector<std::vector<std::uint32_t>>& queries,
                         const LiveOptions& opts);

// ---------------------------------------------------------------------------
// The reference service and answer checking
// ---------------------------------------------------------------------------

struct SetupTimes {
  double corpus_gen_s = 0.0;
  double shard_build_s = 0.0;
  double service_s = 0.0;
};

/// at_server's corpus (same config, seed and synopsis build settings), in
/// process. Exact answers are what every served answer is checked against.
struct Reference {
  std::unique_ptr<search::SearchService> service;
  SetupTimes times;
};

workload::CorpusConfig server_corpus_config();
std::vector<std::string> server_args();
std::unique_ptr<Reference> build_reference();

/// The batch at_server's kUpdate op synthesizes from (component, adds,
/// changes, seed) against the component's current shape.
synopsis::UpdateBatch synthesize_update(const search::SearchService& svc,
                                        std::uint32_t component,
                                        std::uint32_t adds,
                                        std::uint32_t changes,
                                        std::uint64_t seed);

struct Verification {
  std::size_t compared = 0;     // answers checked bit-for-bit
  std::size_t mismatches = 0;   // ... that differed from the reference
  std::size_t structural = 0;   // answers failing the shape checks
  std::string first_error;
  /// Per plan index: top-k overlap of the served answer with the exact
  /// answer; NaN when the request is not in the accuracy sample (warm-up,
  /// update, unanswered, or, under churn, overlapping an update).
  std::vector<double> overlap;
  /// Per plan index: in the accuracy sample.
  std::vector<char> sampled;
};

/// Recomputes the exact answer of every answered search (in data-epoch
/// order when the plan carries updates, applying the same batches to the
/// reference) on `threads` threads.
Verification verify(Reference& ref, const std::vector<Planned>& plan,
                    const std::vector<Outcome>& outcomes,
                    const std::vector<std::vector<std::uint32_t>>& queries,
                    double window_start_ms, std::size_t threads);

// ---------------------------------------------------------------------------
// Traced replay into the reference service
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Replays the searches `sequence` (indices into `queries`) closed-loop
/// through the driver's own copy of each layer (protocol codec, a
/// QueryCache sized like the server's, the reference service on an
/// executor over `cpus`), recording spans into `tracer`, and appends the
/// per-layer metrics. Mutates `ref` (the update-publish timing applies
/// batches).
void traced_replay(Reference& ref,
                   const std::vector<std::vector<std::uint32_t>>& queries,
                   const std::vector<std::uint32_t>& sequence,
                   const std::vector<int>& cpus, std::uint64_t seed,
                   Tracer& tracer, std::vector<Metric>* out);

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

/// Nearest-rank percentile (common::PercentileTracker); 0 when empty.
double percentile(const std::vector<double>& v, double p);
double mean(const std::vector<double>& v);

}  // namespace at::bench
