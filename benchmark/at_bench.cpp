// at_bench: open-loop accuracy-at-deadline benchmark driver for at_server.
//
//   at_bench --workload W --seed S --seconds T --trace 0|1
//            --server PATH --results DIR [--commit C]
//
// One run is kSegments segments. Each sets up a fresh at_server (timed:
// spawn -> LISTENING), warms it up, drives it open-loop for T/kSegments
// seconds, stops it and checks every answer against the in-process
// reference. Each end-to-end metric is the median over the segments, so
// one unlucky server process (thread placement, a noisy neighbour) does
// not decide the run. Every metric prints as "name value unit"; the last
// line is one JSON object {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exit status 0 only when every answer checked out, no
// operation failed and the generator kept to its schedule.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/simd.h"
#include "common/topology.h"

namespace at::bench {
namespace {

// ---------------------------------------------------------------------------
// The workloads (frozen; see README.md for why each exists)
// ---------------------------------------------------------------------------

const std::vector<WorkloadSpec>& workloads() {
  // Rates were set against a measured capacity of ~13,500 searches/s
  // (steady's mix, 16 x 2000 docs, server on 3 vCPUs of a Xeon).
  //                name      rate     burst trough dl_ms pool   zipf conns upd   cap_lo   cap_hi
  static const std::vector<WorkloadSpec> kAll = {
      {"steady", 3000.0, 0.0, 0.0, 20.0, 0, 0.0, 4, 0.0, 3000.0, 15000.0},
      {"hot", 5000.0, 0.0, 0.0, 20.0, 20000, 0.9, 4, 0.0, 5000.0, 25000.0},
      {"burst", 100000.0, 0.005, 1500.0, 10.0, 0, 0.0, 4, 0.0, 3000.0, 15000.0},
      {"churn", 2000.0, 0.0, 0.0, 20.0, 0, 0.0, 3, 10.0, 3000.0, 15000.0},
  };
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

constexpr int kSegments = 3;
constexpr double kWarmupS = 1.0;  // per segment, discarded
constexpr double kSetupTimeoutS = 120.0;
constexpr int kCapacityProbes = 6;
constexpr double kCapacityDeadlineMs = 20.0;
constexpr std::size_t kUpdateProbes = 8;
constexpr std::size_t kReplayRequests = 20000;
constexpr double kMaxSendLagP90Ms = 5.0;

struct Args {
  std::string workload = "steady";
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string server;
  std::string results = "build-bench/results";
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--server") a.server = v;
    else if (k == "--results") a.results = v;
    else if (k == "--commit") a.commit = v;
    else throw std::runtime_error("unknown flag " + k);
  }
  if (a.server.empty()) throw std::runtime_error("--server is required");
  if (a.seconds <= 0.0) throw std::runtime_error("--seconds must be > 0");
  return a;
}

/// Value of `"key": <number>` in the server's flat stats JSON.
double json_number(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\": ";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
       << fmt(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
  os << "}";
  return os.str();
}

bool met_deadline(const Planned& p, const Outcome& o) {
  return o.ok() && o.recv_ms - p.t_ms <= static_cast<double>(p.deadline_ms);
}

double share(std::size_t a, std::size_t b) {
  return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
}

/// Highest of kCapacityProbes bisection probes over [cap_lo, cap_hi] at
/// which >= 99% of searches meet kCapacityDeadlineMs and the backlog at
/// the probe's end is no larger than at its middle (up to one request per
/// connection plus 1 ms of arrivals of noise). cap_lo when none passes.
double capacity_bisection(std::uint16_t port, const WorkloadSpec& spec,
                          QueryStream& qs, common::Rng& rng, double budget_s) {
  WorkloadSpec probe = spec;
  probe.burst_s = 0.0;
  probe.update_rate = 0.0;
  probe.search_conns = kConnections;
  probe.deadline_ms = kCapacityDeadlineMs;
  const double step_s = budget_s / kCapacityProbes;
  double lo = spec.cap_lo, hi = spec.cap_hi;
  for (int i = 0; i < kCapacityProbes; ++i) {
    probe.rate = 0.5 * (lo + hi);
    const auto plan = make_plan(probe, step_s, qs, rng);
    LiveOptions opts;
    opts.drain_ms = 2000.0;
    const auto res = run_open_loop(port, plan, qs.table(), opts);
    std::size_t met = 0;
    const auto backlog = [&](double t) {
      long b = 0;
      for (std::size_t j = 0; j < plan.size(); ++j) {
        if (plan[j].t_ms <= t) ++b;
        const double r = res.outcomes[j].recv_ms;
        if (r >= 0.0 && r <= t) --b;
      }
      return static_cast<double>(b);
    };
    for (std::size_t j = 0; j < plan.size(); ++j)
      met += met_deadline(plan[j], res.outcomes[j]) ? 1 : 0;
    const bool pass =
        !plan.empty() &&
        static_cast<double>(met) >= 0.99 * static_cast<double>(plan.size()) &&
        backlog(step_s * 1e3) <= backlog(step_s * 500.0) +
                                     static_cast<double>(kConnections) +
                                     probe.rate * 1e-3;
    (pass ? lo : hi) = probe.rate;
  }
  return lo;
}

/// Client-observed kUpdate latency on an idle server (workloads without
/// updates in their mix).
std::vector<double> probe_updates(std::uint16_t port, QueryStream& qs,
                                  common::Rng& rng) {
  std::vector<Planned> probe(kUpdateProbes);
  for (std::size_t u = 0; u < probe.size(); ++u) {
    probe[u].t_ms = 50.0 * static_cast<double>(u);
    probe[u].update = true;
    probe[u].component =
        static_cast<std::uint32_t>(rng.uniform_index(kComponents));
    probe[u].update_seed = rng.next();
    probe[u].deadline_ms = 1000;
  }
  const auto res = run_open_loop(port, probe, qs.table(), {});
  std::vector<double> ms;
  for (std::size_t u = 0; u < probe.size(); ++u)
    if (res.outcomes[u].ok()) ms.push_back(res.outcomes[u].recv_ms - probe[u].t_ms);
  return ms;
}

/// One fresh server's share of a run.
struct Segment {
  double setup_s = 0.0;
  std::vector<Planned> plan;
  LiveResult live;
  ProcSample before, after;
  Verification check;
  int server_exit = 0;
};

/// Counts and samples over the measured windows of some segments.
struct Tally {
  std::size_t attempted = 0, failed = 0, window_ops = 0, searches = 0,
              met = 0, exact = 0, shed = 0, full = 0, synopsis = 0,
              fresh = 0, stale = 0, backlog_end = 0, acc_n = 0;
  double acc_sum = 0.0, cpu_s = 0.0;
  std::vector<double> lat, server_ms, wire_ms, calib_err, update_ms;
  /// Median search latency of each 1 s slice of each window (slices are
  /// whole burst periods), split by slice parity: odd slices are the
  /// traced ones in traced runs.
  std::vector<double> slice_p50, slice_p50_odd, slice_p50_even;
  /// p90 and p99 of the generator's send lag, per segment.
  std::vector<double> send_lag_p90, send_lag_p99;

  void add(const Segment& seg) {
    const double start_ms = kWarmupS * 1e3;
    const double end_ms = seg.plan.empty() ? 0.0 : seg.plan.back().t_ms;
    cpu_s += seg.after.cpu_s - seg.before.cpu_s;
    std::vector<std::vector<double>> slices;
    std::vector<double> lag;
    for (std::size_t i = 0; i < seg.plan.size(); ++i) {
      const Planned& p = seg.plan[i];
      const Outcome& o = seg.live.outcomes[i];
      ++attempted;
      failed += !o.answered() ||
                        o.resp.status == protocol::Status::kError ||
                        o.resp.status == protocol::Status::kBadRequest
                    ? 1
                    : 0;
      if (p.t_ms < start_ms) continue;
      ++window_ops;
      lag.push_back(o.sent_ms - p.t_ms);
      if (o.recv_ms < 0.0 || o.recv_ms > end_ms) ++backlog_end;
      const double l = o.recv_ms - p.t_ms;
      if (p.update) {
        if (o.ok()) update_ms.push_back(l);
        continue;
      }
      ++searches;
      if (o.answered() && o.resp.status == protocol::Status::kShed) ++shed;
      const double overlap = seg.check.overlap[i];
      if (o.ok()) {
        lat.push_back(l);
        server_ms.push_back(o.resp.server_ms);
        wire_ms.push_back(l - o.resp.server_ms);
        const auto slice = static_cast<std::size_t>((p.t_ms - start_ms) / 1e3);
        if (slice >= slices.size()) slices.resize(slice + 1);
        slices[slice].push_back(l);
        switch (o.resp.tier) {
          case protocol::Tier::kFull: ++full; break;
          case protocol::Tier::kSynopsis: ++synopsis; break;
          case protocol::Tier::kCached:
            ++(o.resp.est_loss_pct == 0.0 ? fresh : stale);
            break;
          case protocol::Tier::kNone: break;
        }
        if (!std::isnan(overlap))
          calib_err.push_back(
              std::fabs(o.resp.est_loss_pct - (1.0 - overlap) * 100.0));
      }
      const bool in_time = met_deadline(p, o);
      met += in_time ? 1 : 0;
      exact += in_time && o.resp.est_loss_pct == 0.0 ? 1 : 0;
      if (seg.check.sampled[i]) {
        ++acc_n;
        if (in_time && !std::isnan(overlap)) acc_sum += overlap;
      }
    }
    for (std::size_t s = 0; s < slices.size(); ++s) {
      if (slices[s].empty()) continue;
      const double p50 = percentile(slices[s], 50);
      slice_p50.push_back(p50);
      (s % 2 ? slice_p50_odd : slice_p50_even).push_back(p50);
    }
    send_lag_p90.push_back(percentile(lag, 90));
    send_lag_p99.push_back(percentile(lag, 99));
  }

  double accuracy() const {
    return acc_n ? acc_sum / static_cast<double>(acc_n) : 0.0;
  }
};

/// The end-to-end metrics: medians over the segments, so that one unlucky
/// server process does not decide the run. Latency is not among them: on
/// a shared VM its median drifts by up to half between runs minutes
/// apart (see README.md), so it is reported per layer, ungated.
std::vector<Metric> end_to_end(const std::vector<Segment>& segs) {
  std::vector<double> setup, hwm, met, accuracy, exact;
  for (std::size_t si = 0; si < segs.size(); ++si) {
    const Segment& s = segs[si];
    Tally t;
    t.add(s);
    setup.push_back(s.setup_s);
    hwm.push_back(s.after.hwm_mb);
    met.push_back(share(t.met, t.searches));
    accuracy.push_back(t.accuracy());
    exact.push_back(share(t.exact, t.searches));
    std::cout << "# segment " << si + 1 << ": setup_s " << s.setup_s
              << ", peak_rss_mb " << s.after.hwm_mb << ", lat_p50_ms "
              << percentile(t.lat, 50) << ", lat_p99_ms "
              << percentile(t.lat, 99) << ", deadline_met_share "
              << met.back() << ", accuracy_at_deadline " << accuracy.back()
              << "\n";
  }
  return {
      {"setup_s", percentile(setup, 50), "s"},
      {"peak_rss_mb", percentile(hwm, 50), "MB"},
      {"deadline_met_share", percentile(met, 50), "share"},
      {"accuracy_at_deadline", percentile(accuracy, 50), "share"},
      {"exact_share", percentile(exact, 50), "share"},
  };
}

/// Per-layer metrics measured from outside the live server, pooled over
/// every segment (stats-op values: the last segment's server).
std::vector<Metric> live_layers(const std::vector<Segment>& segs,
                                double capacity,
                                std::vector<double> update_ms) {
  Tally t;
  std::vector<double> rss_growth;
  for (const Segment& s : segs) {
    t.add(s);
    rss_growth.push_back(s.after.rss_mb - s.before.rss_mb);
  }
  update_ms.insert(update_ms.end(), t.update_ms.begin(), t.update_ms.end());
  const std::string& stats = segs.back().live.stats_json;
  const double p50_traced = percentile(t.slice_p50_odd, 50),
               p50_untraced = percentile(t.slice_p50_even, 50);
  return {
      {"server.server_ms_p50", percentile(t.server_ms, 50), "ms"},
      {"server.server_ms_p99", percentile(t.server_ms, 99), "ms"},
      {"server.wire_ms_p50", percentile(t.wire_ms, 50), "ms"},
      {"server.wire_ms_p99", percentile(t.wire_ms, 99), "ms"},
      {"server.cpu_us_per_req",
       t.window_ops ? t.cpu_s * 1e6 / static_cast<double>(t.window_ops) : 0.0,
       "us"},
      {"server.rss_growth_mb", percentile(rss_growth, 50), "MB"},
      {"epoch.live_end",
       json_number(stats, "epoch_published") -
           json_number(stats, "epoch_retired"),
       "count"},
      {"admission.shed_share", share(t.shed, t.searches), "share"},
      {"ladder.full_share", share(t.full, t.searches), "share"},
      {"ladder.synopsis_share", share(t.synopsis, t.searches), "share"},
      {"ladder.cached_fresh_share", share(t.fresh, t.searches), "share"},
      {"ladder.cached_stale_share", share(t.stale, t.searches), "share"},
      {"ladder.est_full_ms", json_number(stats, "est_full_ms"), "ms"},
      {"ladder.est_synopsis_ms", json_number(stats, "est_synopsis_ms"), "ms"},
      {"ladder.synopsis_loss_pct", json_number(stats, "synopsis_loss_pct"),
       "%"},
      {"ladder.loss_calibration_err_pct", mean(t.calib_err), "%"},
      {"harness.send_lag_p99_ms", percentile(t.send_lag_p99, 50), "ms"},
      {"harness.backlog_end", static_cast<double>(t.backlog_end), "count"},
      {"client.lat_p50_ms", percentile(t.slice_p50, 50), "ms"},
      {"client.lat_p99_ms", percentile(t.lat, 99), "ms"},
      {"client.lat_p999_ms", percentile(t.lat, 99.9), "ms"},
      {"client.lat_max_ms", percentile(t.lat, 100), "ms"},
      {"capacity_rps", capacity, "req/s"},
      {"update.client_p50_ms", percentile(update_ms, 50), "ms"},
      {"update.client_p99_ms", percentile(update_ms, 99), "ms"},
      {"trace.overhead_pct",
       p50_untraced > 0.0 ? (p50_traced / p50_untraced - 1.0) * 100.0 : 0.0,
       "%"},
  };
}

/// Builds the reference on the calling thread's CPU, off the caller.
class ReferenceBuild {
 public:
  ReferenceBuild()
      : thread_([this] {
          try {
            ref_ = build_reference();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~ReferenceBuild() {
    if (thread_.joinable()) thread_.join();
  }
  ReferenceBuild(const ReferenceBuild&) = delete;
  ReferenceBuild& operator=(const ReferenceBuild&) = delete;

  std::unique_ptr<Reference> get() {
    thread_.join();
    if (error_) std::rethrow_exception(error_);
    return std::move(ref_);
  }

 private:
  std::unique_ptr<Reference> ref_;
  std::exception_ptr error_;
  std::thread thread_;  // last: joins before the members it writes die
};

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr)
    throw std::runtime_error("unknown workload " + args.workload);
  const CpuSplit split = split_cpus();
  const std::vector<int> all_cpus = common::schedulable_cpus();
  pin_current_thread({split.generator});
  ::mkdir(args.results.c_str(), 0755);
  const std::string stem = args.results + "/" + spec->name;

  // The plans: per segment, warm-up then its share of the measured
  // window (half of it in traced runs, whose other half is the capacity
  // bisection on the last segment's server).
  const workload::CorpusGen gen(server_corpus_config());
  QueryStream qs(gen, args.seed, spec->pool, spec->zipf_s);
  common::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 1);
  const double window_s =
      (args.trace ? args.seconds / 2.0 : args.seconds) / kSegments;
  std::vector<Segment> segs(kSegments);
  for (auto& s : segs) s.plan = make_plan(*spec, kWarmupS + window_s, qs, rng);

  // The reference builds on the generator's CPU while the first server
  // sets up on its own CPUs. Under updates each segment needs the
  // reference in its initial state, so it is rebuilt while the next
  // server sets up.
  auto build = std::make_unique<ReferenceBuild>();
  std::unique_ptr<Reference> ref;
  std::vector<Tracer> tracers(kSegments);
  double capacity = 0.0;
  std::vector<double> probe_ms;
  for (int si = 0; si < kSegments; ++si) {
    Segment& seg = segs[si];
    ServerProcess server(args.server, server_args(), split.server,
                         stem + ".server.log");
    seg.setup_s = server.wait_listening(kSetupTimeoutS);
    if (build != nullptr) {
      ref = build->get();
      build.reset();
    }
    LiveOptions opts;
    opts.window_start_ms = kWarmupS * 1e3;
    opts.on_window_start = [&] { seg.before = server.sample(); };
    opts.tracer = args.trace ? &tracers[si] : nullptr;
    opts.fetch_stats = true;
    seg.live = run_open_loop(server.port(), seg.plan, qs.table(), opts);
    seg.after = server.sample();
    if (args.trace && si + 1 == kSegments) {
      capacity = capacity_bisection(server.port(), *spec, qs, rng,
                                    args.seconds / 2.0);
      if (spec->update_rate <= 0.0) probe_ms = probe_updates(server.port(), qs, rng);
    }
    seg.server_exit = server.stop();

    pin_current_thread(all_cpus);
    seg.check = verify(*ref, seg.plan, seg.live.outcomes, qs.table(),
                       kWarmupS * 1e3, all_cpus.size());
    pin_current_thread({split.generator});
    if (spec->update_rate > 0.0 && si + 1 < kSegments)
      build = std::make_unique<ReferenceBuild>();
  }

  std::ostringstream host;
  host << "\"nproc\": " << all_cpus.size() << ", \"cpu_model\": \""
       << json_escape(cpu_model()) << "\", \"simd_tier\": \""
       << simd::tier_name(simd::active_tier()) << "\", \"cpu_split\": \""
       << split.describe() << "\", \"commit\": \"" << json_escape(args.commit)
       << "\"";
  std::cout << "# workload " << spec->name << " seed " << args.seed
            << " seconds " << args.seconds << " trace " << args.trace << "\n"
            << "# host {" << host.str() << "}\n";
  const std::vector<Metric> e2e = end_to_end(segs);
  Tally all;
  std::size_t compared = 0, mismatches = 0, structural = 0;
  std::string first_error;
  bool stats_ok = true;
  for (const Segment& s : segs) {
    all.add(s);
    compared += s.check.compared;
    mismatches += s.check.mismatches;
    structural += s.check.structural;
    if (first_error.empty()) first_error = s.check.first_error;
    stats_ok = stats_ok && !s.live.stats_json.empty();
  }
  // The generator kept to its schedule in a typical segment. Quiet, the
  // lag is ~0.02 ms at p90; host disturbances push p90 to ~2 ms and p99
  // to ~10 ms for minutes at a time. Lag only adds to measured latency, so
  // the gate catches a generator that cannot keep up, not host noise.
  const double lag_p90 = percentile(all.send_lag_p90, 50),
               lag_p99 = percentile(all.send_lag_p99, 50);

  std::vector<Metric> layer;
  if (args.trace) {
    layer = live_layers(segs, capacity, probe_ms);
    layer.push_back({"setup.corpus_gen_s", ref->times.corpus_gen_s, "s"});
    layer.push_back({"setup.shard_build_s", ref->times.shard_build_s, "s"});
    layer.push_back({"setup.service_s", ref->times.service_s, "s"});
    // The run's first kReplayRequests searches, in order.
    std::vector<std::uint32_t> sequence;
    for (const Segment& s : segs)
      for (const Planned& p : s.plan)
        if (!p.update && sequence.size() < kReplayRequests)
          sequence.push_back(p.query);
    Tracer replay;
    traced_replay(*ref, qs.table(), sequence, split.server, args.seed, replay,
                  &layer);
    std::vector<std::string> names;
    for (int si = 0; si < kSegments; ++si)
      names.push_back("live segment " + std::to_string(si + 1));
    std::vector<std::pair<const Tracer*, const char*>> tracks;
    for (int si = 0; si < kSegments; ++si)
      tracks.emplace_back(&tracers[si], names[si].c_str());
    tracks.emplace_back(&replay, "replay");
    if (!write_chrome_trace(stem + ".trace.json", tracks,
                            segs.front().live.origin))
      std::cerr << "at_bench: could not write " << stem << ".trace.json\n";
  }

  // Report.
  const bool lag_ok = lag_p90 <= kMaxSendLagP90Ms;
  const bool correct = mismatches == 0 && structural == 0 && stats_ok;
  const std::vector<Metric>& reported = args.trace ? layer : e2e;
  std::cout << "# checked " << compared << " exact answers bit-for-bit, "
            << mismatches << " mismatches, " << structural
            << " malformed; server exits";
  for (const Segment& s : segs) std::cout << " " << s.server_exit;
  std::cout << "\n# generator send lag p90 " << lag_p90 << " ms, p99 "
            << lag_p99 << " ms\n";
  if (!first_error.empty()) std::cout << "# first error: " << first_error << "\n";
  if (!lag_ok)
    std::cout << "# invalid run: generator send lag p90 " << lag_p90
              << " ms > " << kMaxSendLagP90Ms << " ms\n";
  for (const auto& m : reported)
    std::cout << m.name << " " << fmt(m.value) << " " << m.unit << "\n";

  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(all.attempted) +
      ", \"failed\": " + std::to_string(all.failed) +
      ", \"metrics\": " + metrics_json(reported) + "}";
  std::ofstream file(stem + (args.trace ? ".traced.json" : ".json"),
                     std::ios::trunc);
  file << "{\"workload\": \"" << spec->name << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
       << ", \"host\": {" << host.str() << "}, \"result\": " << result
       << "}\n";
  std::cout << result << std::endl;
  return correct && all.failed == 0 && lag_ok ? 0 : 1;
}

}  // namespace
}  // namespace at::bench

int main(int argc, char** argv) {
  try {
    return at::bench::run(at::bench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "at_bench: " << e.what() << "\n";
    return 2;
  }
}
