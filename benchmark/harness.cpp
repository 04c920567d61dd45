// Harness plumbing: seeded query/arrival plans, the spawned server
// process, CPU pinning and the span recorder.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "common/stats.h"
#include "common/topology.h"
#include "services/search/query_cache.h"
#include "sim/arrivals.h"

namespace at::bench {

using SteadyClock = std::chrono::steady_clock;

constexpr std::size_t kTraceFileRequests = 2000;

// ---------------------------------------------------------------------------
// Queries and plans
// ---------------------------------------------------------------------------

QueryStream::QueryStream(const workload::CorpusGen& gen, std::uint64_t seed,
                         std::size_t pool, double zipf_s)
    : gen_(gen), rng_(seed) {
  if (pool == 0) return;
  for (std::size_t i = 0; i < pool; ++i) fresh();
  zipf_ = std::make_unique<common::ZipfDistribution>(pool, zipf_s);
}

std::uint32_t QueryStream::fresh() {
  // Rejection sampling on the canonical key, the identity the server's
  // answer cache uses: "distinct" means distinct to the cache.
  for (int attempt = 0; attempt < 100000; ++attempt) {
    auto q = gen_.sample_query(rng_);
    if (!seen_.insert(search::QueryCache::canonical_key(q.terms)).second)
      continue;
    table_.push_back(std::move(q.terms));
    return static_cast<std::uint32_t>(table_.size() - 1);
  }
  throw std::runtime_error("QueryStream: distinct query space exhausted");
}

std::uint32_t QueryStream::next() {
  if (zipf_ == nullptr) return fresh();
  return static_cast<std::uint32_t>(zipf_->sample(rng_));
}

std::vector<Planned> make_plan(const WorkloadSpec& spec, double seconds,
                               QueryStream& qs, common::Rng& rng) {
  std::vector<double> searches;
  if (spec.burst_s > 0.0) {
    const double peak = spec.rate, trough = spec.trough_rate,
                 burst = spec.burst_s;
    searches = sim::nhpp_arrivals(
        [peak, trough, burst](double t) {
          return t - std::floor(t) < burst ? peak : trough;
        },
        std::max(peak, trough), seconds, rng);
  } else {
    searches = sim::poisson_arrivals(spec.rate, seconds, rng);
  }
  std::vector<Planned> plan;
  plan.reserve(searches.size());
  std::uint32_t rr = 0;
  const auto conns = static_cast<std::uint32_t>(spec.search_conns);
  for (const double t : searches) {
    Planned p;
    p.t_ms = t * 1e3;
    p.conn = rr++ % conns;
    p.query = qs.next();
    p.deadline_ms = static_cast<std::uint32_t>(spec.deadline_ms);
    plan.push_back(p);
  }
  if (spec.update_rate > 0.0) {
    // Evenly spaced: a fixed update count per run keeps the memory the
    // updates retain (peak_rss_mb) from varying with the seed.
    for (const double t : sim::uniform_arrivals(spec.update_rate, seconds)) {
      Planned p;
      p.t_ms = t * 1e3;
      p.conn = static_cast<std::uint32_t>(kConnections - 1);
      p.update = true;
      p.component = static_cast<std::uint32_t>(rng.uniform_index(kComponents));
      p.update_seed = rng.next();
      p.deadline_ms = 1000;
      plan.push_back(p);
    }
    std::stable_sort(plan.begin(), plan.end(),
                     [](const Planned& a, const Planned& b) {
                       return a.t_ms < b.t_ms;
                     });
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

std::int32_t Tracer::begin(const char* name, std::int32_t parent,
                           std::uint64_t request) {
  const auto now = SteadyClock::now();
  return add(name, now, now, parent, request);
}

void Tracer::end(std::int32_t span) {
  spans_[static_cast<std::size_t>(span)].end = SteadyClock::now();
}

std::int32_t Tracer::add(const char* name, TimePoint start, TimePoint end,
                         std::int32_t parent, std::uint64_t request) {
  spans_.push_back(Span{name, start, end, parent, request});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::self_us(const char* name) const {
  std::vector<double> child_us(spans_.size(), 0.0);
  const auto us = [](const Span& s) {
    return std::chrono::duration<double, std::micro>(s.end - s.start).count();
  };
  for (const Span& s : spans_)
    if (s.parent >= 0) child_us[static_cast<std::size_t>(s.parent)] += us(s);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (std::strcmp(spans_[i].name, name) == 0)
      out.push_back(us(spans_[i]) - child_us[i]);
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::pair<const Tracer*, const char*>>&
                            tracks,
                        Tracer::TimePoint origin) {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  const auto us = [origin](Tracer::TimePoint t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  char buf[512];
  os << "{\"traceEvents\": [";
  bool first = true;
  for (std::size_t pid = 0; pid < tracks.size(); ++pid) {
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"process_name\", \"ph\": \"M\", "
                  "\"pid\": %zu, \"args\": {\"name\": \"%s\"}}",
                  first ? "" : ",", pid + 1, tracks[pid].second);
    os << buf;
    first = false;
    // The file keeps the spans of the first kTraceFileRequests requests
    // per track (plus request-less spans); metrics use every span.
    std::set<std::uint64_t> kept;
    const auto& spans = tracks[pid].first->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      if (s.request != 0 && kept.count(s.request) == 0) {
        if (kept.size() >= kTraceFileRequests) continue;
        kept.insert(s.request);
      }
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %zu, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                    "{\"span\": %zu, \"parent\": %d, \"request\": %llu}}",
                    s.name, pid + 1, us(s.start), us(s.end) - us(s.start), i,
                    s.parent, static_cast<unsigned long long>(s.request));
      os << buf;
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os.flush());
}

// ---------------------------------------------------------------------------
// CPUs
// ---------------------------------------------------------------------------

CpuSplit split_cpus() {
  const std::vector<int> cpus = common::schedulable_cpus();
  CpuSplit s;
  s.generator = cpus.back();
  s.server = cpus;
  if (cpus.size() > 1) s.server.pop_back();
  return s;
}

std::string CpuSplit::describe() const {
  std::ostringstream os;
  os << "server=";
  for (std::size_t i = 0; i < server.size(); ++i)
    os << (i ? "," : "") << server[i];
  os << " generator=" << generator;
  return os.str();
}

void pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

// ---------------------------------------------------------------------------
// The server process
// ---------------------------------------------------------------------------

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& args,
                             const std::vector<int>& cpus,
                             const std::string& log_path) {
  // Everything the child touches is prepared before fork(): between fork
  // and exec a multithreaded parent's child may only make raw syscalls.
  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0)
    throw std::runtime_error("pipe2 failed");
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  spawned_ = SteadyClock::now();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // A driver killed by a signal skips ~ServerProcess; the server must
    // not outlive it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    sched_setaffinity(0, sizeof set, &set);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  if (log_fd >= 0) ::close(log_fd);
  out_fd_ = pipe_fds[0];
}

ServerProcess::~ServerProcess() { stop(); }

double ServerProcess::wait_listening(double timeout_s) {
  std::string line;
  const auto deadline =
      spawned_ + std::chrono::duration_cast<SteadyClock::duration>(
                     std::chrono::duration<double>(timeout_s));
  for (;;) {
    const auto now = SteadyClock::now();
    if (now >= deadline) throw std::runtime_error("at_server: no LISTENING");
    pollfd p{out_fd_, POLLIN, 0};
    const auto left_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count();
    if (::poll(&p, 1, static_cast<int>(left_ms) + 1) <= 0) continue;
    char c;
    const ssize_t r = ::read(out_fd_, &c, 1);
    if (r <= 0) throw std::runtime_error("at_server exited during setup");
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    if (line.rfind("LISTENING ", 0) == 0) {
      const double s =
          std::chrono::duration<double>(SteadyClock::now() - spawned_).count();
      port_ = static_cast<std::uint16_t>(std::stoi(line.substr(10)));
      return s;
    }
    line.clear();
  }
}

ProcSample ServerProcess::sample() const {
  ProcSample s;
  const std::string dir = "/proc/" + std::to_string(pid_);
  std::ifstream stat(dir + "/stat");
  std::string all((std::istreambuf_iterator<char>(stat)),
                  std::istreambuf_iterator<char>());
  // Fields after "(comm)": state is field 3, utime 14, stime 15.
  const auto close_paren = all.rfind(')');
  if (close_paren != std::string::npos) {
    std::istringstream is(all.substr(close_paren + 2));
    std::string tok;
    double utime = 0, stime = 0;
    for (int field = 3; field <= 15 && (is >> tok); ++field) {
      if (field == 14) utime = std::stod(tok);
      if (field == 15) stime = std::stod(tok);
    }
    s.cpu_s = (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
  }
  std::ifstream status(dir + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:" || key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      (key == "VmRSS:" ? s.rss_mb : s.hwm_mb) = kb / 1024.0;
    }
    status.ignore(1 << 12, '\n');
  }
  return s;
}

int ServerProcess::stop() {
  if (pid_ <= 0) return 0;
  ::kill(pid_, SIGTERM);
  int status = 0;
  // The server drains, joins its threads and prints its stats JSON; give
  // it a few seconds before forcing.
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) break;
    if (i == 499) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    ::usleep(10000);
  }
  pid_ = -1;
  if (out_fd_ >= 0) ::close(out_fd_);
  out_fd_ = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -WTERMSIG(status);
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

double percentile(const std::vector<double>& v, double p) {
  common::PercentileTracker t(v.size());
  for (const double x : v) t.add(x);
  return t.percentile(p);
}

double mean(const std::vector<double>& v) {
  common::StreamingStats s;
  for (const double x : v) s.add(x);
  return s.mean();
}

}  // namespace at::bench
