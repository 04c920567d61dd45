#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "linalg/matrix.h"
#include "synopsis/delta.h"

namespace at::server {

using protocol::Op;
using protocol::Request;
using protocol::Response;
using protocol::Status;
using protocol::Tier;

namespace {

using SteadyClock = std::chrono::steady_clock;

// Answer cache bounds (entries + bytes; see QueryCache).
constexpr std::size_t kCacheEntries = 4096;
constexpr std::size_t kCacheBytes = std::size_t{4} << 20;
// A rung is attempted only when remaining_budget >= est_cost * safety.
constexpr double kLadderSafety = 1.3;
// Synopsis-tier loss label until calibration measures one (and always for
// recommend, which has no calibration pass).
constexpr double kDefaultSynopsisLossPct = 20.0;

double ms_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - t0)
      .count();
}

/// Full write with EINTR/partial handling; MSG_NOSIGNAL so a reset peer
/// yields EPIPE instead of killing the process with SIGPIPE. Returns
/// false on any error (caller closes the connection).
bool write_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Queues and jobs
// ---------------------------------------------------------------------------

struct Server::Job {
  Request req;
  SteadyClock::time_point enqueued;
  std::promise<Response> done;
};

struct Server::WorkQueue {
  explicit WorkQueue(std::size_t n) : workers(n) {}
  const std::size_t workers;  // threads draining this queue
  common::Mutex mutex;
  common::CondVar cv;
  std::deque<Job> jobs AT_GUARDED_BY(mutex);
  bool open AT_GUARDED_BY(mutex) = true;  // false: workers drain and exit
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

Server::Server(search::SearchService& search, reco::CfService* reco,
               common::ShardedExecutor& exec, ServerConfig config)
    : search_(search),
      reco_(reco),
      exec_(exec),
      config_(std::move(config)),
      synopsis_loss_pct_(kDefaultSynopsisLossPct) {
  cache_ = std::make_unique<search::QueryCache>(kCacheEntries, kCacheBytes);
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load()) return;
  calibrate();

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) throw std::runtime_error("server: socket() failed");
  int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(lfd);
    throw std::runtime_error("server: bad host " + config_.host);
  }
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(lfd, 128) < 0) {
    ::close(lfd);
    throw std::runtime_error("server: bind/listen failed on " + config_.host +
                             ":" + std::to_string(config_.port));
  }
  socklen_t alen = sizeof addr;
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(lfd, std::memory_order_release);

  // Standby delta stream: every component publish emits one DLTA artifact.
  // The sink runs under the component's writer mutex, so deltas for one
  // shard are written in version order with no gaps between from/to.
  // Search and recommender shards are wired symmetrically — a standby
  // that replays only half the publishes silently diverges on the other
  // half.
  if (!config_.delta_dir.empty()) {
    for (std::size_t c = 0; c < search_.num_components(); ++c) {
      search_.component(c).set_delta_sink(
          [this, c](const synopsis::UpdateBatch& batch, std::uint64_t from,
                    std::uint64_t to) { write_delta('c', c, batch, from, to); });
    }
    if (reco_ != nullptr) {
      for (std::size_t c = 0; c < reco_->num_components(); ++c) {
        reco_->component(c).set_delta_sink(
            [this, c](const synopsis::UpdateBatch& batch, std::uint64_t from,
                      std::uint64_t to) {
              write_delta('r', c, batch, from, to);
            });
      }
    }
  }

  stopping_.store(false);
  // The read queue gets one worker per executor CPU; the one writer lane
  // keeps updates in arrival order, off the read workers.
  reader_ = std::make_unique<WorkQueue>(exec_.total_workers());
  writer_ = std::make_unique<WorkQueue>(1);
  for (std::size_t w = 0; w < reader_->workers; ++w)
    workers_.emplace_back([this] { worker_loop(*reader_); });
  workers_.emplace_back([this] { worker_loop(*writer_); });
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { acceptor_loop(); });
  AT_LOG_DEBUG << "server: listening on " << config_.host << ":" << port_;
}

void Server::stop() {
  if (stopping_.exchange(true)) {
    // Second caller: wait for the first to have finished is not needed —
    // stop() only runs from the owner thread / destructor.
    return;
  }
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (!running_.load(std::memory_order_acquire) && lfd < 0) return;

  // 1. Stop accepting: closing the listen fd unblocks accept().
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (acceptor_.joinable()) acceptor_.join();

  // 2. Drain the read queue and the writer lane: workers finish every
  //    admitted request (their promises must be fulfilled — connection
  //    threads are waiting on them), then exit.
  for (WorkQueue* q : {reader_.get(), writer_.get()}) {
    if (q == nullptr) continue;
    common::MutexLock lock(q->mutex);
    q->open = false;
    q->cv.notify_all();
  }
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // The delta sinks capture `this`; the components outlive the server
  // (caller-owned), so they must be detached before we are destroyed —
  // recommender sinks included, symmetric with start().
  if (!config_.delta_dir.empty()) {
    for (std::size_t c = 0; c < search_.num_components(); ++c)
      search_.component(c).set_delta_sink({});
    if (reco_ != nullptr) {
      for (std::size_t c = 0; c < reco_->num_components(); ++c)
        reco_->component(c).set_delta_sink({});
    }
  }

  // 3. Now that no responses are pending, unblock and join the
  //    connection threads.
  {
    common::MutexLock lock(conn_mutex_);
    for (auto& c : connections_) {
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  for (;;) {
    std::unique_ptr<Connection> victim;
    {
      common::MutexLock lock(conn_mutex_);
      if (connections_.empty()) break;
      victim = std::move(connections_.back());
      connections_.pop_back();
    }
    if (victim->thread.joinable()) victim->thread.join();
    if (victim->fd >= 0) ::close(victim->fd);
  }
  reader_.reset();
  writer_.reset();
  running_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Calibration and the cost model
// ---------------------------------------------------------------------------

void Server::calibrate() {
  common::StreamingStats full_ms, syn_ms, loss;
  for (const auto& q : config_.calibration_queries) {
    // Times the call the full rung makes, on this thread as a read worker
    // would run it.
    std::size_t ok = 0;
    common::Stopwatch sw;
    const auto exact = search_.exact_topk_partial(q, &ok);
    const double scan_ms = sw.elapsed_ms();
    if (ok < search_.num_components()) continue;  // a failed scan: no sample
    full_ms.add(scan_ms);
    sw.reset();
    const auto syn = search_.synopsis_topk(q);
    syn_ms.add(sw.elapsed_ms());
    loss.add((1.0 - search::topk_overlap(syn, exact)) * 100.0);
  }
  if (full_ms.count() == 0) return;
  est_full_ms_.store(full_ms.mean());
  est_synopsis_ms_.store(syn_ms.mean());
  synopsis_loss_pct_ = loss.mean();
  AT_LOG_DEBUG << "server: calibrated full=" << full_ms.mean()
               << "ms synopsis=" << syn_ms.mean()
               << "ms synopsis_loss=" << synopsis_loss_pct_ << "%";
}

void Server::observe_cost(std::atomic<double>& est_ms, double observed_ms) {
  // EWMA, alpha 0.2; lossy racy update is fine (it is an estimate).
  const double prev = est_ms.load(std::memory_order_relaxed);
  const double next =
      prev <= 0.0 ? observed_ms : 0.8 * prev + 0.2 * observed_ms;
  est_ms.store(next, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Accept / connection / frame plumbing
// ---------------------------------------------------------------------------

void Server::acceptor_loop() {
  for (;;) {
    AT_FAILPOINT("server.accept");
    const int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) return;  // stop() already closed the socket
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed: shutting down
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const std::uint64_t conn_id =
        connections_seen_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    common::MutexLock lock(conn_mutex_);
    connections_.push_back(std::move(conn));
    raw->thread =
        std::thread([this, fd, conn_id] { connection_loop(fd, conn_id); });
  }
}

void Server::connection_loop(int fd, std::uint64_t conn_id) {
  protocol::FrameBuffer frames;
  std::uint8_t buf[16 * 1024];
  std::vector<std::uint8_t> payload;
  bool alive = true;
  while (alive) {
    // Fault-injection site: an armed "server.read" error behaves like a
    // peer reset observed mid-read — drop the connection, nothing else.
    if (common::failpoint::any_armed()) {
      if (common::failpoint::check("server.read").action ==
          common::failpoint::Action::kError)
        break;
    }
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // EOF or reset: client went away
    frames.append(buf, static_cast<std::size_t>(r));

    for (;;) {
      const auto pull = frames.pull(&payload);
      if (pull == protocol::FrameBuffer::Pull::kNeedMore) break;
      if (pull == protocol::FrameBuffer::Pull::kBad) {
        // Forged length prefix: the stream cannot be resynchronized.
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        alive = false;
        break;
      }
      Request req;
      std::string err;
      Response resp;
      if (!protocol::decode_request(payload.data(), payload.size(), &req,
                                    &err)) {
        // Malformed frame: answer with a structured bad-request (best
        // effort — the request id may itself be garbage) and close; the
        // next bytes could be mid-frame junk.
        bad_frames_.fetch_add(1, std::memory_order_relaxed);
        resp.request_id = req.request_id;
        resp.op = req.op;
        resp.status = Status::kBadRequest;
        resp.text = err;
        const auto frame = protocol::encode_response(resp);
        write_all(fd, frame.data(), frame.size());
        alive = false;
        break;
      }

      if (req.op == Op::kPing) {
        resp.request_id = req.request_id;
        resp.op = req.op;
        resp.status = Status::kOk;
      } else if (req.op == Op::kStats) {
        resp.request_id = req.request_id;
        resp.op = req.op;
        resp.status = Status::kOk;
        resp.text = stats_json();
      } else {
        std::future<Response> done;
        if (admit(std::move(req), &resp, &done)) {
          try {
            resp = done.get();
          } catch (const std::exception& e) {
            // Broken promise (shutdown race) or a worker-side throw that
            // escaped serve(): structured error, connection stays up.
            resp = Response{};
            resp.status = Status::kError;
            resp.text = e.what();
          }
        }
      }

      bool short_write = false;
      try {
        short_write = AT_FAILPOINT("server.write");
      } catch (const common::failpoint::FailpointError&) {
        alive = false;  // injected write error: drop the connection
        break;
      }
      const auto frame = protocol::encode_response(resp);
      const std::size_t n = short_write ? frame.size() / 2 : frame.size();
      if (!write_all(fd, frame.data(), n) || short_write) {
        // A short write leaves the peer mid-frame: the only safe
        // continuation is closing (the client library treats it as a
        // transport error and retries).
        alive = false;
        break;
      }
    }
  }
  ::shutdown(fd, SHUT_RDWR);
  // The fd itself is closed by stop() (which owns the Connection entry) or
  // here when the server keeps running and the entry can be reaped lazily.
  if (!stopping_.load()) {
    common::MutexLock lock(conn_mutex_);
    for (auto& c : connections_) {
      if (c->fd == fd && c->thread.get_id() == std::this_thread::get_id()) {
        ::close(fd);
        c->fd = -1;
        c->thread.detach();  // reaping our own entry; nothing joins it
        break;
      }
    }
    connections_.erase(
        std::remove_if(connections_.begin(), connections_.end(),
                       [](const std::unique_ptr<Connection>& c) {
                         return c->fd < 0 && !c->thread.joinable();
                       }),
        connections_.end());
  }
  (void)conn_id;
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

bool Server::admit(Request req, Response* shed_resp,
                   std::future<Response>* done) {
  const double deadline_ms = req.deadline_ms > 0
                                 ? static_cast<double>(req.deadline_ms)
                                 : config_.default_deadline_ms;
  shed_resp->request_id = req.request_id;
  shed_resp->op = req.op;

  // Updates go to the writer lane, everything else to the read queue.
  WorkQueue& q = req.op == Op::kUpdate ? *writer_ : *reader_;
  // Decide under the queue lock, count under the stats lock — never both
  // at once (the stats lock is hot on the serving path).
  bool enqueued = false;
  {
    common::MutexLock lock(q.mutex);
    if (!q.open) {
      shed_resp->status = Status::kError;
      shed_resp->text = "server shutting down";
      return false;
    }
    // The queue ahead drains across all of the queue's workers at once.
    const std::size_t depth = q.jobs.size();
    const double per_job_ms =
        std::max(est_full_ms_.load(), 0.1) / static_cast<double>(q.workers);
    const double est_wait_ms = static_cast<double>(depth) * per_job_ms;
    // Shed when the queue is at its bound, or when the deadline is already
    // unmeetable at enqueue time (the queue ahead alone eats the budget —
    // serving this request would waste work the deadline makes worthless).
    if (depth >= config_.max_queue || est_wait_ms >= deadline_ms) {
      std::uint32_t retry_ms = static_cast<std::uint32_t>(
          std::clamp(est_wait_ms - deadline_ms + est_full_ms_.load(), 1.0,
                     5000.0));
      shed_resp->status = Status::kShed;
      shed_resp->retry_after_ms = retry_ms;
    } else {
      Job job;
      job.req = std::move(req);
      job.enqueued = SteadyClock::now();
      *done = job.done.get_future();
      q.jobs.push_back(std::move(job));
      q.cv.notify_one();
      enqueued = true;
    }
  }
  {
    common::MutexLock slock(stats_mutex_);
    if (enqueued) {
      ++accepted_;
    } else {
      ++shed_;
    }
  }
  return enqueued;
}

void Server::worker_loop(WorkQueue& q) {
  for (;;) {
    Job job;
    {
      common::MutexLock lock(q.mutex);
      while (q.jobs.empty() && q.open) q.cv.wait(q.mutex);
      if (q.jobs.empty()) return;  // closed and drained
      job = std::move(q.jobs.front());
      q.jobs.pop_front();
    }
    Response resp;
    try {
      resp = serve(job);
    } catch (const std::exception& e) {
      // Nothing outside the ladder should throw, but a response is owed
      // whatever happens.
      resp = Response{};
      resp.request_id = job.req.request_id;
      resp.op = job.req.op;
      resp.status = Status::kError;
      resp.text = e.what();
    }
    record(resp);
    job.done.set_value(std::move(resp));
  }
}

// ---------------------------------------------------------------------------
// The degradation ladder
// ---------------------------------------------------------------------------

Response Server::serve(const Job& job) {
  const double deadline_ms =
      job.req.deadline_ms > 0 ? static_cast<double>(job.req.deadline_ms)
                              : config_.default_deadline_ms;
  Response resp;
  // Fault-injection site: dispatch-path delay (scheduler hiccup) or error.
  try {
    AT_FAILPOINT("server.dispatch");
    const double remaining = deadline_ms - ms_since(job.enqueued);
    // No serving-path lock: every rung pins the epoch snapshots it scans,
    // and updates/reloads publish new epochs without blocking readers.
    if (job.req.op == Op::kSearch) {
      resp = serve_search(job.req, remaining);
    } else if (job.req.op == Op::kUpdate) {
      resp = serve_update(job.req);
    } else {
      resp = serve_recommend(job.req, remaining);
    }
  } catch (const std::exception& e) {
    resp = Response{};
    resp.status = Status::kError;
    resp.text = e.what();
  }
  resp.request_id = job.req.request_id;
  resp.op = job.req.op;
  resp.server_ms = ms_since(job.enqueued);  // queue wait + service time
  return resp;
}

Response Server::serve_search(const Request& req, double remaining_ms) {
  Response resp;
  resp.op = Op::kSearch;
  const std::uint64_t epoch = epoch_now();
  // The service's k is fixed at construction; a client asking for fewer
  // docs gets the answer's prefix (the merge order is score desc, doc asc).
  const auto clip = [&req](std::vector<search::ScoredDoc>& docs) {
    if (req.k > 0 && docs.size() > req.k) docs.resize(req.k);
  };

  // Cache probe: one lookup serves both the fresh fast path and (further
  // down) the stale degraded rung.
  std::vector<search::ScoredDoc> cached;
  search::ResultMeta cached_meta;
  const bool cache_hit = cache_->lookup(req.terms, &cached, &cached_meta);
  if (cache_hit && !cached_meta.stale && cached_meta.epoch == epoch) {
    resp.status = Status::kOk;
    resp.tier = Tier::kCached;
    resp.est_loss_pct = cached_meta.loss_pct;
    resp.docs = cached;
    clip(resp.docs);
    return resp;
  }

  // Rung 1: full block-decode scan, fault-tolerant per component.
  if (remaining_ms >= est_full_ms_.load() * kLadderSafety) {
    try {
      common::Stopwatch sw;
      std::size_t ok = 0;
      auto docs =
          search_.exact_topk_partial(search::SearchRequest{req.terms}, &ok);
      observe_cost(est_full_ms_, sw.elapsed_ms());
      const std::size_t total = search_.num_components();
      if (ok > 0) {
        resp.status = Status::kOk;
        resp.tier = Tier::kFull;
        resp.est_loss_pct =
            total > 0 ? 100.0 * static_cast<double>(total - ok) /
                            static_cast<double>(total)
                      : 0.0;
        // Only cache when no epoch was published mid-scan: a scan that
        // straddled a publish may merge rows from two epochs, and such an
        // answer must not be stamped fresh.
        if (ok == total && epoch_now() == epoch) {
          cache_->insert(req.terms, docs, search::ResultMeta{0.0, epoch});
        }
        resp.docs = std::move(docs);
        clip(resp.docs);
        return resp;
      }
      // ok == 0: every component failed; fall through the ladder.
    } catch (...) {
      // Fan-out itself failed (executor fault): degrade, don't die.
    }
  }

  // Rung 2: synopsis-only answer.
  if (remaining_ms >= 0.0 &&
      remaining_ms >= est_synopsis_ms_.load() * kLadderSafety) {
    try {
      AT_FAILPOINT("server.synopsis");
      common::Stopwatch sw;
      auto docs =
          search_.synopsis_topk(search::SearchRequest{req.terms});
      observe_cost(est_synopsis_ms_, sw.elapsed_ms());
      resp.status = Status::kOk;
      resp.tier = Tier::kSynopsis;
      resp.est_loss_pct = synopsis_loss_pct_;
      resp.docs = std::move(docs);
      clip(resp.docs);
      return resp;
    } catch (...) {
      // fall through
    }
  }

  // Rung 3: stale cached answer — degraded but real. An entry already
  // re-annotated at publish time carries the penalty in its recorded
  // loss; one merely from a mismatched epoch gets it added here.
  if (cache_hit) {
    resp.status = Status::kOk;
    resp.tier = Tier::kCached;
    resp.est_loss_pct =
        cached_meta.loss_pct + (cached_meta.stale ? 0.0 : kStalePenaltyPct);
    resp.docs = std::move(cached);
    clip(resp.docs);
    return resp;
  }

  // Rung 4: shed.
  resp.status = Status::kShed;
  resp.tier = Tier::kNone;
  resp.retry_after_ms = static_cast<std::uint32_t>(
      std::clamp(est_full_ms_.load() * 2.0, 1.0, 5000.0));
  return resp;
}

Response Server::serve_recommend(const Request& req, double remaining_ms) {
  Response resp;
  resp.op = Op::kRecommend;
  if (reco_ == nullptr) {
    resp.status = Status::kBadRequest;
    resp.text = "recommend service not configured";
    return resp;
  }
  synopsis::SparseVector ratings;
  for (const auto& [item, rating] : req.ratings)
    ratings.push_back({item, rating});
  std::sort(ratings.begin(), ratings.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  const auto cf_req = reco::CfRequest::make(std::move(ratings),
                                            req.target_item);

  if (remaining_ms >= est_recommend_full_ms_.load() * kLadderSafety) {
    try {
      common::Stopwatch sw;
      const double pred = reco_->predict_exact(cf_req);
      observe_cost(est_recommend_full_ms_, sw.elapsed_ms());
      resp.status = Status::kOk;
      resp.tier = Tier::kFull;
      resp.prediction = pred;
      return resp;
    } catch (...) {
    }
  }
  if (remaining_ms >= 0.0 &&
      remaining_ms >= est_recommend_syn_ms_.load() * kLadderSafety) {
    try {
      common::Stopwatch sw;
      // Synopsis-only: AccuracyTrader with zero improvement sets — every
      // component answers from its aggregated points alone.
      const std::vector<core::ComponentOutcome> outcomes(
          reco_->num_components(), core::ComponentOutcome{true, 0});
      const double pred =
          reco_->predict(cf_req, core::Technique::kAccuracyTrader, outcomes);
      observe_cost(est_recommend_syn_ms_, sw.elapsed_ms());
      resp.status = Status::kOk;
      resp.tier = Tier::kSynopsis;
      resp.est_loss_pct = kDefaultSynopsisLossPct;
      resp.prediction = pred;
      return resp;
    } catch (...) {
    }
  }
  resp.status = Status::kShed;
  resp.retry_after_ms = static_cast<std::uint32_t>(
      std::clamp(est_recommend_full_ms_.load() * 2.0, 1.0, 5000.0));
  return resp;
}

// ---------------------------------------------------------------------------
// Online retraining
// ---------------------------------------------------------------------------

Response Server::serve_update(const Request& req) {
  Response resp;
  resp.op = Op::kUpdate;
  if (req.update_component >= search_.num_components()) {
    resp.status = Status::kBadRequest;
    resp.text = "update component out of range";
    return resp;
  }
  if (req.update_adds == 0 && req.update_changes == 0) {
    resp.status = Status::kBadRequest;
    resp.text = "empty update batch";
    return resp;
  }

  // Synthesize the batch deterministically from the wire seed against the
  // component's current shape — the same (seed, adds, changes) triple
  // replayed against the same state produces the same rows, which is what
  // lets at_replay interleave a reproducible retraining mix.
  const auto snap = search_.component(req.update_component).snapshot();
  const std::size_t rows = snap->num_docs();
  const std::size_t cols = snap->docs().cols();
  if (rows == 0 || cols == 0) {
    resp.status = Status::kBadRequest;
    resp.text = "update component is empty";
    return resp;
  }
  common::Rng rng(req.update_seed);
  const auto make_row = [&rng, cols]() {
    synopsis::SparseVector row;
    std::set<std::uint32_t> terms;
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.uniform_index(8));
    while (terms.size() < n)
      terms.insert(static_cast<std::uint32_t>(rng.uniform_index(cols)));
    for (const std::uint32_t t : terms)
      row.emplace_back(t, 1.0 + static_cast<double>(rng.uniform_index(5)));
    return row;
  };
  synopsis::UpdateBatch batch;
  batch.added.reserve(req.update_adds);
  for (std::uint32_t i = 0; i < req.update_adds; ++i)
    batch.added.push_back(make_row());
  batch.changed.reserve(req.update_changes);
  for (std::uint32_t i = 0; i < req.update_changes; ++i)
    batch.changed.emplace_back(
        static_cast<std::uint32_t>(rng.uniform_index(rows)), make_row());

  const std::uint64_t from = epoch_now();
  common::Stopwatch sw;
  const synopsis::UpdateReport report =
      search_.update_component(req.update_component, batch);
  const double update_ms = sw.elapsed_ms();
  const std::uint64_t to = epoch_now();
  // Satellite of the publish: answers computed against the retired epoch
  // stay servable, but only as the stale rung, with the penalty folded in.
  cache_->mark_stale_epochs(to, kStalePenaltyPct);

  std::ostringstream os;
  os << "{\"component\": " << req.update_component
     << ", \"points_added\": " << report.points_added
     << ", \"points_changed\": " << report.points_changed
     << ", \"dirty_groups\": " << report.dirty_groups
     << ", \"from_epoch\": " << from << ", \"to_epoch\": " << to
     << ", \"update_ms\": " << update_ms << "}";
  resp.status = Status::kOk;
  resp.tier = Tier::kNone;
  resp.text = os.str();
  return resp;
}

void Server::write_delta(char kind, std::size_t c,
                         const synopsis::UpdateBatch& batch,
                         std::uint64_t from, std::uint64_t to) {
  const std::string path =
      config_.delta_dir + "/" +
      synopsis::delta_filename(kind, static_cast<std::uint32_t>(c), to);
  // Write under a ".tmp" name and rename into place: a tailing standby
  // lists the directory at arbitrary instants and must never see a
  // truncated container under a final name (it skips non-".atac" entries).
  const std::string tmp = path + ".tmp";
  try {
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os)
        throw common::ArtifactError("delta stream: cannot open " + tmp);
      synopsis::DeltaArtifact delta;
      delta.component = static_cast<std::uint32_t>(c);
      delta.from_version = from;
      delta.to_version = to;
      delta.batch = batch;
      synopsis::save_delta(os, delta);
      if (!os.flush())
        throw common::ArtifactError("delta stream: short write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw common::ArtifactError("delta stream: rename failed for " + path);
    deltas_written_.fetch_add(1, std::memory_order_relaxed);
  } catch (const std::exception& e) {
    // Standby stream only: the epoch is already live, serving goes on.
    std::remove(tmp.c_str());
    delta_failures_.fetch_add(1, std::memory_order_relaxed);
    AT_LOG_DEBUG << "server: delta write failed: " << e.what();
  }
}

void Server::write_checkpoint(const std::string& dir) const {
  // Each artifact is fully written to a ".tmp" name, flushed, then
  // renamed — the same atomic-visibility contract as the delta stream.
  const auto commit = [&dir](const std::string& name,
                             const std::function<void(std::ostream&)>& fill) {
    const std::string path = dir + "/" + name;
    const std::string tmp = path + ".tmp";
    {
      std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
      if (!os)
        throw common::ArtifactError("checkpoint: cannot open " + tmp);
      fill(os);
      if (!os.flush())
        throw common::ArtifactError("checkpoint: short write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw common::ArtifactError("checkpoint: rename failed for " + path);
    }
  };

  std::shared_ptr<const std::vector<double>> idf;
  for (std::size_t c = 0; c < search_.num_components(); ++c) {
    // Atomic (snapshot, version) pin: the version stamped into the
    // filename is the version of the bytes even while updates publish
    // concurrently.
    const auto [snap, version] = search_.component(c).snapshot_versioned();
    if (idf == nullptr) idf = snap->global_idf();
    commit(synopsis::checkpoint_filename('c', static_cast<std::uint32_t>(c),
                                         version),
           [&snap](std::ostream& os) { snap->save(os); });
  }
  if (reco_ != nullptr) {
    for (std::size_t c = 0; c < reco_->num_components(); ++c) {
      const auto [snap, version] = reco_->component(c).snapshot_versioned();
      commit(synopsis::checkpoint_filename('r', static_cast<std::uint32_t>(c),
                                           version),
             [&snap](std::ostream& os) { snap->save(os); });
    }
  }
  // The corpus-global idf, persisted as a 1xN MATX matrix. Scores are a
  // function of it and it is NOT rebuilt by online updates, so a replica
  // must install this table verbatim (rebuilding from replayed contents
  // would diverge from the primary the moment any update landed).
  if (idf != nullptr) {
    linalg::Matrix m(1, idf->size());
    for (std::size_t i = 0; i < idf->size(); ++i) m.at(0, i) = (*idf)[i];
    commit("ckpt_idf.atac", [&m](std::ostream& os) { linalg::save(os, m); });
  }
}

// ---------------------------------------------------------------------------
// Stats, epochs, reload
// ---------------------------------------------------------------------------

void Server::record(const Response& resp) {
  common::MutexLock lock(stats_mutex_);
  switch (resp.status) {
    case Status::kOk:
      if (resp.op == Op::kUpdate) {
        ++updates_;
        return;
      }
      break;
    case Status::kShed:
      // Ladder sheds land here; admission sheds were already counted.
      ++shed_;
      return;
    case Status::kError:
    case Status::kBadRequest:
      ++errors_;
      return;
  }
  const auto add = [&resp](TierStats& t) {
    t.p50.add(resp.server_ms);
    t.p99.add(resp.server_ms);
    t.loss.add(resp.est_loss_pct);
  };
  switch (resp.tier) {
    case Tier::kFull:
      add(full_);
      break;
    case Tier::kSynopsis:
      add(synopsis_);
      break;
    case Tier::kCached:
      add(cached_);
      break;
    case Tier::kNone:
      break;  // ping/stats
  }
}

ServingSnapshot Server::snapshot() const {
  common::MutexLock lock(stats_mutex_);
  ServingSnapshot s;
  auto fill = [](const TierStats& t) {
    return TierSnapshot{t.loss.count(), t.p50.value(), t.p99.value(),
                        t.loss.mean()};
  };
  s.full = fill(full_);
  s.synopsis = fill(synopsis_);
  s.cached = fill(cached_);
  s.shed = shed_;
  s.errors = errors_;
  s.accepted = accepted_;
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.connections = connections_seen_.load(std::memory_order_relaxed);
  s.est_full_ms = est_full_ms_.load(std::memory_order_relaxed);
  s.est_synopsis_ms = est_synopsis_ms_.load(std::memory_order_relaxed);
  s.synopsis_loss_pct = synopsis_loss_pct_;
  s.data_epoch = data_epoch_.load(std::memory_order_relaxed);
  s.updates = updates_;
  s.epoch_version = epoch_now();
  const common::EpochStats es = search_.epoch_stats();
  s.epoch_published = es.published;
  s.epoch_retired = es.retired;
  s.deltas_written = deltas_written_.load(std::memory_order_relaxed);
  s.delta_failures = delta_failures_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::stats_json() const {
  const ServingSnapshot s = snapshot();
  std::ostringstream os;
  auto tier = [&os](const char* name, const TierSnapshot& t, bool comma) {
    os << "\"" << name << "\": {\"count\": " << t.count
       << ", \"p50_ms\": " << t.p50_ms << ", \"p99_ms\": " << t.p99_ms
       << ", \"mean_loss_pct\": " << t.mean_loss_pct << "}"
       << (comma ? ", " : "");
  };
  os << "{";
  tier("full", s.full, true);
  tier("synopsis", s.synopsis, true);
  tier("cached", s.cached, true);
  os << "\"shed\": " << s.shed << ", \"errors\": " << s.errors
     << ", \"bad_frames\": " << s.bad_frames
     << ", \"accepted\": " << s.accepted
     << ", \"connections\": " << s.connections
     << ", \"est_full_ms\": " << s.est_full_ms
     << ", \"est_synopsis_ms\": " << s.est_synopsis_ms
     << ", \"synopsis_loss_pct\": " << s.synopsis_loss_pct
     << ", \"data_epoch\": " << s.data_epoch
     << ", \"updates\": " << s.updates
     << ", \"epoch_version\": " << s.epoch_version
     << ", \"epoch_published\": " << s.epoch_published
     << ", \"epoch_retired\": " << s.epoch_retired
     << ", \"deltas_written\": " << s.deltas_written
     << ", \"delta_failures\": " << s.delta_failures
     << ", \"num_components\": " << search_.num_components()
     << ", \"k\": " << search_.k() << "}";
  return os.str();
}

std::uint64_t Server::epoch_now() const {
  return data_epoch_.load(std::memory_order_acquire) +
         search_.data_version();
}

void Server::bump_data_epoch() {
  data_epoch_.fetch_add(1, std::memory_order_acq_rel);
  cache_->mark_stale_epochs(epoch_now(), kStalePenaltyPct);
}

void Server::reload_search_component(std::size_t c, std::istream& is) {
  // No serving-path lock: the fully loaded replacement is published as a
  // new epoch while in-flight queries finish on their pinned snapshots.
  // The load itself (the slow part) throws before anything mutates —
  // SearchService::reload_component gives the strong guarantee.
  search_.reload_component(c, is);
  bump_data_epoch();
}

}  // namespace at::server
