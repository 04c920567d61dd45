// The open-loop generator: one thread sends every planned request at its
// due time over kConnections pipelined connections, whatever the server's
// progress, and reads responses as they arrive. Latency is measured from
// the due time, so a stall delays (and is charged to) every request
// scheduled behind it.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "bench.h"

namespace at::bench {
namespace {

using SteadyClock = std::chrono::steady_clock;
using protocol::FrameBuffer;
using protocol::Op;

struct Conn {
  int fd = -1;
  bool alive = true;
  FrameBuffer in;
  std::vector<std::uint8_t> out;  // bytes the socket has not accepted yet
  std::size_t out_off = 0;
  std::deque<std::uint32_t> inflight;  // plan indices, in send order
};

/// Owns the connection fds (closed on every exit path).
struct ConnSet {
  std::vector<Conn> conns;
  explicit ConnSet(std::uint16_t port) : conns(kConnections) {
    for (auto& c : conns) {
      c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) throw std::runtime_error("socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
        throw std::runtime_error("connect to at_server failed");
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    }
  }
  ~ConnSet() {
    for (auto& c : conns)
      if (c.fd >= 0) ::close(c.fd);
  }
  ConnSet(const ConnSet&) = delete;
  ConnSet& operator=(const ConnSet&) = delete;
};

/// Pushes buffered bytes; false on a transport error.
bool flush(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    c.out_off += static_cast<std::size_t>(w);
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Reads everything available; false when the peer closed or reset.
bool drain_socket(Conn& c, std::vector<std::uint8_t>& buf) {
  for (;;) {
    const ssize_t r = ::recv(c.fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (r > 0) {
      c.in.append(buf.data(), static_cast<std::size_t>(r));
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    return false;
  }
}

protocol::Request to_request(const Planned& p, std::uint64_t id,
                             const std::vector<std::vector<std::uint32_t>>& q) {
  protocol::Request req;
  req.request_id = id;
  req.deadline_ms = p.deadline_ms;
  if (p.update) {
    req.op = Op::kUpdate;
    req.update_component = p.component;
    req.update_adds = kUpdateAdds;
    req.update_changes = kUpdateChanges;
    req.update_seed = p.update_seed;
  } else {
    req.op = Op::kSearch;
    req.k = kTopK;
    req.terms = q[p.query];
  }
  return req;
}

/// Blocking stats op on one connection (after the plan drained).
std::string fetch_stats(Conn& c, std::vector<std::uint8_t>& buf) {
  protocol::Request req;
  req.op = Op::kStats;
  const auto frame = protocol::encode_request(req);
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  std::vector<std::uint8_t> payload;
  const auto deadline = SteadyClock::now() + std::chrono::seconds(5);
  while (SteadyClock::now() < deadline) {
    if (!flush(c)) return {};
    pollfd p{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
             0};
    if (::poll(&p, 1, 100) <= 0) continue;
    if (!drain_socket(c, buf)) return {};
    if (c.in.pull(&payload) != FrameBuffer::Pull::kFrame) continue;
    protocol::Response resp;
    resp.op = Op::kStats;
    std::string err;
    if (!protocol::decode_response(payload.data(), payload.size(), &resp, &err))
      return {};
    return resp.text;
  }
  return {};
}

}  // namespace

LiveResult run_open_loop(std::uint16_t port, const std::vector<Planned>& plan,
                         const std::vector<std::vector<std::uint32_t>>& queries,
                         const LiveOptions& opts) {
  // Sleep with ~1 us precision instead of the default 50 us timer slack:
  // the send lag is part of what is measured.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  LiveResult res;
  res.outcomes.resize(plan.size());
  ConnSet set(port);
  auto& conns = set.conns;

  const auto t0 = SteadyClock::now() + std::chrono::milliseconds(20);
  res.origin = t0;
  const auto ms_at = [t0](SteadyClock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - t0).count();
  };
  const auto due_at = [t0](double t_ms) {
    return t0 + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double, std::milli>(t_ms));
  };
  Tracer* const tracer = opts.tracer;
  std::vector<std::int32_t> root(tracer != nullptr ? plan.size() : 0, -1);
  const auto traced = [&](const Planned& p) {
    if (tracer == nullptr || p.t_ms < opts.window_start_ms) return false;
    return static_cast<long>((p.t_ms - opts.window_start_ms) / 1e3) % 2 == 1;
  };

  std::size_t next = 0, pending = 0;
  bool window_started = false;
  const double end_ms = plan.empty() ? 0.0 : plan.back().t_ms;
  std::vector<std::uint8_t> buf(64 * 1024), payload;
  std::vector<pollfd> pfds(conns.size());

  const auto fail_conn = [&](Conn& c) {
    if (!c.alive) return;
    c.alive = false;
    pending -= c.inflight.size();  // their outcomes stay unanswered
    c.inflight.clear();
  };

  for (;;) {
    auto now = SteadyClock::now();
    if (!window_started && ms_at(now) >= opts.window_start_ms) {
      window_started = true;
      if (opts.on_window_start) opts.on_window_start();
      now = SteadyClock::now();
    }
    // 1. Send everything that is due.
    while (next < plan.size() && plan[next].t_ms <= ms_at(now)) {
      const Planned& p = plan[next];
      Conn& c = conns[p.conn];
      Outcome& o = res.outcomes[next];
      if (c.alive) {
        const bool tr = traced(p);
        const auto e0 = SteadyClock::now();
        const auto frame = protocol::encode_request(
            to_request(p, next + 1, queries));
        const auto e1 = SteadyClock::now();
        c.out.insert(c.out.end(), frame.begin(), frame.end());
        o.sent_ms = ms_at(e1);
        c.inflight.push_back(static_cast<std::uint32_t>(next));
        ++pending;
        if (!flush(c)) fail_conn(c);
        if (tr) {
          root[next] = tracer->add("live.request", due_at(p.t_ms), e0, -1,
                                   next + 1);
          tracer->add("live.encode", e0, e1, root[next], next + 1);
          tracer->add("live.send", e1, SteadyClock::now(), root[next],
                      next + 1);
        }
      }
      ++next;
      now = SteadyClock::now();
    }
    // 2. Done: every request answered, or the drain grace ran out.
    const double now_ms = ms_at(now);
    if (next == plan.size() &&
        (pending == 0 || now_ms > end_ms + opts.drain_ms))
      break;

    // 3. Wait for responses, writability, or the next due time.
    const double wait_ms = next < plan.size()
                               ? plan[next].t_ms - now_ms
                               : end_ms + opts.drain_ms - now_ms;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i].fd = conns[i].alive ? conns[i].fd : -1;
      pfds[i].events =
          static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    const double w = std::max(0.0, wait_ms);
    timespec ts{static_cast<time_t>(w / 1e3),
                static_cast<long>(std::fmod(w, 1e3) * 1e6)};
    if (::ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;

    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.alive || pfds[i].revents == 0) continue;
      if ((pfds[i].revents & POLLOUT) && !flush(c)) {
        fail_conn(c);
        continue;
      }
      if (!(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const bool open = drain_socket(c, buf);
      const auto arrived = SteadyClock::now();
      for (;;) {
        const auto pull = c.in.pull(&payload);
        if (pull == FrameBuffer::Pull::kNeedMore) break;
        if (pull == FrameBuffer::Pull::kBad || c.inflight.empty()) {
          fail_conn(c);  // forged length or unsolicited frame
          break;
        }
        const std::uint32_t idx = c.inflight.front();
        c.inflight.pop_front();
        --pending;
        Outcome& o = res.outcomes[idx];
        o.recv_ms = ms_at(arrived);
        o.resp.op = plan[idx].update ? Op::kUpdate : Op::kSearch;
        std::string err;
        const auto d0 = SteadyClock::now();
        o.bad_frame = !protocol::decode_response(payload.data(), payload.size(),
                                                 &o.resp, &err) ||
                      o.resp.request_id != idx + 1u;
        if (tracer != nullptr && root[idx] >= 0) {
          tracer->add("live.decode", d0, SteadyClock::now(), root[idx],
                      idx + 1u);
          tracer->end(root[idx]);
        }
      }
      if (!open) fail_conn(c);
    }
  }

  if (opts.fetch_stats && conns[0].alive && conns[0].inflight.empty())
    res.stats_json = fetch_stats(conns[0], buf);
  return res;
}

}  // namespace at::bench
