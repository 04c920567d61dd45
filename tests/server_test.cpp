// Serving front end tests: wire protocol round-trips and malformed-frame
// fuzzing, frame reassembly, admission control, read workers serving in
// parallel and pinned one per CPU, the degradation ladder under injected
// faults (dead component scans, artifact errors, socket resets, short
// writes), cache staleness via data epochs, updates on the writer lane,
// component reloads, and shutdown under load. The fault-injection cases
// all assert the same contract: degraded-or-error, never a crash, and
// full recovery once the failpoint clears.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <fstream>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "common/sharded_executor.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/replay.h"
#include "server/server.h"
#include "server/standby.h"
#include "services/recommender/service.h"
#include "services/search/service.h"
#include "synopsis/delta.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace at::server {
namespace {

namespace fp = at::common::failpoint;
using protocol::Op;
using protocol::Request;
using protocol::Response;
using protocol::Status;
using protocol::Tier;

// ---------------------------------------------------------------------------
// Shared serving fixture (built once; tests start their own Server on an
// ephemeral port against it)
// ---------------------------------------------------------------------------

workload::CorpusConfig test_corpus_config() {
  workload::CorpusConfig cfg;
  cfg.num_components = 4;
  cfg.docs_per_component = 120;
  cfg.vocab_size = 1500;
  cfg.num_topics = 12;
  cfg.seed = 20160816;
  return cfg;
}

synopsis::BuildConfig test_build_config(double size_ratio = 10.0) {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 40;
  cfg.size_ratio = size_ratio;
  return cfg;
}

/// A recommender over the rating subsets of `rwl`, generated from `rcfg`.
reco::CfService cf_service(workload::RatingWorkload& rwl,
                           const workload::RatingConfig& rcfg,
                           double size_ratio = 10.0) {
  std::vector<reco::RecommenderComponent> comps;
  for (auto& subset : rwl.subsets)
    comps.emplace_back(std::move(subset), test_build_config(size_ratio));
  return reco::CfService(std::move(comps), rcfg.min_rating, rcfg.max_rating);
}

struct ServingFixture {
  std::unique_ptr<common::ShardedExecutor> exec;
  std::unique_ptr<search::SearchService> service;
  std::vector<search::SearchRequest> queries;
};

ServingFixture& fixture() {
  static ServingFixture fx = [] {
    ServingFixture f;
    workload::CorpusGen gen(test_corpus_config());
    auto wl = gen.generate(24);
    std::vector<search::SearchComponent> comps;
    std::uint64_t base = 0;
    for (auto& shard : wl.shards) {
      const auto n = shard.rows();
      comps.emplace_back(std::move(shard), base, test_build_config());
      base += n;
    }
    f.exec = std::make_unique<common::ShardedExecutor>();
    f.service =
        std::make_unique<search::SearchService>(std::move(comps), 10);
    f.service->set_executor(f.exec.get());
    f.queries = std::move(wl.queries);
    return f;
  }();
  return fx;
}

ServerConfig test_server_config() {
  ServerConfig cfg;
  auto& fx = fixture();
  for (std::size_t i = 0; i < 4; ++i)
    cfg.calibration_queries.push_back(fx.queries[i]);
  return cfg;
}

ClientConfig client_config(std::uint16_t port, std::size_t retries = 3) {
  ClientConfig cfg;
  cfg.port = port;
  cfg.max_retries = retries;
  cfg.backoff_base_ms = 1.0;
  cfg.backoff_cap_ms = 20.0;
  return cfg;
}

/// Failpoints are process-global: every server test starts and ends clean.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

int connect_raw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

/// Reads until the peer closes; returns everything received.
std::vector<std::uint8_t> drain(int fd) {
  std::vector<std::uint8_t> all;
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r <= 0) break;
    all.insert(all.end(), buf, buf + r);
  }
  return all;
}

// ---------------------------------------------------------------------------
// Protocol round-trips
// ---------------------------------------------------------------------------

TEST(Protocol, SearchRequestRoundTrip) {
  Request req;
  req.request_id = 0xDEADBEEFCAFE;
  req.op = Op::kSearch;
  req.deadline_ms = 75;
  req.k = 5;
  req.terms = {3, 1, 4, 1, 5, 9};
  const auto frame = protocol::encode_request(req);
  ASSERT_GT(frame.size(), 4u);
  Request out;
  std::string err;
  ASSERT_TRUE(
      protocol::decode_request(frame.data() + 4, frame.size() - 4, &out, &err))
      << err;
  EXPECT_EQ(out.request_id, req.request_id);
  EXPECT_EQ(out.op, Op::kSearch);
  EXPECT_EQ(out.deadline_ms, 75u);
  EXPECT_EQ(out.k, 5u);
  EXPECT_EQ(out.terms, req.terms);
}

TEST(Protocol, RecommendRequestRoundTrip) {
  Request req;
  req.request_id = 7;
  req.op = Op::kRecommend;
  req.target_item = 42;
  req.ratings = {{1, 4.5}, {9, 2.0}};
  const auto frame = protocol::encode_request(req);
  Request out;
  std::string err;
  ASSERT_TRUE(
      protocol::decode_request(frame.data() + 4, frame.size() - 4, &out, &err))
      << err;
  EXPECT_EQ(out.op, Op::kRecommend);
  EXPECT_EQ(out.target_item, 42u);
  ASSERT_EQ(out.ratings.size(), 2u);
  EXPECT_EQ(out.ratings[1].first, 9u);
  EXPECT_DOUBLE_EQ(out.ratings[1].second, 2.0);
}

TEST(Protocol, UpdateRequestRoundTripAndCaps) {
  Request req;
  req.request_id = 9;
  req.op = Op::kUpdate;
  req.deadline_ms = 500;
  req.update_component = 3;
  req.update_adds = 17;
  req.update_changes = 5;
  req.update_seed = 0xFEEDFACE12345678ULL;
  const auto frame = protocol::encode_request(req);
  Request out;
  std::string err;
  ASSERT_TRUE(
      protocol::decode_request(frame.data() + 4, frame.size() - 4, &out, &err))
      << err;
  EXPECT_EQ(out.op, Op::kUpdate);
  EXPECT_EQ(out.update_component, 3u);
  EXPECT_EQ(out.update_adds, 17u);
  EXPECT_EQ(out.update_changes, 5u);
  EXPECT_EQ(out.update_seed, 0xFEEDFACE12345678ULL);

  // Forged row counts are rejected before any retraining work.
  req.update_adds = protocol::kMaxUpdateRows + 1;
  const auto big = protocol::encode_request(req);
  EXPECT_FALSE(
      protocol::decode_request(big.data() + 4, big.size() - 4, &out, &err));

  // The JSON report response round-trips like a stats body.
  Response resp;
  resp.request_id = 9;
  resp.status = Status::kOk;
  resp.tier = Tier::kNone;
  resp.op = Op::kUpdate;
  resp.text = "{\"points_added\": 17}";
  const auto rframe = protocol::encode_response(resp);
  Response rout;
  rout.op = Op::kUpdate;
  ASSERT_TRUE(protocol::decode_response(rframe.data() + 4, rframe.size() - 4,
                                        &rout, &err))
      << err;
  EXPECT_EQ(rout.text, resp.text);
}

TEST(Protocol, ResponseRoundTripAllStatuses) {
  {
    Response resp;
    resp.request_id = 11;
    resp.op = Op::kSearch;
    resp.status = Status::kOk;
    resp.tier = Tier::kSynopsis;
    resp.est_loss_pct = 17.5;
    resp.server_ms = 3.25;
    resp.docs = {{2.0, 10}, {1.0, 4}};
    const auto frame = protocol::encode_response(resp);
    Response out;
    out.op = Op::kSearch;
    std::string err;
    ASSERT_TRUE(protocol::decode_response(frame.data() + 4, frame.size() - 4,
                                          &out, &err))
        << err;
    EXPECT_EQ(out.tier, Tier::kSynopsis);
    EXPECT_DOUBLE_EQ(out.est_loss_pct, 17.5);
    ASSERT_EQ(out.docs.size(), 2u);
    EXPECT_EQ(out.docs[0].doc, 10u);
  }
  {
    Response resp;
    resp.op = Op::kSearch;
    resp.status = Status::kShed;
    resp.retry_after_ms = 120;
    const auto frame = protocol::encode_response(resp);
    Response out;
    out.op = Op::kSearch;
    std::string err;
    ASSERT_TRUE(protocol::decode_response(frame.data() + 4, frame.size() - 4,
                                          &out, &err));
    EXPECT_EQ(out.status, Status::kShed);
    EXPECT_EQ(out.retry_after_ms, 120u);
    EXPECT_TRUE(out.docs.empty());
  }
  {
    Response resp;
    resp.op = Op::kStats;
    resp.status = Status::kError;
    resp.text = "boom";
    const auto frame = protocol::encode_response(resp);
    Response out;
    out.op = Op::kStats;
    std::string err;
    ASSERT_TRUE(protocol::decode_response(frame.data() + 4, frame.size() - 4,
                                          &out, &err));
    EXPECT_EQ(out.status, Status::kError);
    EXPECT_EQ(out.text, "boom");
  }
}

// ---------------------------------------------------------------------------
// Malformed-frame fuzzing (the decoder is the trust boundary)
// ---------------------------------------------------------------------------

TEST(Protocol, RejectsBadVersionOpFlagsAndCounts) {
  Request req;
  req.op = Op::kSearch;
  req.terms = {1, 2, 3};
  auto frame = protocol::encode_request(req);
  std::string err;
  Request out;
  auto body = [&frame](std::size_t off) { return frame.data() + 4 + off; };
  const std::size_t n = frame.size() - 4;

  frame[4] = 99;  // version
  EXPECT_FALSE(protocol::decode_request(body(0), n, &out, &err));
  frame[4] = protocol::kVersion;
  frame[5] = 0;  // op 0 is invalid
  EXPECT_FALSE(protocol::decode_request(body(0), n, &out, &err));
  frame[5] = static_cast<std::uint8_t>(Op::kSearch);
  frame[6] = 1;  // flags must be 0
  EXPECT_FALSE(protocol::decode_request(body(0), n, &out, &err));
  frame[6] = 0;

  // Forged term count pointing past the payload.
  auto forged = protocol::encode_request(req);
  const std::size_t count_off = 4 + 1 + 1 + 2 + 8 + 4 + 4;  // ... | k | nterms
  const std::uint32_t huge = 1000000;
  std::memcpy(forged.data() + count_off, &huge, sizeof huge);
  EXPECT_FALSE(protocol::decode_request(forged.data() + 4, forged.size() - 4,
                                        &out, &err));

  // Trailing garbage after a valid body.
  auto padded = protocol::encode_request(req);
  padded.push_back(0xAB);
  EXPECT_FALSE(
      protocol::decode_request(padded.data() + 4, padded.size() - 4 + 1, &out,
                               &err));
}

TEST(Protocol, AllPrefixTruncationsRejectCleanly) {
  Request req;
  req.op = Op::kSearch;
  req.deadline_ms = 50;
  req.terms = {10, 20, 30, 40};
  const auto frame = protocol::encode_request(req);
  const std::size_t n = frame.size() - 4;
  for (std::size_t len = 0; len < n; ++len) {
    Request out;
    std::string err;
    EXPECT_FALSE(protocol::decode_request(frame.data() + 4, len, &out, &err))
        << "prefix of length " << len << " decoded";
  }
  Request out;
  std::string err;
  EXPECT_TRUE(protocol::decode_request(frame.data() + 4, n, &out, &err));
}

TEST(Protocol, FuzzRandomBytesNeverCrash) {
  common::Rng rng(0xF422);
  std::vector<std::uint8_t> buf;
  for (int iter = 0; iter < 3000; ++iter) {
    buf.resize(rng.uniform_index(300));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    Request rout;
    Response pout;
    pout.op = static_cast<Op>(1 + rng.uniform_index(4));
    std::string err;
    (void)protocol::decode_request(buf.data(), buf.size(), &rout, &err);
    (void)protocol::decode_response(buf.data(), buf.size(), &pout, &err);
  }
}

TEST(Protocol, FrameBufferRejectsForgedLength) {
  protocol::FrameBuffer frames;
  const std::uint32_t huge = protocol::kMaxFrameBytes + 1;
  frames.append(reinterpret_cast<const std::uint8_t*>(&huge), 4);
  std::vector<std::uint8_t> payload;
  EXPECT_EQ(frames.pull(&payload), protocol::FrameBuffer::Pull::kBad);
}

TEST(Protocol, FrameBufferReassemblesDrippedFrames) {
  Request a, b;
  a.op = Op::kPing;
  a.request_id = 1;
  b.op = Op::kSearch;
  b.request_id = 2;
  b.terms = {5, 6};
  auto bytes = protocol::encode_request(a);
  const auto fb = protocol::encode_request(b);
  bytes.insert(bytes.end(), fb.begin(), fb.end());

  protocol::FrameBuffer frames;
  std::vector<std::vector<std::uint8_t>> got;
  std::vector<std::uint8_t> payload;
  for (const std::uint8_t byte : bytes) {
    frames.append(&byte, 1);
    while (frames.pull(&payload) == protocol::FrameBuffer::Pull::kFrame)
      got.push_back(payload);
  }
  ASSERT_EQ(got.size(), 2u);
  Request out;
  std::string err;
  ASSERT_TRUE(protocol::decode_request(got[1].data(), got[1].size(), &out,
                                       &err));
  EXPECT_EQ(out.request_id, 2u);
  EXPECT_EQ(out.terms, b.terms);
}

// ---------------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ServesFullTierAndCachesRepeats) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  const auto& terms = fx.queries[10].terms;

  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(terms, 1000, 10, &resp, &err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.tier, Tier::kFull);
  EXPECT_DOUBLE_EQ(resp.est_loss_pct, 0.0);
  EXPECT_FALSE(resp.docs.empty());
  const auto exact = fx.service->exact_topk(search::SearchRequest{terms});
  ASSERT_EQ(resp.docs.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_EQ(resp.docs[i].doc, exact[i].doc);

  // Enough repeats to take the P² latency estimates past their exact
  // 5-sample start: the tier stats still count every answer.
  constexpr std::uint64_t kRepeats = 20;
  for (std::uint64_t i = 0; i < kRepeats; ++i) {
    Response again;
    ASSERT_TRUE(client.search(terms, 1000, 10, &again, &err)) << err;
    EXPECT_EQ(again.status, Status::kOk);
    EXPECT_EQ(again.tier, Tier::kCached);
    EXPECT_DOUBLE_EQ(again.est_loss_pct, 0.0);
    ASSERT_EQ(again.docs.size(), resp.docs.size());
    EXPECT_EQ(again.docs.front().doc, resp.docs.front().doc);
  }

  const auto snap = srv.snapshot();
  EXPECT_EQ(snap.full.count, 1u);
  EXPECT_EQ(snap.cached.count, kRepeats);
  EXPECT_GT(snap.full.p50_ms, 0.0);
  EXPECT_GT(snap.cached.p50_ms, 0.0);
  EXPECT_GT(snap.cached.p99_ms, 0.0);
  srv.stop();
}

TEST_F(ServerTest, CacheServesOnlyTheTermSequenceItWasComputedFor) {
  // The scan scores a repeated term twice and sums per-term scores in the
  // order sent, so a query's cached answer is not the exact answer of the
  // same terms repeated or reordered.
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  const auto q = std::find_if(fx.queries.begin(), fx.queries.end(),
                              [](const auto& r) { return r.terms.size() > 2; });
  ASSERT_NE(q, fx.queries.end());
  const auto& terms = q->terms;

  Response first;
  std::string err;
  ASSERT_TRUE(client.search(terms, 1000, 10, &first, &err)) << err;
  ASSERT_EQ(first.tier, Tier::kFull);

  std::vector<std::uint32_t> repeated = terms;
  repeated.push_back(terms.front());
  const std::vector<std::uint32_t> reversed(terms.rbegin(), terms.rend());
  for (const auto& variant : {repeated, reversed}) {
    Response resp;
    ASSERT_TRUE(client.search(variant, 1000, 10, &resp, &err)) << err;
    EXPECT_EQ(resp.tier, Tier::kFull);
    EXPECT_DOUBLE_EQ(resp.est_loss_pct, 0.0);
    const auto exact = fx.service->exact_topk(search::SearchRequest{variant});
    ASSERT_EQ(resp.docs.size(), exact.size());
    for (std::size_t i = 0; i < exact.size(); ++i) {
      EXPECT_EQ(resp.docs[i].doc, exact[i].doc) << "rank " << i;
      EXPECT_EQ(resp.docs[i].score, exact[i].score) << "rank " << i;
    }
  }

  Response again;
  ASSERT_TRUE(client.search(terms, 1000, 10, &again, &err)) << err;
  EXPECT_EQ(again.tier, Tier::kCached);
  srv.stop();
}

TEST_F(ServerTest, PingAndStatsOps) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  std::string err;
  EXPECT_TRUE(client.ping(&err)) << err;
  std::string json;
  ASSERT_TRUE(client.stats(&json, &err)) << err;
  EXPECT_NE(json.find("\"full\""), std::string::npos);
  EXPECT_NE(json.find("\"data_epoch\""), std::string::npos);
  srv.stop();
}

TEST_F(ServerTest, HonorsClientK) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(fx.queries[11].terms, 1000, 3, &resp, &err));
  EXPECT_LE(resp.docs.size(), 3u);
  srv.stop();
}

TEST_F(ServerTest, MalformedFrameGetsBadRequestAndCleanClose) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();

  // Valid length prefix, garbage payload.
  const int fd = connect_raw(srv.port());
  std::uint8_t garbage[12];
  const std::uint32_t len = 8;
  std::memcpy(garbage, &len, 4);
  std::memset(garbage + 4, 0xFF, 8);
  ASSERT_EQ(::send(fd, garbage, sizeof garbage, 0),
            static_cast<ssize_t>(sizeof garbage));
  const auto reply = drain(fd);  // response then server-side close
  ::close(fd);
  ASSERT_GT(reply.size(), 4u);
  Response resp;
  resp.op = Op::kPing;
  std::string err;
  ASSERT_TRUE(protocol::decode_response(reply.data() + 4, reply.size() - 4,
                                        &resp, &err))
      << err;
  EXPECT_EQ(resp.status, Status::kBadRequest);
  EXPECT_EQ(srv.snapshot().bad_frames, 1u);

  // The process took no damage: a well-formed client still gets answers.
  Client client(client_config(srv.port()));
  EXPECT_TRUE(client.ping(&err)) << err;
  srv.stop();
}

TEST_F(ServerTest, RandomBytesOnSocketNeverKillTheServer) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  common::Rng rng(0xBAD);
  for (int conn = 0; conn < 8; ++conn) {
    const int fd = connect_raw(srv.port());
    std::uint8_t buf[256];
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform_index(256));
    (void)::send(fd, buf, sizeof buf, 0);
    (void)drain(fd);
    ::close(fd);
  }
  Client client(client_config(srv.port()));
  std::string err;
  EXPECT_TRUE(client.ping(&err)) << err;
  srv.stop();
}

TEST_F(ServerTest, AdmissionControlShedsWithRetryAfter) {
  auto& fx = fixture();
  ServerConfig cfg = test_server_config();
  cfg.max_queue = 0;  // everything sheds at enqueue
  Server srv(*fx.service, nullptr, *fx.exec, cfg);
  srv.start();
  Client client(client_config(srv.port(), /*retries=*/1));
  Response resp;
  std::string err;
  EXPECT_FALSE(client.search(fx.queries[12].terms, 100, 10, &resp, &err));
  EXPECT_EQ(resp.status, Status::kShed);
  EXPECT_GT(resp.retry_after_ms, 0u);
  EXPECT_GE(client.stats_counters().sheds_seen, 2u);  // initial + retry
  EXPECT_GE(srv.snapshot().shed, 2u);
  srv.stop();
}

TEST_F(ServerTest, ClientIsSafeForConcurrentCalls) {
  // Regression (found by the thread-safety annotation pass): a Client
  // shared across threads used to race on fd_/frames_/stats_ — two
  // callers draining one socket could steal each other's response frames.
  // Calls now serialize on the client's internal mutex.
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        Response resp;
        std::string err;
        const auto& q = fx.queries[(t * 8 + i) % fx.queries.size()];
        if (client.search(q.terms, 2000, 10, &resp, &err) &&
            resp.status == Status::kOk)
          ok++;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 32);
  EXPECT_GE(client.stats_counters().calls, 32u);
  srv.stop();
}

TEST_F(ServerTest, ReadWorkersServeInParallelOnAnyHost) {
  // One group of three CPUs, all of them CPU 0 (parse_topology would
  // dedupe the repeats): three read workers even on a one-CPU host.
  common::Topology topo;
  topo.node_cpus = {{0, 0, 0}};
  common::ShardedExecutor exec(topo);
  ASSERT_EQ(exec.group_size(0), 3u);
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, exec, test_server_config());
  srv.start();

  // Three searches, each stalled 200 ms at dispatch. Side by side they
  // each answer in about 200 ms; behind one worker they would take 200,
  // 400 and 600 ms.
  fp::set("server.dispatch", "delay:200:x3");
  Response resps[3];
  std::string errs[3];
  bool answered[3] = {false, false, false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Client client(client_config(srv.port(), /*retries=*/0));
      answered[t] = client.search(fx.queries[21 + t].terms, 2000, 10,
                                  &resps[t], &errs[t]);
    });
  }
  for (auto& th : threads) th.join();
  srv.stop();
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_TRUE(answered[t]) << errs[t];
    EXPECT_EQ(resps[t].status, Status::kOk) << "search " << t;
    EXPECT_LT(resps[t].server_ms, 300.0) << "search " << t;
  }
}

/// Thread ids of this process's threads named at-read-<w>.
std::vector<pid_t> read_worker_tids() {
  std::vector<pid_t> tids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name) && name.rfind("at-read-", 0) == 0)
      tids.push_back(std::stoi(task.path().filename().string()));
  }
  return tids;
}

TEST_F(ServerTest, ReadWorkersArePinnedOnePerCpu) {
  // Read worker w is pinned to the executor's w-th CPU, so the workers
  // cover the executor's CPU list one to one. Left unpinned, the kernel
  // kept them all on one CPU under load. A worker pins itself before it
  // names itself, so every at-read-<w> thread found here is placed.
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  std::vector<int> want = fx.exec->cpus();
  std::vector<pid_t> tids = read_worker_tids();
  for (int i = 0; i < 500 && tids.size() < want.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    tids = read_worker_tids();
  }
  ASSERT_EQ(tids.size(), want.size());
  std::vector<int> got;
  for (const pid_t tid : tids) {
    cpu_set_t set;
    CPU_ZERO(&set);
    ASSERT_EQ(::sched_getaffinity(tid, sizeof set, &set), 0);
    ASSERT_EQ(CPU_COUNT(&set), 1) << "read worker " << tid;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) got.push_back(c);
    }
  }
  srv.stop();
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// The ladder under injected faults
// ---------------------------------------------------------------------------

TEST_F(ServerTest, CalibrationSkipsScansThatFail) {
  // Startup calibration runs the live scan, failpoints included. A scan
  // that lost a component is no sample: it would time a partial scan and
  // score the synopsis against a partial answer (a loss of 0).
  auto& fx = fixture();
  fp::set("server.scan", "error");
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  fp::clear_all();
  const auto snap = srv.snapshot();
  EXPECT_EQ(snap.est_full_ms, 0.0);
  EXPECT_GT(snap.synopsis_loss_pct, 0.0);
  srv.stop();
}

TEST_F(ServerTest, AllScansDeadFallsToSynopsisAndRecovers) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  const auto& terms = fx.queries[13].terms;

  fp::set("server.scan", "error");
  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(terms, 1000, 10, &resp, &err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.tier, Tier::kSynopsis);
  EXPECT_GT(resp.est_loss_pct, 0.0);

  fp::clear_all();
  Response healed;
  ASSERT_TRUE(client.search(terms, 1000, 10, &healed, &err)) << err;
  EXPECT_EQ(healed.status, Status::kOk);
  EXPECT_EQ(healed.tier, Tier::kFull);
  EXPECT_DOUBLE_EQ(healed.est_loss_pct, 0.0);
  srv.stop();
}

TEST_F(ServerTest, OneComponentDeadYieldsMarkedPartialFullAnswer) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));

  fp::set("server.scan.c0", "error");  // kill component 0's group mid-query
  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(fx.queries[14].terms, 1000, 10, &resp, &err))
      << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.tier, Tier::kFull);
  const double expected_loss =
      100.0 / static_cast<double>(fx.service->num_components());
  EXPECT_NEAR(resp.est_loss_pct, expected_loss, 1e-9);
  EXPECT_FALSE(resp.docs.empty());

  // Partial answers must not be cached as exact: the repeat after recovery
  // is a fresh full scan, not a poisoned cache hit.
  fp::clear_all();
  Response healed;
  ASSERT_TRUE(client.search(fx.queries[14].terms, 1000, 10, &healed, &err));
  EXPECT_EQ(healed.tier, Tier::kFull);
  EXPECT_DOUBLE_EQ(healed.est_loss_pct, 0.0);
  srv.stop();
}

TEST_F(ServerTest, StaleCacheServesWithPenaltyWhenAllRungsFail) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  const auto& terms = fx.queries[15].terms;

  Response prime;
  std::string err;
  ASSERT_TRUE(client.search(terms, 1000, 10, &prime, &err)) << err;
  ASSERT_EQ(prime.tier, Tier::kFull);

  srv.bump_data_epoch();  // cache entry is now stale
  fp::set_many("server.scan=error;server.synopsis=error");
  Response resp;
  ASSERT_TRUE(client.search(terms, 1000, 10, &resp, &err)) << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.tier, Tier::kCached);
  EXPECT_NEAR(resp.est_loss_pct, kStalePenaltyPct, 1e-9);
  EXPECT_EQ(resp.docs.size(), prime.docs.size());
  srv.stop();
}

TEST_F(ServerTest, NothingLeftSheds) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port(), /*retries=*/0));

  fp::set_many("server.scan=error;server.synopsis=error");
  // Terms no prior test cached: nothing on any rung.
  Response resp;
  std::string err;
  EXPECT_FALSE(
      client.search(fx.queries[16].terms, 1000, 10, &resp, &err));
  EXPECT_EQ(resp.status, Status::kShed);
  EXPECT_GT(resp.retry_after_ms, 0u);

  fp::clear_all();
  Response healed;
  ASSERT_TRUE(client.search(fx.queries[16].terms, 1000, 10, &healed, &err));
  EXPECT_EQ(healed.tier, Tier::kFull);
  srv.stop();
}

TEST_F(ServerTest, TimeBeforeServiceCountsAgainstTheDeadline) {
  // A request's rungs get its deadline minus everything spent since
  // admission. A 60 ms stall at dispatch against a 50 ms deadline leaves a
  // negative budget on any host: neither the scan nor the synopsis rung
  // may run, so a stale cached answer is the best left, and a query with
  // nothing cached sheds.
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port(), /*retries=*/0));
  const auto& primed = fx.queries[17].terms;

  Response prime;
  std::string err;
  ASSERT_TRUE(client.search(primed, 1000, 10, &prime, &err)) << err;
  ASSERT_EQ(prime.tier, Tier::kFull);
  srv.bump_data_epoch();  // the primed entry is stale now

  fp::set("server.dispatch", "delay:60:x1");
  Response stale;
  ASSERT_TRUE(client.search(primed, 50, 10, &stale, &err)) << err;
  EXPECT_EQ(stale.status, Status::kOk);
  EXPECT_EQ(stale.tier, Tier::kCached);
  EXPECT_NEAR(stale.est_loss_pct, kStalePenaltyPct, 1e-9);
  EXPECT_GE(stale.server_ms, 60.0);

  fp::set("server.dispatch", "delay:60:x1");
  Response shed;
  EXPECT_FALSE(client.search(fx.queries[18].terms, 50, 10, &shed, &err));
  EXPECT_EQ(shed.status, Status::kShed);
  EXPECT_EQ(shed.tier, Tier::kNone);
  srv.stop();
}

TEST_F(ServerTest, ShortWriteDropsConnectionAndClientRetries) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));

  fp::set("server.write", "short_write:x1");
  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(fx.queries[17].terms, 1000, 10, &resp, &err))
      << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_GE(client.stats_counters().transport_errors, 1u);
  EXPECT_GE(client.stats_counters().reconnects, 1u);
  srv.stop();
}

TEST_F(ServerTest, InjectedReadErrorResetsConnectionOnly) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));

  fp::set("server.read", "error:x1");  // first read attempt drops the conn
  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(fx.queries[18].terms, 1000, 10, &resp, &err))
      << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_GE(client.stats_counters().reconnects, 1u);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Reload, shutdown, replay
// ---------------------------------------------------------------------------

TEST_F(ServerTest, ReloadComponentBumpsEpochAndCorruptReloadIsRejected) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  const auto epoch0 = srv.snapshot().data_epoch;

  std::ostringstream os;
  fx.service->component(1).save(os);
  const std::string bytes = os.str();
  {
    std::istringstream is(bytes);
    srv.reload_search_component(1, is);
  }
  EXPECT_EQ(srv.snapshot().data_epoch, epoch0 + 1);

  // Corrupt (truncated) snapshot: structured failure, no state change,
  // serving continues.
  std::istringstream bad(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(srv.reload_search_component(1, bad), common::ArtifactError);
  EXPECT_EQ(srv.snapshot().data_epoch, epoch0 + 1);
  Response resp;
  std::string err;
  ASSERT_TRUE(client.search(fx.queries[19].terms, 1000, 10, &resp, &err))
      << err;
  EXPECT_EQ(resp.status, Status::kOk);
  EXPECT_EQ(resp.tier, Tier::kFull);
  srv.stop();
}

TEST_F(ServerTest, ShutdownUnderLoadAnswersOrResetsEveryCall) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  const std::uint16_t port = srv.port();

  std::atomic<bool> run{true};
  std::atomic<std::uint64_t> answered{0}, failed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Client client(client_config(port, /*retries=*/0));
      std::size_t q = static_cast<std::size_t>(t);
      while (run.load()) {
        Response resp;
        std::string err;
        if (client.search(fixture().queries[q % 24].terms, 200, 10, &resp,
                          &err))
          answered.fetch_add(1);
        else
          failed.fetch_add(1);
        ++q;
      }
    });
  }
  // Stop only once real work is flowing (bounded wait): a fixed sleep
  // assumed the clients got scheduled in time.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (answered.load() < 4 && std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  srv.stop();  // while clients are mid-flight
  run.store(false);
  for (auto& t : threads) t.join();
  EXPECT_GT(answered.load(), 0u);  // the server did real work before stop
  // No crash, no hang: reaching here with all threads joined is the test.
}

TEST_F(ServerTest, ReplayDriverRunsHeadless) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();

  ReplayConfig cfg;
  cfg.port = srv.port();
  cfg.num_clients = 3;
  cfg.requests_per_client = 15;
  cfg.deadline_ms = 1000;
  cfg.recommend_fraction = 0.0;
  cfg.corpus = test_corpus_config();
  const auto report = run_replay(cfg);
  EXPECT_EQ(report.requests, 45u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.server_errors, 0u);
  EXPECT_EQ(report.ok_full + report.ok_synopsis + report.ok_cached, 45u);
  const auto json = report.to_json();
  EXPECT_NE(json.find("\"shed_rate\""), std::string::npos);
  srv.stop();
}

// ---------------------------------------------------------------------------
// Online retraining (kUpdate) — built on a PRIVATE service so the seeded
// retraining batches cannot perturb the shared fixture other tests query.
// ---------------------------------------------------------------------------

std::unique_ptr<search::SearchService> private_service() {
  workload::CorpusConfig ccfg = test_corpus_config();
  ccfg.num_components = 2;
  ccfg.docs_per_component = 80;
  workload::CorpusGen gen(ccfg);
  auto wl = gen.generate(8);
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto n = shard.rows();
    comps.emplace_back(std::move(shard), base, test_build_config());
    base += n;
  }
  return std::make_unique<search::SearchService>(std::move(comps), 10);
}

TEST_F(ServerTest, UpdateOpRetrainsPublishesEpochAndMarksCacheStale) {
  auto service = private_service();
  auto& fx = fixture();
  Server srv(*service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  const auto& terms = fx.queries[2].terms;

  Response prime;
  std::string err;
  ASSERT_TRUE(client.search(terms, 1000, 10, &prime, &err)) << err;
  ASSERT_EQ(prime.tier, Tier::kFull);
  const std::uint64_t epoch0 = srv.snapshot().epoch_version;

  Response up;
  ASSERT_TRUE(client.update(0, 3, 2, 42, 5000, &up, &err)) << err;
  ASSERT_EQ(up.status, Status::kOk) << up.text;
  EXPECT_NE(up.text.find("\"points_added\": 3"), std::string::npos)
      << up.text;
  EXPECT_NE(up.text.find("\"to_epoch\""), std::string::npos);

  const auto snap = srv.snapshot();
  EXPECT_EQ(snap.updates, 1u);
  EXPECT_GT(snap.epoch_version, epoch0);
  EXPECT_GT(snap.epoch_published, 0u);
  EXPECT_EQ(snap.data_epoch, 0u);  // reload counter untouched by updates

  // The pre-update cached answer is stale now: with the scan rungs dead it
  // still serves, penalty folded in at publish time (not re-added).
  fp::set_many("server.scan=error;server.synopsis=error");
  Response stale;
  ASSERT_TRUE(client.search(terms, 1000, 10, &stale, &err)) << err;
  EXPECT_EQ(stale.tier, Tier::kCached);
  EXPECT_NEAR(stale.est_loss_pct, kStalePenaltyPct, 1e-9);
  fp::clear_all();

  // And a live recompute works against the new epoch.
  Response fresh;
  ASSERT_TRUE(client.search(terms, 1000, 10, &fresh, &err)) << err;
  EXPECT_EQ(fresh.tier, Tier::kFull);

  // Out-of-range component: structured bad request, server keeps serving.
  Response bad;
  ASSERT_TRUE(client.update(99, 1, 0, 1, 5000, &bad, &err)) << err;
  EXPECT_EQ(bad.status, Status::kBadRequest);

  const auto json = srv.stats_json();
  EXPECT_NE(json.find("\"updates\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"epoch_version\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_published\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch_retired\""), std::string::npos);
  srv.stop();
}

TEST_F(ServerTest, StalledPublishDoesNotHoldUpASearch) {
  // Updates run on the writer lane and their heavy phases on the
  // executor's pool; no read runs on either. Both services sit on one
  // one-CPU executor, as in at_server, so the stalled publish holds the
  // pool's only worker. A full search, a recommend and a synopsis-rung
  // search sent during the stall must each answer in its own time.
  common::Topology topo;
  topo.node_cpus = {{0}};
  common::ShardedExecutor exec(topo);
  auto service = private_service();
  service->set_executor(&exec);
  workload::RatingConfig rcfg;
  rcfg.num_components = 2;
  rcfg.users_per_component = 60;
  rcfg.num_items = 64;
  rcfg.seed = 11;
  auto rwl = workload::RatingWorkloadGen(rcfg).generate(4, 1);
  ASSERT_FALSE(rwl.requests.empty());
  const auto request = rwl.requests.front();
  reco::CfService reco = cf_service(rwl, rcfg);
  reco.set_executor(&exec);
  auto& fx = fixture();
  Server srv(*service, &reco, exec, test_server_config());
  srv.start();

  fp::set("epoch.publish", "delay:300:x1");
  Response up;
  std::string up_err;
  bool up_answered = false;
  std::thread updater([&] {
    Client client(client_config(srv.port()));
    up_answered = client.update(0, 3, 2, 42, 5000, &up, &up_err);
  });
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fp::hits("epoch.publish") < 1 &&
         std::chrono::steady_clock::now() < give_up)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fp::hits("epoch.publish"), 1u);

  Client client(client_config(srv.port()));
  Response full, rec, syn;
  std::string err;
  EXPECT_TRUE(client.search(fx.queries[20].terms, 2000, 10, &full, &err))
      << err;
  EXPECT_EQ(full.status, Status::kOk);
  EXPECT_EQ(full.tier, Tier::kFull);
  EXPECT_LT(full.server_ms, 150.0);

  EXPECT_TRUE(client.recommend(request.target_item, request.ratings, 2000,
                               &rec, &err))
      << err;
  EXPECT_EQ(rec.status, Status::kOk);
  EXPECT_EQ(rec.tier, Tier::kFull);
  EXPECT_LT(rec.server_ms, 150.0);

  fp::set("server.scan", "error");
  EXPECT_TRUE(client.search(fx.queries[19].terms, 2000, 10, &syn, &err))
      << err;
  EXPECT_EQ(syn.status, Status::kOk);
  EXPECT_EQ(syn.tier, Tier::kSynopsis);
  EXPECT_LT(syn.server_ms, 150.0);

  updater.join();
  EXPECT_TRUE(up_answered) << up_err;
  EXPECT_EQ(up.status, Status::kOk) << up.text;
  srv.stop();
}

TEST_F(ServerTest, DeltaDirEmitsTailableArtifactsAndSurvivesWriteFaults) {
  auto service = private_service();
  auto& fx = fixture();
  ServerConfig cfg = test_server_config();
  std::string dir_template = ::testing::TempDir() + "at_delta_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  cfg.delta_dir = dir_template;
  Server srv(*service, nullptr, *fx.exec, cfg);
  srv.start();
  Client client(client_config(srv.port()));

  Response up;
  std::string err;
  ASSERT_TRUE(client.update(1, 2, 1, 7, 5000, &up, &err)) << err;
  ASSERT_EQ(up.status, Status::kOk) << up.text;
  ASSERT_TRUE(client.update(1, 2, 1, 8, 5000, &up, &err)) << err;
  ASSERT_EQ(up.status, Status::kOk) << up.text;
  EXPECT_EQ(srv.snapshot().deltas_written, 2u);

  // The emitted files form a gapless tailable chain for the component,
  // under the zero-padded names the standby tailer sorts on. The first few
  // versions are the build-time publishes (initial epoch, global idf),
  // which emit no delta — scan a generous version range.
  std::vector<synopsis::DeltaArtifact> chain;
  for (std::uint64_t v = 1; v <= 32; ++v) {
    std::ifstream is(cfg.delta_dir + "/" + synopsis::delta_filename('c', 1, v),
                     std::ios::binary);
    if (!is.good()) continue;
    chain.push_back(synopsis::load_delta(is));
  }
  // No ".tmp" staging leftovers survive a successful write.
  for (const auto& entry :
       std::filesystem::directory_iterator(cfg.delta_dir)) {
    EXPECT_EQ(entry.path().extension(), ".atac") << entry.path();
  }
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].component, 1u);
  EXPECT_EQ(chain[1].from_version, chain[0].to_version);

  // An injected delta-write fault loses only the delta: the epoch is
  // already live and the update still reports success.
  fp::set("artifact.delta_write", "error");
  ASSERT_TRUE(client.update(1, 1, 0, 9, 5000, &up, &err)) << err;
  EXPECT_EQ(up.status, Status::kOk) << up.text;
  fp::clear_all();
  const auto snap = srv.snapshot();
  EXPECT_EQ(snap.deltas_written, 2u);
  EXPECT_EQ(snap.delta_failures, 1u);
  EXPECT_EQ(snap.updates, 3u);
  srv.stop();
}

TEST_F(ServerTest, RecommenderUpdateEmitsReplayableDelta) {
  // The recommender's delta sinks are wired at start() exactly like the
  // search ones (the PR-10 bugfix): a CF retraining batch must land on
  // disk as a loadable, replayable delta_r* artifact.
  workload::RatingConfig rcfg;
  rcfg.num_components = 2;
  rcfg.users_per_component = 60;
  rcfg.num_items = 64;
  rcfg.seed = 11;
  workload::RatingWorkloadGen rgen(rcfg);
  auto rwl = rgen.generate(4, 1);
  reco::CfService reco = cf_service(rwl, rcfg);

  auto service = private_service();
  auto& fx = fixture();
  ServerConfig cfg = test_server_config();
  std::string dir_template = ::testing::TempDir() + "at_rdelta_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  cfg.delta_dir = dir_template;
  Server srv(*service, &reco, *fx.exec, cfg);
  srv.start();

  // Pin the pre-update state so the delta can be replayed against it.
  std::stringstream before;
  reco.component(1).save(before);
  const std::uint64_t v0 = reco.component(1).epoch_version();

  common::Rng rng(3);
  synopsis::UpdateBatch batch;
  for (int i = 0; i < 3; ++i) batch.added.push_back(rgen.sample_user(rng));
  reco.update_component(1, batch);
  const std::uint64_t v1 = reco.component(1).epoch_version();
  ASSERT_EQ(v1, v0 + 1);

  std::ifstream is(cfg.delta_dir + "/" + synopsis::delta_filename('r', 1, v1),
                   std::ios::binary);
  ASSERT_TRUE(is.good()) << "recommender delta not emitted";
  const auto delta = synopsis::load_delta(is);
  EXPECT_EQ(delta.component, 1u);
  EXPECT_EQ(delta.from_version, v0);
  EXPECT_EQ(delta.to_version, v1);

  // Deterministic replay: a replica at v0 plus the delta is byte-identical
  // to the live component.
  auto replica = reco::RecommenderComponent::load(before);
  replica.update(delta.batch);
  std::stringstream live_bytes, replica_bytes;
  reco.component(1).save(live_bytes);
  replica.save(replica_bytes);
  EXPECT_EQ(live_bytes.str(), replica_bytes.str());

  EXPECT_EQ(srv.snapshot().deltas_written, 1u);
  srv.stop();

  // stop() detached the sink symmetrically: further updates emit nothing.
  synopsis::UpdateBatch after_batch;
  after_batch.added.push_back(rgen.sample_user(rng));
  reco.update_component(0, after_batch);
  const std::uint64_t v2 = reco.component(0).epoch_version();
  std::ifstream after(
      cfg.delta_dir + "/" + synopsis::delta_filename('r', 0, v2),
      std::ios::binary);
  EXPECT_FALSE(after.good());
}

// ---------------------------------------------------------------------------
// Client backoff (PR-10 bugfix: the server's retry_after_ms hint is a
// floor, not a midpoint)
// ---------------------------------------------------------------------------

TEST(ClientBackoff, RetryAfterHintIsAFloorUnderAllJitter) {
  ClientConfig cfg;
  cfg.backoff_base_ms = 1.0;
  cfg.backoff_cap_ms = 20.0;
  // Old equal-jitter bug: uniform(0.5, 1.0) could shrink a 10ms hint to
  // 5ms and the client would hammer a shedding server early. Now jitter
  // only ever stretches the hint (up to 1.5x), capped.
  for (const double unit : {0.0, 0.25, 0.5, 0.75, 0.999}) {
    const double d = backoff_delay_ms(cfg, 0, 10, unit);
    EXPECT_GE(d, 10.0) << "unit " << unit;
    EXPECT_LE(d, 15.0 + 1e-9) << "unit " << unit;
    EXPECT_LE(d, cfg.backoff_cap_ms) << "unit " << unit;
  }
  // A hint above the cap clamps to the cap exactly (no jitter range left).
  for (const double unit : {0.0, 0.5, 0.999})
    EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 2, 50, unit), 20.0);
  // The attempt index is irrelevant when the server told us when to come
  // back.
  EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 0, 10, 0.0),
                   backoff_delay_ms(cfg, 7, 10, 0.0));
}

TEST(ClientBackoff, TransportPathKeepsEqualJitterExponential) {
  ClientConfig cfg;
  cfg.backoff_base_ms = 1.0;
  cfg.backoff_cap_ms = 20.0;
  // No hint (transport error): unchanged equal-jitter exponential —
  // uniform in [base/2, base), doubling per attempt, capped.
  EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 0, 0, 0.0), 0.5);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 1, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 2, 0, 1.0), 4.0);
  // Attempt 10 would be 1024ms; the cap bounds it before jitter.
  EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 10, 0, 1.0), 20.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(cfg, 10, 0, 0.0), 10.0);
}

// ---------------------------------------------------------------------------
// Warm-standby takeover drill (PR-10 tentpole)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, StandbyTakeoverServesIdenticalAnswersWithNoEpochGap) {
  auto service = private_service();
  auto& fx = fixture();
  ServerConfig cfg = test_server_config();
  std::string delta_template = ::testing::TempDir() + "at_tdelta_XXXXXX";
  std::string ckpt_template = ::testing::TempDir() + "at_tckpt_XXXXXX";
  ASSERT_NE(::mkdtemp(delta_template.data()), nullptr);
  ASSERT_NE(::mkdtemp(ckpt_template.data()), nullptr);
  cfg.delta_dir = delta_template;

  Server primary(*service, nullptr, *fx.exec, cfg);
  primary.start();
  primary.write_checkpoint(ckpt_template);

  // Stream retraining updates at the primary after the checkpoint — the
  // standby must catch up purely from the delta chain.
  Client client(client_config(primary.port()));
  Response up;
  std::string err;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ASSERT_TRUE(client.update(seed % 2, 2, 1, seed, 5000, &up, &err)) << err;
    ASSERT_EQ(up.status, Status::kOk) << up.text;
  }

  // Record the primary's answers and effective epoch, then kill it
  // mid-stream (no flush, no goodbye — the checkpoint plus the renamed
  // deltas are all the standby gets).
  std::vector<Response> want;
  for (std::size_t q = 0; q < 4; ++q) {
    Response resp;
    ASSERT_TRUE(
        client.search(fx.queries[q].terms, 5000, 10, &resp, &err))
        << err;
    ASSERT_EQ(resp.tier, Tier::kFull);
    want.push_back(resp);
  }
  const std::uint64_t primary_epoch = primary.snapshot().epoch_version;
  const std::uint64_t primary_deltas = primary.snapshot().deltas_written;
  ASSERT_EQ(primary_deltas, 6u);
  primary.stop();

  StandbyConfig scfg;
  scfg.checkpoint_dir = ckpt_template;
  scfg.delta_dir = delta_template;
  scfg.poll_interval_ms = 5.0;
  scfg.server = test_server_config();
  StandbyReplica standby(scfg);
  standby.load();
  standby.start();
  Server& promoted = standby.promote();

  // No epoch gap: the promoted replica reports exactly the epoch the
  // primary died at.
  EXPECT_EQ(promoted.snapshot().epoch_version, primary_epoch);
  EXPECT_EQ(standby.stats().deltas_applied, primary_deltas);
  EXPECT_EQ(standby.state(), StandbyState::kPromoted);

  // Identical answers: same docs, bit-identical scores (deterministic
  // replay plus the checkpointed global idf).
  Client failover(client_config(promoted.port()));
  for (std::size_t q = 0; q < want.size(); ++q) {
    Response resp;
    ASSERT_TRUE(
        failover.search(fx.queries[q].terms, 5000, 10, &resp, &err))
        << err;
    ASSERT_EQ(resp.tier, Tier::kFull);
    ASSERT_EQ(resp.docs.size(), want[q].docs.size()) << "query " << q;
    for (std::size_t i = 0; i < resp.docs.size(); ++i) {
      EXPECT_EQ(resp.docs[i].doc, want[q].docs[i].doc)
          << "query " << q << " rank " << i;
      EXPECT_DOUBLE_EQ(resp.docs[i].score, want[q].docs[i].score)
          << "query " << q << " rank " << i;
    }
  }

  // promote() is idempotent; stop() shuts the promoted server down too.
  EXPECT_EQ(&standby.promote(), &promoted);
  standby.stop();
  EXPECT_EQ(standby.state(), StandbyState::kStopped);
  EXPECT_EQ(standby.server(), nullptr);
}

TEST_F(ServerTest, ReplayUpdateMixInterleavesRetrainingWithQueries) {
  auto service = private_service();
  auto& fx = fixture();
  Server srv(*service, nullptr, *fx.exec, test_server_config());
  srv.start();

  ReplayConfig cfg;
  cfg.port = srv.port();
  cfg.num_clients = 3;
  cfg.requests_per_client = 20;
  cfg.deadline_ms = 2000;
  cfg.recommend_fraction = 0.0;
  cfg.update_fraction = 0.25;
  cfg.update_adds = 2;
  cfg.update_changes = 1;
  cfg.update_components = 2;
  cfg.corpus = test_corpus_config();
  const auto report = run_replay(cfg);
  EXPECT_EQ(report.requests, 60u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.server_errors, 0u);
  EXPECT_GT(report.ok_updates, 0u);
  EXPECT_GT(report.ok_full + report.ok_synopsis + report.ok_cached, 0u);
  EXPECT_EQ(report.ok_full + report.ok_synopsis + report.ok_cached +
                report.ok_updates,
            60u);
  EXPECT_NE(report.to_json().find("\"update\""), std::string::npos);

  // Same seed, same stream: the update mix is reproducible.
  const auto again = run_replay(cfg);
  EXPECT_EQ(again.ok_updates, report.ok_updates);

  EXPECT_EQ(srv.snapshot().updates,
            report.ok_updates + again.ok_updates);
  srv.stop();
}

TEST_F(ServerTest, RecommendWithoutServiceIsBadRequest) {
  auto& fx = fixture();
  Server srv(*fx.service, nullptr, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port()));
  Response resp;
  std::string err;
  ASSERT_TRUE(client.recommend(3, {{1, 4.0}, {2, 2.5}}, 100, &resp, &err))
      << err;
  EXPECT_EQ(resp.status, Status::kBadRequest);
  srv.stop();
}

TEST_F(ServerTest, LiveRecommendAnswersTheExactPrediction) {
  // Over TCP, on the executor, a full-tier recommend is the offline exact
  // prediction bit for bit; time lost before service still sheds it.
  workload::RatingConfig rcfg;
  rcfg.num_components = 3;
  rcfg.users_per_component = 200;
  rcfg.num_items = 80;
  rcfg.num_clusters = 6;
  rcfg.seed = 404;
  workload::RatingWorkloadGen rgen(rcfg);
  auto rwl = rgen.generate(20, 1);
  ASSERT_FALSE(rwl.requests.empty());
  reco::CfService reco = cf_service(rwl, rcfg, 12.0);
  auto& fx = fixture();
  reco.set_executor(fx.exec.get());

  Server srv(*fx.service, &reco, *fx.exec, test_server_config());
  srv.start();
  Client client(client_config(srv.port(), /*retries=*/0));
  std::string err;
  for (const auto& request : rwl.requests) {
    Response resp;
    ASSERT_TRUE(client.recommend(request.target_item, request.ratings, 1000,
                                 &resp, &err))
        << err;
    EXPECT_EQ(resp.status, Status::kOk);
    EXPECT_EQ(resp.tier, Tier::kFull);
    EXPECT_EQ(resp.prediction, reco.predict_exact(request));
  }

  fp::set("server.dispatch", "delay:60:x1");
  Response shed;
  const auto& request = rwl.requests.front();
  EXPECT_FALSE(
      client.recommend(request.target_item, request.ratings, 50, &shed, &err));
  EXPECT_EQ(shed.status, Status::kShed);
  EXPECT_EQ(shed.tier, Tier::kNone);
  srv.stop();
}

}  // namespace
}  // namespace at::server
