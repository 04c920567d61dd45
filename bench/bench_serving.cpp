// Serving-path benchmark: the degradation ladder under load (ISSUE 6).
//
// Starts the real TCP server over a real fixture and replays two phases
// through the client library:
//
//   comfortable  few clients, generous deadlines — the full tier should
//                dominate, nothing sheds;
//   burst        many concurrent clients with tight deadlines — admission
//                control sheds what cannot meet its deadline and the
//                ladder degrades the rest, trading synopsis accuracy for
//                tail latency (the paper's core trade, now measured on a
//                live request path instead of the simulator).
//
// Machine-readable output: BENCH_serving.json (override: AT_SERVING_JSON)
// with per-tier request counts, client-observed p50/p99 latency, mean
// estimated accuracy loss and the shed rate of each phase.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench/bench_common.h"
#include "common/sharded_executor.h"
#include "server/replay.h"
#include "server/server.h"

using namespace at;

namespace {

server::ReplayConfig phase_config(std::uint16_t port, std::size_t clients,
                                  std::size_t requests,
                                  std::uint32_t deadline_ms) {
  server::ReplayConfig cfg;
  cfg.port = port;
  cfg.num_clients = clients;
  cfg.requests_per_client = requests;
  cfg.deadline_ms = deadline_ms;
  cfg.recommend_fraction = 0.0;  // search ladder is the object of study
  cfg.corpus = bench::default_corpus_config();
  // The burst wants the shed path exercised, not hidden behind retries.
  cfg.client.max_retries = 1;
  cfg.client.backoff_cap_ms = 20.0;
  return cfg;
}

void print_phase(const char* name, const server::ReplayReport& r) {
  std::cout << name << ": full=" << r.ok_full << " (p99 "
            << r.lat_full_ms.p99() << " ms), synopsis=" << r.ok_synopsis
            << " (p99 " << r.lat_synopsis_ms.p99()
            << " ms), cached=" << r.ok_cached << ", shed_rate "
            << r.shed_rate() << ", failures " << r.failures << "\n";
}

}  // namespace

int main() {
  common::ShardedExecutor exec;
  auto fx = bench::make_search_fixture();
  fx.service->set_executor(&exec);

  server::ServerConfig scfg;
  scfg.max_queue = 8;  // small bound so the burst visibly sheds
  for (std::size_t i = 0; i < 16 && i < fx.queries.size(); ++i)
    scfg.calibration_queries.push_back(fx.queries[i]);

  server::Server srv(*fx.service, nullptr, exec, scfg);
  srv.start();

  bench::print_paper_note(
      "serving",
      "under overload the ladder sheds/degrades instead of queueing: "
      "synopsis-tier answers keep tail latency bounded at a calibrated "
      "accuracy loss (the Table-1/Fig-6 trade on a live request path)");

  const auto comfortable =
      server::run_replay(phase_config(srv.port(), 2, 60, 2000));
  print_phase("comfortable", comfortable);

  const auto burst = server::run_replay(phase_config(srv.port(), 16, 40, 15));
  print_phase("burst", burst);

  const auto snap = srv.snapshot();
  srv.stop();

  const char* path_env = std::getenv("AT_SERVING_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_serving.json";
  std::ofstream os(path);
  os << "{\"comfortable\": " << comfortable.to_json()
     << ", \"burst\": " << burst.to_json()
     << ", \"server\": {\"accepted\": " << snap.accepted
     << ", \"shed\": " << snap.shed << ", \"errors\": " << snap.errors
     << ", \"est_full_ms\": " << snap.est_full_ms
     << ", \"est_synopsis_ms\": " << snap.est_synopsis_ms
     << ", \"synopsis_loss_pct\": " << snap.synopsis_loss_pct << "}}\n";
  std::cout << "wrote " << path << "\n";
  return 0;
}
