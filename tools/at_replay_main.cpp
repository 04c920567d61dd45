// at_replay: scripted replay driver against a running at_server.
//
// Drives a deterministic query stream from N concurrent clients and prints
// the aggregated report (per-tier p50/p99 latency, shed rate, transport
// errors) as JSON to stdout — the payload the CI smoke job and
// BENCH_serving.json consume. Exit code 0 iff every call was eventually
// answered (shed-then-retried is fine; exhausted retries are not) and no
// server error was returned, unless --allow-errors is given (fault
// injection runs expect some).
//
// Flags: --port N       (required) server port
//        --clients N    concurrent clients (default 4)
//        --requests N   requests per client (default 50)
//        --deadline MS  per-request deadline (default 100; 0 sends none,
//                       so the server applies its own default)
//        --reco-frac P  fraction [0,1] of recommend ops (default 0.1)
//        --update-mix P fraction [0,1] of online-retraining update ops,
//                       interleaved with the query load from the same
//                       seeded stream (default 0 — queries only)
//        --update-adds N    rows added per update batch (default 4)
//        --update-changes N rows changed per update batch (default 4)
//        --components N corpus shards — must match the server (default 8)
//        --docs N       docs per component — must match (default 200)
//        --seed N       replay stream seed (default 7)
//        --allow-errors tolerate shed-exhaustion / error responses
//
// A bad flag value (--clients, --requests, --components or --docs not
// positive, a --port outside 1-65535, a negative --deadline) prints
// "at_replay: <what>" and exits 2.
#include <iostream>
#include <stdexcept>

#include "cli_flags.h"
#include "server/replay.h"

int main(int argc, char** argv) {
  using namespace at;
  using namespace at::cli;

  const long port = arg_long(argc, argv, "--port", 0);
  const long clients = arg_long(argc, argv, "--clients", 4);
  const long requests = arg_long(argc, argv, "--requests", 50);
  const long deadline = arg_long(argc, argv, "--deadline", 100);
  const long components = arg_long(argc, argv, "--components", 8);
  const long docs = arg_long(argc, argv, "--docs", 200);
  try {
    require(port >= 1 && port <= 65535, "--port must be in 1-65535");
    require(clients > 0, "--clients must be positive");
    require(requests > 0, "--requests must be positive");
    require(components > 0, "--components must be positive");
    require(docs > 0, "--docs must be positive");
    require(deadline >= 0, "--deadline must not be negative");
  } catch (const std::invalid_argument& e) {
    std::cerr << "at_replay: " << e.what() << "\n";
    return 2;
  }

  server::ReplayConfig cfg;
  cfg.port = static_cast<std::uint16_t>(port);
  cfg.num_clients = static_cast<std::size_t>(clients);
  cfg.requests_per_client = static_cast<std::size_t>(requests);
  cfg.deadline_ms = static_cast<std::uint32_t>(deadline);
  cfg.recommend_fraction = arg_double(argc, argv, "--reco-frac", 0.1);
  cfg.update_fraction = arg_double(argc, argv, "--update-mix", 0.0);
  cfg.update_adds = static_cast<std::uint32_t>(
      arg_long(argc, argv, "--update-adds", 4));
  cfg.update_changes = static_cast<std::uint32_t>(
      arg_long(argc, argv, "--update-changes", 4));
  cfg.seed = static_cast<std::uint64_t>(arg_long(argc, argv, "--seed", 7));
  cfg.corpus.num_components = static_cast<std::size_t>(components);
  cfg.update_components =
      static_cast<std::uint32_t>(cfg.corpus.num_components);
  cfg.corpus.docs_per_component = static_cast<std::size_t>(docs);
  cfg.corpus.seed = 20160816;  // same stream the server was built from

  const auto report = server::run_replay(cfg);
  std::cout << report.to_json() << std::endl;

  if (arg_flag(argc, argv, "--allow-errors")) return 0;
  if (report.failures > 0 || report.server_errors > 0) {
    std::cerr << "at_replay: " << report.failures << " failed calls, "
              << report.server_errors << " server errors\n";
    return 1;
  }
  return 0;
}
