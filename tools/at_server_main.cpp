// at_server: standalone serving binary for CI smoke runs and manual poking.
//
// Builds a synthetic search corpus (plus a small CF recommender), starts
// the deadline-aware server and blocks until SIGTERM/SIGINT, then shuts
// down cleanly and prints the final serving stats JSON to stdout.
//
// Startup line (parsed by scripts):  LISTENING <port>
//
// Flags: --port N        bind port (default 0 = ephemeral)
//        --components N  shard components (default 8)
//        --docs N        docs per component (default 200)
//        --queue N       admission bound per queue: the read queue and
//                        the writer lane (default 64)
//        --deadline MS   default deadline for requests that carry none
//        --no-reco       skip building the recommender
//        --delta-dir P   emit one DLTA delta artifact per epoch publish
//                        into directory P (warm-standby tailing; see
//                        README "Online retraining & epochs")
//        --ckpt-dir P    write a full warm-standby checkpoint (SCMP/RCMP
//                        per component + the global idf) into directory P
//                        right after startup; prints "CHECKPOINT <dir>"
//
// A bad flag value (--components or --docs not positive, a negative
// --queue or --deadline, a --port outside 0-65535) or any setup failure
// prints "at_server: <what>" and exits 1.
//
// Fault injection: arm failpoints via AT_FAILPOINTS (see README).
#include <csignal>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "common/sharded_executor.h"
#include "server/server.h"
#include "services/recommender/service.h"
#include "services/search/service.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace at;
  using namespace at::cli;

  const long port = arg_long(argc, argv, "--port", 0);
  const long components = arg_long(argc, argv, "--components", 8);
  const long docs = arg_long(argc, argv, "--docs", 200);
  const long queue = arg_long(argc, argv, "--queue", 64);
  const long deadline = arg_long(argc, argv, "--deadline", 100);
  const bool no_reco = arg_flag(argc, argv, "--no-reco");
  const std::string delta_dir = arg_str(argc, argv, "--delta-dir", "");
  const std::string ckpt_dir = arg_str(argc, argv, "--ckpt-dir", "");

  // Declared outside the try so they outlive it; destroyed in reverse
  // order, the server first.
  std::unique_ptr<search::SearchService> search;
  std::unique_ptr<common::ShardedExecutor> exec;
  std::unique_ptr<reco::CfService> reco;
  std::unique_ptr<server::Server> server;
  try {
    require(components > 0, "--components must be positive");
    require(docs > 0, "--docs must be positive");
    require(queue >= 0, "--queue must not be negative");
    require(deadline >= 0, "--deadline must not be negative");
    require(port >= 0 && port <= 65535, "--port must be in 0-65535");

    // Search corpus + service.
    workload::CorpusConfig ccfg;
    ccfg.num_components = static_cast<std::size_t>(components);
    ccfg.docs_per_component = static_cast<std::size_t>(docs);
    ccfg.seed = 20160816;
    workload::CorpusGen gen(ccfg);
    auto wl = gen.generate(16);  // the 16 queries seed calibration

    synopsis::BuildConfig bcfg;
    bcfg.svd.rank = 3;
    bcfg.svd.epochs_per_dim = 30;
    bcfg.size_ratio = 12.0;

    std::vector<search::SearchComponent> comps;
    std::uint64_t base = 0;
    for (auto& shard : wl.shards) {
      const auto n = shard.rows();
      comps.emplace_back(std::move(shard), base, bcfg);
      base += n;
    }
    search = std::make_unique<search::SearchService>(std::move(comps), 10);
    exec = std::make_unique<common::ShardedExecutor>();
    search->set_executor(exec.get());

    // Small CF recommender so the recommend op is live.
    if (!no_reco) {
      workload::RatingConfig rcfg;
      rcfg.num_components = 4;
      rcfg.users_per_component = 120;
      rcfg.num_items = 256;
      rcfg.seed = 20160816;
      workload::RatingWorkloadGen rgen(rcfg);
      auto rwl = rgen.generate(8, 1);
      std::vector<reco::RecommenderComponent> rcomps;
      for (auto& subset : rwl.subsets)
        rcomps.emplace_back(std::move(subset), bcfg);
      reco = std::make_unique<reco::CfService>(
          std::move(rcomps), rcfg.min_rating, rcfg.max_rating);
      reco->set_executor(exec.get());
    }

    server::ServerConfig scfg;
    scfg.port = static_cast<std::uint16_t>(port);
    scfg.max_queue = static_cast<std::size_t>(queue);
    scfg.default_deadline_ms = static_cast<double>(deadline);
    scfg.delta_dir = delta_dir;
    scfg.calibration_queries = wl.queries;

    server = std::make_unique<server::Server>(*search, reco.get(), *exec,
                                              scfg);
    server->start();
    if (!ckpt_dir.empty()) {
      server->write_checkpoint(ckpt_dir);
      std::cout << "CHECKPOINT " << ckpt_dir << std::endl;
    }
  } catch (const std::exception& e) {
    std::cerr << "at_server: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::cout << "LISTENING " << server->port() << std::endl;

  while (g_stop == 0)
    // atlint: allow(banned-sleep) — signal-wait poll in the binary's main.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  server->stop();
  std::cout << server->stats_json() << std::endl;
  return 0;
}
