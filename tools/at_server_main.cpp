// at_server: standalone serving binary for CI smoke runs and manual poking.
//
// Builds a synthetic search corpus (plus a small CF recommender), starts
// the deadline-aware server and blocks until SIGTERM/SIGINT, then shuts
// down cleanly and prints the final serving stats JSON to stdout.
//
// Startup line (parsed by scripts):  LISTENING <port>
//
// Startup is a pipeline: the main thread generates the corpus shard by
// shard, and each finished shard's component (SVD, R-tree, aggregation,
// inverted index) builds on its home group of the executor that later runs
// the updates, while the next shard is generated. The components, their doc
// ids and the calibration queries equal a serial build's.
//
// Flags: --port N        bind port (default 0 = ephemeral)
//        --components N  shard components (default 8)
//        --docs N        docs per component (default 200)
//        --queue N       admission bound per queue: the read queue and
//                        the writer lane (default 64)
//        --deadline MS   default deadline for requests that carry none
//                        (default 100)
//        --no-reco       skip building the recommender
//        --delta-dir P   emit one DLTA delta artifact per epoch publish
//                        into directory P (warm-standby tailing; see
//                        README "Online retraining & epochs")
//        --ckpt-dir P    write a full warm-standby checkpoint (SCMP/RCMP
//                        per component + the global idf) into directory P
//                        right after startup; prints "CHECKPOINT <dir>"
//
// A bad flag value (a numeric flag that is not a whole number;
// --components, --docs, --queue or --deadline not positive; a --port
// outside 0-65535) or any setup failure prints "at_server: <what>" and
// exits 1. A zero --queue or --deadline would shed every request.
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
#include "services/search/component_builder.h"
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

  pin_mmap_threshold();

  // Declared outside the try so they outlive it; destroyed in reverse
  // order, the server first.
  std::unique_ptr<common::ShardedExecutor> exec;
  std::unique_ptr<search::SearchService> search;
  std::unique_ptr<reco::CfService> reco;
  std::unique_ptr<server::Server> server;
  try {
    const long port = arg_long(argc, argv, "--port", 0);
    const long components = arg_long(argc, argv, "--components", 8);
    const long docs = arg_long(argc, argv, "--docs", 200);
    const long queue = arg_long(argc, argv, "--queue", 64);
    const long deadline = arg_long(argc, argv, "--deadline", 100);
    const bool no_reco = arg_flag(argc, argv, "--no-reco");
    const std::string delta_dir = arg_str(argc, argv, "--delta-dir", "");
    const std::string ckpt_dir = arg_str(argc, argv, "--ckpt-dir", "");
    require(components > 0, "--components must be positive");
    require(docs > 0, "--docs must be positive");
    require(queue > 0, "--queue must be positive");
    require(deadline > 0, "--deadline must be positive");
    require(port >= 0 && port <= 65535, "--port must be in 0-65535");

    exec = std::make_unique<common::ShardedExecutor>();

    // Search corpus + service, built as the corpus streams in.
    workload::CorpusConfig ccfg;
    ccfg.num_components = static_cast<std::size_t>(components);
    ccfg.docs_per_component = static_cast<std::size_t>(docs);
    ccfg.seed = 20160816;
    workload::CorpusGen gen(ccfg);

    synopsis::BuildConfig bcfg;
    bcfg.svd.rank = 3;
    bcfg.svd.epochs_per_dim = 30;
    bcfg.size_ratio = 12.0;

    search::ComponentBuilder builder(*exec, bcfg);
    // The 16 queries seed calibration.
    auto queries = gen.generate(16, [&builder](synopsis::SparseRows shard) {
      builder.add(std::move(shard));
    });
    search = std::make_unique<search::SearchService>(builder.finish(), 10);
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
    scfg.calibration_queries = std::move(queries);

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
