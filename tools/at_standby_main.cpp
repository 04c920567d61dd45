// at_standby: warm-standby replica binary for CI takeover smoke runs and
// manual drills.
//
// Loads the checkpoint written by at_server --ckpt-dir, tails the delta
// directory, and waits for signals:
//
//   SIGUSR1        promote: stop tailing, drain remaining deltas, start
//                  serving. Prints "PROMOTED <port>" (parsed by scripts).
//   SIGTERM/SIGINT shut down cleanly and print the final stats JSON
//                  ({"standby": ..., "server": ...}) to stdout.
//
// Startup line (parsed by scripts):  TAILING
// A failed promotion (resync required) prints "RESYNC_REQUIRED <reason>"
// and exits 2.
//
// Flags: --ckpt-dir P    checkpoint directory (required)
//        --delta-dir P   delta directory to tail (required)
//        --port N        port the promoted server binds (default 0)
//        --poll-ms N     tailer poll interval (default 20)
//        --queue N       admission bound per queue once promoted
//                        (default 64)
//        --deadline MS   default deadline once promoted (default 100)
//        --emit-deltas   promoted server keeps emitting deltas into the
//                        tailed directory, continuing the primary's chain
//
// A bad flag value (a --port outside 0-65535; a --poll-ms, --queue or
// --deadline not positive), a missing directory flag or a failed load
// prints "at_standby: <what>" and exits 1.
//
// Fault injection: arm failpoints via AT_FAILPOINTS (standby.apply,
// standby.promote; see README).
#include <csignal>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "cli_flags.h"
#include "server/standby.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_promote = 0;
void handle_stop(int) { g_stop = 1; }
void handle_promote(int) { g_promote = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace at;
  using namespace at::cli;

  const long port = arg_long(argc, argv, "--port", 0);
  const long poll_ms = arg_long(argc, argv, "--poll-ms", 20);
  const long queue = arg_long(argc, argv, "--queue", 64);
  const long deadline = arg_long(argc, argv, "--deadline", 100);

  server::StandbyConfig cfg;
  cfg.checkpoint_dir = arg_str(argc, argv, "--ckpt-dir", "");
  cfg.delta_dir = arg_str(argc, argv, "--delta-dir", "");
  if (arg_flag(argc, argv, "--emit-deltas")) cfg.server.delta_dir = cfg.delta_dir;

  std::unique_ptr<server::StandbyReplica> standby;
  try {
    require(!cfg.checkpoint_dir.empty() && !cfg.delta_dir.empty(),
            "--ckpt-dir and --delta-dir are required");
    require(port >= 0 && port <= 65535, "--port must be in 0-65535");
    require(poll_ms > 0, "--poll-ms must be positive");
    require(queue > 0, "--queue must be positive");
    require(deadline > 0, "--deadline must be positive");
    cfg.poll_interval_ms = static_cast<double>(poll_ms);
    cfg.server.port = static_cast<std::uint16_t>(port);
    cfg.server.max_queue = static_cast<std::size_t>(queue);
    cfg.server.default_deadline_ms = static_cast<double>(deadline);

    standby = std::make_unique<server::StandbyReplica>(cfg);
    standby->load();
    standby->start();
  } catch (const std::exception& e) {
    std::cerr << "at_standby: " << e.what() << "\n";
    return 1;
  }

  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);
  std::signal(SIGUSR1, handle_promote);
  std::cout << "TAILING" << std::endl;

  while (g_stop == 0) {
    if (g_promote != 0) {
      g_promote = 0;
      try {
        server::Server& srv = standby->promote();
        std::cout << "PROMOTED " << srv.port() << std::endl;
      } catch (const std::exception& e) {
        std::cout << "RESYNC_REQUIRED " << e.what() << std::endl;
        std::cout << standby->stats_json() << std::endl;
        return 2;
      }
    }
    // atlint: allow(banned-sleep) — signal-wait poll in the binary's main.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  server::Server* promoted = standby->server();
  const std::string server_json =
      promoted != nullptr ? promoted->stats_json() : "null";
  standby->stop();
  std::cout << "{\"standby\": " << standby->stats_json()
            << ", \"server\": " << server_json << "}" << std::endl;
  return 0;
}
