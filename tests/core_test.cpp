// Algorithm 1 and technique-metadata tests.
#include <gtest/gtest.h>

#include <vector>

#include <atomic>
#include <future>
#include <thread>

#include "core/algorithm1.h"
#include "core/fanout.h"
#include "core/outcome.h"
#include "core/runtime.h"
#include "core/technique.h"

namespace at::core {
namespace {

TEST(Technique, Names) {
  EXPECT_EQ(to_string(Technique::kBasic), "Basic");
  EXPECT_EQ(to_string(Technique::kRequestReissue), "Request reissue");
  EXPECT_EQ(to_string(Technique::kPartialExecution), "Partial execution");
  EXPECT_EQ(to_string(Technique::kAccuracyTrader), "AccuracyTrader");
}

TEST(Technique, ApproximateClassification) {
  EXPECT_FALSE(is_approximate(Technique::kBasic));
  EXPECT_FALSE(is_approximate(Technique::kRequestReissue));
  EXPECT_TRUE(is_approximate(Technique::kPartialExecution));
  EXPECT_TRUE(is_approximate(Technique::kAccuracyTrader));
}

TEST(RankByCorrelation, DescendingWithStableTies) {
  const std::vector<double> c{0.1, 0.9, 0.5, 0.9, 0.0};
  const auto order = rank_by_correlation(c);
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order[0], 1u);  // first 0.9 (stable)
  EXPECT_EQ(order[1], 3u);
  EXPECT_EQ(order[2], 2u);
  EXPECT_EQ(order[3], 0u);
  EXPECT_EQ(order[4], 4u);
}

TEST(RankByCorrelation, Empty) {
  EXPECT_TRUE(rank_by_correlation({}).empty());
}

TEST(VirtualClockBehaviour, AdvanceAndSet) {
  VirtualClock clock(5.0);
  EXPECT_DOUBLE_EQ(clock.elapsed_ms(), 5.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.elapsed_ms(), 7.5);
  clock.set(100.0);
  EXPECT_DOUBLE_EQ(clock.elapsed_ms(), 100.0);
}

TEST(WallClockBehaviour, MonotoneNonNegative) {
  WallClock clock;
  const double a = clock.elapsed_ms();
  const double b = clock.elapsed_ms();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

struct Harness {
  VirtualClock clock{0.0};
  std::vector<double> correlations;
  double synopsis_cost_ms = 2.0;
  double set_cost_ms = 10.0;
  std::vector<std::size_t> processed;

  Algorithm1Trace run(const Algorithm1Config& cfg) {
    return run_algorithm1(
        cfg, clock,
        [this] {
          clock.advance(synopsis_cost_ms);
          return correlations;
        },
        [this](std::size_t g) {
          processed.push_back(g);
          clock.advance(set_cost_ms);
        });
  }
};

TEST(Algorithm1, ProcessesInRankedOrder) {
  Harness h;
  h.correlations = {0.2, 0.9, 0.5};
  Algorithm1Config cfg;
  cfg.deadline_ms = 1000.0;
  const auto trace = h.run(cfg);
  EXPECT_EQ(trace.sets_processed, 3u);
  ASSERT_EQ(h.processed.size(), 3u);
  EXPECT_EQ(h.processed[0], 1u);
  EXPECT_EQ(h.processed[1], 2u);
  EXPECT_EQ(h.processed[2], 0u);
  EXPECT_FALSE(trace.stopped_by_deadline);
}

TEST(Algorithm1, DeadlineCutsStage2) {
  Harness h;
  h.correlations = std::vector<double>(100, 1.0);
  Algorithm1Config cfg;
  cfg.deadline_ms = 35.0;  // synopsis 2ms + 10ms per set
  const auto trace = h.run(cfg);
  // Sets start at t=2,12,22,32; the check at t=42 fails -> 4 sets.
  EXPECT_EQ(trace.sets_processed, 4u);
  EXPECT_TRUE(trace.stopped_by_deadline);
}

TEST(Algorithm1, SynopsisAlwaysProcessedEvenPastDeadline) {
  // Queueing delay alone exceeded the deadline: stage 1 still runs (that
  // is what bounds AccuracyTrader's latency) but no sets are processed.
  Harness h;
  h.clock.set(500.0);
  h.correlations = {0.5, 0.1};
  Algorithm1Config cfg;
  cfg.deadline_ms = 100.0;
  const auto trace = h.run(cfg);
  EXPECT_EQ(trace.sets_processed, 0u);
  EXPECT_TRUE(trace.stopped_by_deadline);
  EXPECT_DOUBLE_EQ(h.clock.elapsed_ms(), 502.0);  // synopsis cost paid
}

TEST(Algorithm1, ImaxBoundsProcessedSets) {
  Harness h;
  h.correlations = std::vector<double>(50, 1.0);
  Algorithm1Config cfg;
  cfg.deadline_ms = 1e9;
  cfg.imax = 7;
  const auto trace = h.run(cfg);
  EXPECT_EQ(trace.sets_processed, 7u);
  EXPECT_FALSE(trace.stopped_by_deadline);
}

TEST(Algorithm1, SetExhaustion) {
  Harness h;
  h.correlations = {0.3, 0.1};
  Algorithm1Config cfg;
  cfg.deadline_ms = 1e9;
  const auto trace = h.run(cfg);
  EXPECT_EQ(trace.sets_processed, 2u);
  EXPECT_FALSE(trace.stopped_by_deadline);
}

TEST(Algorithm1, EmptySynopsis) {
  Harness h;
  h.correlations = {};
  Algorithm1Config cfg;
  const auto trace = h.run(cfg);
  EXPECT_EQ(trace.sets_processed, 0u);
}

TEST(Algorithm1, ElapsedReportedFromClock) {
  Harness h;
  h.correlations = {1.0};
  Algorithm1Config cfg;
  cfg.deadline_ms = 100.0;
  const auto trace = h.run(cfg);
  EXPECT_DOUBLE_EQ(trace.elapsed_ms, 12.0);  // 2ms synopsis + 10ms set
}

TEST(Algorithm1, WallClockRealTimeDeadline) {
  // Real-time smoke test: with a wall clock and a slow improve step, the
  // deadline must stop processing long before all sets are done.
  WallClock clock;
  std::size_t processed = 0;
  Algorithm1Config cfg;
  cfg.deadline_ms = 30.0;
  const auto trace = run_algorithm1(
      cfg, clock,
      [] { return std::vector<double>(1000, 1.0); },
      [&processed](std::size_t) {
        ++processed;
        // ~1ms of spinning per set.
        WallClock w;
        while (w.elapsed_ms() < 1.0) {
        }
      });
  EXPECT_LT(trace.sets_processed, 1000u);
  EXPECT_TRUE(trace.stopped_by_deadline);
  EXPECT_GE(trace.elapsed_ms, 30.0);
  EXPECT_LT(trace.elapsed_ms, 300.0);  // bounded overshoot
}

TEST(Outcome, Defaults) {
  ComponentOutcome o;
  EXPECT_TRUE(o.included);
  EXPECT_EQ(o.sets, 0u);
}

// ---------------------------------------------------------------------------
// ComponentRuntime: the live online module
// ---------------------------------------------------------------------------

TEST(Runtime, CompletesSubmittedJobs) {
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 50.0;
  ComponentRuntime runtime(cfg);
  std::atomic<int> completions{0};
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(runtime.submit(
        [] { return std::vector<double>{1.0, 0.5}; },
        [](std::size_t) {},
        [&completions](const JobResult& r) {
          EXPECT_EQ(r.trace.sets_processed, 2u);
          EXPECT_GE(r.total_latency_ms, r.queue_wait_ms);
          completions++;
        }));
  }
  runtime.shutdown();
  EXPECT_EQ(completions.load(), 20);
  const auto stats = runtime.stats();
  EXPECT_EQ(stats.accepted, 20u);
  EXPECT_EQ(stats.completed, 20u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(runtime.latency_snapshot().count(), 20u);
}

TEST(Runtime, QueueWaitCountsAgainstDeadline) {
  // Flood a slow runtime: late jobs have burned their budget in the queue,
  // so they process 0 sets — yet every job still completes (stage 1 always
  // runs), which is the latency-bounding property.
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 10.0;
  ComponentRuntime runtime(cfg);
  std::atomic<int> zero_set_jobs{0};
  std::atomic<int> completions{0};
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(runtime.submit(
        [] { return std::vector<double>(100, 1.0); },
        [](std::size_t) {
          common::Stopwatch w;  // ~2ms per set
          while (w.elapsed_ms() < 2.0) {
          }
        },
        [&](const JobResult& r) {
          completions++;
          if (r.trace.sets_processed == 0) zero_set_jobs++;
        }));
  }
  runtime.shutdown();
  EXPECT_EQ(completions.load(), 30);
  EXPECT_GT(zero_set_jobs.load(), 10);  // most of the flood hit the deadline
}

TEST(Runtime, RejectsWhenQueueFull) {
  RuntimeConfig cfg;
  cfg.queue_capacity = 2;
  cfg.algorithm.deadline_ms = 1000.0;
  ComponentRuntime runtime(cfg);
  std::atomic<bool> release{false};
  // Block the worker with one long job, then overfill the queue.
  runtime.submit(
      [&release] {
        while (!release.load()) {
        }
        return std::vector<double>{};
      },
      [](std::size_t) {});
  // Wait (bounded, generously for loaded machines) for the worker to pick
  // up the blocking job.
  common::Stopwatch w;
  while (runtime.pending() > 0 && w.elapsed_ms() < 30000.0) {
  }
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    if (runtime.submit([] { return std::vector<double>{}; },
                       [](std::size_t) {})) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(rejected, 8);
  release = true;
  runtime.shutdown();
  EXPECT_EQ(runtime.stats().rejected, 8u);
}

TEST(Runtime, SubmitAfterShutdownRejected) {
  RuntimeConfig cfg;
  ComponentRuntime runtime(cfg);
  runtime.shutdown();
  EXPECT_FALSE(runtime.submit([] { return std::vector<double>{}; },
                              [](std::size_t) {}));
}

TEST(Runtime, DrainsQueueOnShutdown) {
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 1000.0;
  std::atomic<int> done{0};
  {
    ComponentRuntime runtime(cfg);
    for (int i = 0; i < 50; ++i) {
      runtime.submit([] { return std::vector<double>{0.1}; },
                     [](std::size_t) {},
                     [&done](const JobResult&) { done++; });
    }
    // Destructor must drain everything.
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(Runtime, ConcurrentShutdownIsSafe) {
  // Regression (found by the thread-safety annotation pass): two threads
  // calling shutdown() used to race to worker_.join() — joining the same
  // std::thread twice is undefined behavior. Exactly one caller joins
  // now; the others block until the worker is down, so every caller still
  // observes a fully drained runtime on return.
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 1000.0;
  ComponentRuntime runtime(cfg);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(runtime.submit([] { return std::vector<double>{0.5}; },
                               [](std::size_t) {},
                               [&done](const JobResult&) { done++; }));
  }
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t)
    callers.emplace_back([&runtime] { runtime.shutdown(); });
  for (auto& th : callers) th.join();
  EXPECT_EQ(done.load(), 10);  // drained before any shutdown() returned
  EXPECT_FALSE(runtime.submit([] { return std::vector<double>{}; },
                              [](std::size_t) {}));
}

// ---------------------------------------------------------------------------
// FanOutCoordinator: the in-process deployment topology
// ---------------------------------------------------------------------------

TEST(FanOut, MergerFiresOnceWithAllComponents) {
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 100.0;
  FanOutCoordinator coord(cfg, 4);
  std::promise<FanOutResult> merged;
  auto fut = merged.get_future();
  const auto accepted = coord.dispatch(
      [](std::size_t comp) {
        return std::vector<double>(comp + 1, 1.0);  // comp c has c+1 groups
      },
      [](std::size_t, std::size_t) {},
      [&merged](const FanOutResult& r) { merged.set_value(r); });
  EXPECT_EQ(accepted, 4u);
  const auto result = fut.get();
  ASSERT_EQ(result.components.size(), 4u);
  EXPECT_EQ(result.accepted_count(), 4u);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(result.components[c].accepted);
    EXPECT_EQ(result.components[c].job.trace.sets_processed, c + 1);
  }
  EXPECT_GE(result.latency_ms, 0.0);
  coord.shutdown();
}

TEST(FanOut, ManyConcurrentRequests) {
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 50.0;
  FanOutCoordinator coord(cfg, 3);
  std::atomic<int> merges{0};
  std::atomic<int> subops{0};
  for (int r = 0; r < 100; ++r) {
    coord.dispatch(
        [&subops](std::size_t) {
          subops++;
          return std::vector<double>{0.5};
        },
        [](std::size_t, std::size_t) {},
        [&merges](const FanOutResult& res) {
          EXPECT_EQ(res.accepted_count(), 3u);
          merges++;
        });
  }
  coord.shutdown();
  EXPECT_EQ(merges.load(), 100);
  EXPECT_EQ(subops.load(), 300);
}

TEST(FanOut, ShedComponentsReportedNotAccepted) {
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 1000.0;
  cfg.queue_capacity = 1;
  FanOutCoordinator coord(cfg, 2);
  // Block both workers.
  std::atomic<bool> release{false};
  std::atomic<int> merges{0};
  coord.dispatch(
      [&release](std::size_t) {
        while (!release.load()) {
        }
        return std::vector<double>{};
      },
      [](std::size_t, std::size_t) {},
      [&merges](const FanOutResult&) { merges++; });
  // Wait until both runtimes picked up their blocking job.
  common::Stopwatch w;
  while ((coord.component(0).pending() > 0 ||
          coord.component(1).pending() > 0) &&
         w.elapsed_ms() < 1000.0) {
  }
  // Fill the queues (capacity 1 each).
  coord.dispatch([](std::size_t) { return std::vector<double>{}; },
                 [](std::size_t, std::size_t) {},
                 [&merges](const FanOutResult&) { merges++; });
  // Third dispatch: everything sheds; merger still fires, inline.
  std::atomic<bool> shed_merge_fired{false};
  coord.dispatch([](std::size_t) { return std::vector<double>{}; },
                 [](std::size_t, std::size_t) {},
                 [&shed_merge_fired](const FanOutResult& r) {
                   EXPECT_EQ(r.accepted_count(), 0u);
                   shed_merge_fired = true;
                 });
  EXPECT_TRUE(shed_merge_fired.load());
  release = true;
  coord.shutdown();
  EXPECT_EQ(merges.load(), 2);
}

TEST(FanOut, QueueingCountsAgainstEveryComponentDeadline) {
  // Flood a 2-component fan-out whose improve step is slow: late requests
  // must process fewer sets, but every merger fires.
  RuntimeConfig cfg;
  cfg.algorithm.deadline_ms = 15.0;
  FanOutCoordinator coord(cfg, 2);
  std::atomic<int> merges{0};
  std::atomic<std::uint64_t> first_sets{0}, last_sets{0};
  const int n = 20;
  for (int r = 0; r < n; ++r) {
    coord.dispatch(
        [](std::size_t) { return std::vector<double>(50, 1.0); },
        [](std::size_t, std::size_t) {
          common::Stopwatch w;
          while (w.elapsed_ms() < 1.0) {
          }
        },
        [&, r](const FanOutResult& res) {
          std::uint64_t sets = 0;
          for (const auto& c : res.components)
            sets += c.job.trace.sets_processed;
          if (r == 0) first_sets = sets;
          if (r == n - 1) last_sets = sets;
          merges++;
        });
  }
  coord.shutdown();
  EXPECT_EQ(merges.load(), n);
  EXPECT_GT(first_sets.load(), last_sets.load());
}

// Parameterized consistency: sets_processed equals the analytic count for
// a grid of deadlines.
class Algorithm1Deadlines : public ::testing::TestWithParam<double> {};

TEST_P(Algorithm1Deadlines, AnalyticSetCount) {
  const double deadline = GetParam();
  Harness h;
  h.correlations = std::vector<double>(1000, 1.0);
  Algorithm1Config cfg;
  cfg.deadline_ms = deadline;
  const auto trace = h.run(cfg);
  // Stage 2 starts a set whenever elapsed < deadline; elapsed before set i
  // is 2 + 10*i.
  std::size_t expect = 0;
  while (expect < 1000 && 2.0 + 10.0 * static_cast<double>(expect) < deadline)
    ++expect;
  EXPECT_EQ(trace.sets_processed, expect) << "deadline " << deadline;
}

INSTANTIATE_TEST_SUITE_P(Grid, Algorithm1Deadlines,
                         ::testing::Values(1.0, 2.0, 2.5, 12.0, 50.0, 102.0,
                                           1000.0));

}  // namespace
}  // namespace at::core
