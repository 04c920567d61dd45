// Algorithm 1 and technique-metadata tests.
#include <gtest/gtest.h>

#include <vector>

#include "core/algorithm1.h"
#include "core/outcome.h"
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
