// Topology-aware sharded execution layer tests: AT_TOPOLOGY parsing and
// discovery, ShardedExecutor dispatch (home groups, nested fan-out,
// exception propagation), sharded service fan-out parity, and the
// deterministic concurrency stress suite that hammers ShardedExecutor +
// ScoreAccumulator epochs (including the epoch-stamp wrap path) under
// simulated 1/2/4-node layouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sharded_executor.h"
#include "common/thread_pool.h"
#include "common/topology.h"
#include "services/recommender/service.h"
#include "services/search/service.h"
#include "synopsis/builder.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace at {
namespace {

using common::ShardedExecutor;
using common::Topology;

// ---------------------------------------------------------------------------
// Topology parsing / discovery
// ---------------------------------------------------------------------------

TEST(Cpulist, ParsesIdsRangesAndDuplicates) {
  std::vector<int> cpus;
  ASSERT_TRUE(common::parse_cpulist("0-3,8,10-11", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  ASSERT_TRUE(common::parse_cpulist("5", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{5}));
  ASSERT_TRUE(common::parse_cpulist("3,1,3,2", &cpus));
  EXPECT_EQ(cpus, (std::vector<int>{1, 2, 3}));  // sorted, deduped
}

TEST(Cpulist, RejectsMalformedSpecs) {
  std::vector<int> cpus;
  EXPECT_FALSE(common::parse_cpulist("", &cpus));
  EXPECT_FALSE(common::parse_cpulist("a", &cpus));
  EXPECT_FALSE(common::parse_cpulist("1-", &cpus));
  EXPECT_FALSE(common::parse_cpulist("3-1", &cpus));
  EXPECT_FALSE(common::parse_cpulist("1,,2", &cpus));
  EXPECT_FALSE(common::parse_cpulist("1,2,", &cpus));
  EXPECT_FALSE(common::parse_cpulist("1;2", &cpus));
}

TEST(TopologyParse, SimulatedNodeCounts) {
  const std::vector<int> cpus{0, 1, 2, 3};
  Topology topo;
  ASSERT_TRUE(common::parse_topology("2", cpus, &topo));
  EXPECT_TRUE(topo.simulated);
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_EQ(topo.node_cpus[0], (std::vector<int>{0, 2}));  // round-robin deal
  EXPECT_EQ(topo.node_cpus[1], (std::vector<int>{1, 3}));
  EXPECT_EQ(topo.total_cpus(), 4u);
}

TEST(TopologyParse, MoreNodesThanCpusReusesCpus) {
  Topology topo;
  ASSERT_TRUE(common::parse_topology("4", {7}, &topo));
  ASSERT_EQ(topo.num_nodes(), 4u);
  for (const auto& node : topo.node_cpus) {
    EXPECT_EQ(node, std::vector<int>{7});  // never an empty node
  }
}

TEST(TopologyParse, FlatAndAuto) {
  const std::vector<int> cpus{0, 1, 2};
  Topology topo;
  ASSERT_TRUE(common::parse_topology("flat", cpus, &topo));
  ASSERT_EQ(topo.num_nodes(), 1u);
  EXPECT_EQ(topo.node_cpus[0], cpus);
  ASSERT_TRUE(common::parse_topology("auto", cpus, &topo));
  EXPECT_FALSE(topo.simulated);
  EXPECT_GE(topo.num_nodes(), 1u);
}

TEST(TopologyParse, ExplicitNodeLists) {
  Topology topo;
  ASSERT_TRUE(common::parse_topology("0-1;2-3;8", {0}, &topo));
  ASSERT_EQ(topo.num_nodes(), 3u);
  EXPECT_EQ(topo.node_cpus[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.node_cpus[1], (std::vector<int>{2, 3}));
  EXPECT_EQ(topo.node_cpus[2], (std::vector<int>{8}));
}

TEST(TopologyParse, RejectsBadSpecs) {
  Topology topo;
  EXPECT_FALSE(common::parse_topology(nullptr, {0}, &topo));
  EXPECT_FALSE(common::parse_topology("", {0}, &topo));
  EXPECT_FALSE(common::parse_topology("0", {0}, &topo));
  EXPECT_FALSE(common::parse_topology("numa", {0}, &topo));
  EXPECT_FALSE(common::parse_topology("0-1;;2", {0}, &topo));
  EXPECT_FALSE(common::parse_topology("0-1;", {0}, &topo));
}

TEST(TopologyDiscover, PhysicalTopologyIsSane) {
  const Topology topo = common::physical_topology();
  ASSERT_GE(topo.num_nodes(), 1u);
  std::set<int> seen;
  for (const auto& node : topo.node_cpus) {
    ASSERT_FALSE(node.empty());
    EXPECT_TRUE(std::is_sorted(node.begin(), node.end()));
    for (int c : node) EXPECT_TRUE(seen.insert(c).second)
        << "cpu " << c << " appears in two physical nodes";
  }
  // Every schedulable CPU that sysfs attributes to a node must appear.
  EXPECT_GE(topo.total_cpus(), 1u);
  EXPECT_LE(topo.total_cpus(), common::schedulable_cpus().size());
}

TEST(TopologyDiscover, ActiveTopologyHonorsEnvOverride) {
  const Topology& active = common::active_topology();
  ASSERT_GE(active.num_nodes(), 1u);
  if (const char* spec = std::getenv("AT_TOPOLOGY")) {
    Topology expect;
    if (common::parse_topology(spec, common::schedulable_cpus(), &expect)) {
      EXPECT_EQ(active.num_nodes(), expect.num_nodes());
      EXPECT_EQ(active.node_cpus, expect.node_cpus);
    }
  }
  EXPECT_FALSE(active.describe().empty());
}

TEST(TopologyDescribe, CollapsesRanges) {
  Topology topo;
  topo.node_cpus = {{0, 1, 2, 5}, {7}};
  topo.simulated = true;
  EXPECT_EQ(topo.describe(), "2 nodes (simulated): [0-2,5] [7]");
}

// ---------------------------------------------------------------------------
// ShardedExecutor dispatch
// ---------------------------------------------------------------------------

TEST(ShardedExecutorTest, BuildsOneGroupPerNode) {
  ShardedExecutor exec(common::simulated_topology(3, {0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(exec.num_groups(), 3u);
  for (std::size_t g = 0; g < 3; ++g) EXPECT_EQ(exec.group_size(g), 2u);
  EXPECT_EQ(exec.total_workers(), 6u);
  EXPECT_EQ(exec.home_group(0), 0u);
  EXPECT_EQ(exec.home_group(4), 1u);
}

TEST(ShardedExecutorTest, RejectsEmptyTopology) {
  Topology empty;
  EXPECT_THROW(ShardedExecutor{empty}, std::invalid_argument);
}

TEST(ShardedExecutorTest, ShardsRunOnTheirHomeGroup) {
  for (std::size_t nodes : {1u, 2u, 4u}) {
    ShardedExecutor exec(common::simulated_topology(nodes));
    // Fewer, as many and more shards than groups, through both dispatchers.
    for (std::size_t n : {1u, 3u, 4u, 23u}) {
      for (bool grouped : {false, true}) {
        std::vector<std::size_t> ran_on(n, ShardedExecutor::kNoGroup);
        std::vector<std::atomic<int>> runs(n);
        const auto fn = [&](std::size_t s) {
          ran_on[s] = ShardedExecutor::current_group();
          runs[s].fetch_add(1, std::memory_order_relaxed);
        };
        if (grouped) {
          exec.for_each_shard_grouped(n, fn);
        } else {
          exec.for_each_shard(n, fn);
        }
        for (std::size_t s = 0; s < n; ++s) {
          EXPECT_EQ(runs[s].load(), 1)
              << "grouped=" << grouped << ", " << nodes << " nodes, shard "
              << s << " of " << n;
          EXPECT_EQ(ran_on[s], exec.home_group(s))
              << "grouped=" << grouped << ", " << nodes << " nodes, shard "
              << s << " of " << n;
        }
      }
    }
  }
  // Off-executor threads carry no group label.
  EXPECT_EQ(ShardedExecutor::current_group(), ShardedExecutor::kNoGroup);
}

TEST(ShardedExecutorTest, PropagatesShardExceptions) {
  ShardedExecutor exec(common::simulated_topology(2));
  std::atomic<int> completed{0};
  try {
    exec.for_each_shard(8, [&](std::size_t s) {
      if (s == 3) throw std::runtime_error("boom");
      completed.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(completed.load(), 7);  // siblings all still ran
}

// The regression the help-while-waiting parallel_for exists for: a task
// running ON a one-worker group fans out on that same group. Without
// helping, the worker would block forever on work queued behind itself.
TEST(ThreadPoolNesting, NestedParallelForOnOneWorkerPoolCompletes) {
  common::ThreadPool pool(1);
  std::atomic<int> inner{0};
  pool.submit([&] {
        pool.parallel_for(5, [&](std::size_t) { inner.fetch_add(1); });
      })
      .get();
  EXPECT_EQ(inner.load(), 5);
}

TEST(ThreadPoolNesting, DeepNestingAcrossGroupsCompletes) {
  ShardedExecutor exec(common::simulated_topology(2));
  std::atomic<int> leaf{0};
  exec.for_each_shard(exec.num_groups(), [&](std::size_t g) {
    exec.group(g).parallel_for(4, [&](std::size_t) {
      exec.group(g).parallel_for(3, [&](std::size_t) { leaf.fetch_add(1); });
    });
  });
  EXPECT_EQ(leaf.load(), 2 * 4 * 3);
}

TEST(ThreadPoolPinned, PinnedConstructorRunsTasks) {
  // Pinning itself is best effort; what must hold is one worker per entry
  // and normal task execution.
  common::ThreadPool pool(std::vector<int>{0, 0, 0});
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> n{0};
  pool.parallel_for(100, [&](std::size_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
}

// ---------------------------------------------------------------------------
// Sharded service fan-out parity
// ---------------------------------------------------------------------------

synopsis::BuildConfig service_build_config() {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 30;
  cfg.size_ratio = 10.0;
  return cfg;
}

void expect_same_docs(const std::vector<search::ScoredDoc>& a,
                      const std::vector<search::ScoredDoc>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc) << "rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;
  }
}

TEST(ShardedFanout, SearchTopkBitIdenticalAcrossLayouts) {
  workload::CorpusConfig cfg;
  cfg.num_components = 5;
  cfg.docs_per_component = 80;
  cfg.vocab_size = 400;
  cfg.num_topics = 6;
  cfg.topic_vocab = 40;
  cfg.seed = 31;
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(30);
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto docs = shard.rows();
    comps.emplace_back(std::move(shard), base, service_build_config());
    base += docs;
  }
  search::SearchService service(std::move(comps), 10);

  // Sequential reference.
  std::vector<std::vector<search::ScoredDoc>> reference;
  for (const auto& q : wl.queries) reference.push_back(service.exact_topk(q));

  const std::vector<core::ComponentOutcome> outcomes(
      service.num_components(), core::ComponentOutcome{true, 2});

  for (std::size_t nodes : {1u, 2u, 4u}) {
    ShardedExecutor exec(common::simulated_topology(nodes));
    service.set_executor(&exec);
    for (std::size_t i = 0; i < wl.queries.size(); ++i) {
      expect_same_docs(service.exact_topk(wl.queries[i]), reference[i]);
      // The live server's sequential scan answers the same on every layout.
      expect_same_docs(service.exact_topk_partial(wl.queries[i], nullptr),
                       reference[i]);
      // Techniques fan out through the same dispatch; spot-check a few.
      if (i < 5) {
        const auto seq = service.retrieve(
            wl.queries[i], core::Technique::kAccuracyTrader, outcomes);
        service.set_executor(nullptr);
        const auto ref = service.retrieve(
            wl.queries[i], core::Technique::kAccuracyTrader, outcomes);
        service.set_executor(&exec);
        expect_same_docs(seq, ref);
      }
    }
    service.set_executor(nullptr);
  }
}

TEST(ShardedFanout, SearchUpdateOnHomeGroupKeepsServing) {
  workload::CorpusConfig cfg;
  cfg.num_components = 3;
  cfg.docs_per_component = 60;
  cfg.vocab_size = 300;
  cfg.num_topics = 5;
  cfg.topic_vocab = 30;
  cfg.seed = 33;
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(10);
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto docs = shard.rows();
    comps.emplace_back(std::move(shard), base, service_build_config());
    base += docs;
  }
  search::SearchService service(std::move(comps), 10);
  ShardedExecutor exec(common::simulated_topology(2));
  service.set_executor(&exec);

  common::Rng rng(7);
  synopsis::UpdateBatch batch;
  for (int i = 0; i < 5; ++i) batch.added.push_back(gen.sample_doc(rng));
  const auto before = service.component(1).num_docs();
  const auto report = service.update_component(1, batch);
  EXPECT_EQ(report.points_added, 5u);
  EXPECT_EQ(service.component(1).num_docs(), before + 5);
  for (const auto& q : wl.queries) {
    const auto sharded = service.exact_topk(q);
    service.set_executor(nullptr);
    expect_same_docs(sharded, service.exact_topk(q));
    service.set_executor(&exec);
  }
}

TEST(ShardedFanout, CfUpdateOnHomeGroupKeepsPredicting) {
  workload::RatingConfig cfg;
  cfg.num_components = 3;
  cfg.users_per_component = 50;
  cfg.num_items = 40;
  cfg.num_clusters = 4;
  cfg.seed = 41;
  workload::RatingWorkloadGen gen(cfg);
  auto wl = gen.generate(10, 2);
  std::vector<reco::RecommenderComponent> comps;
  for (auto& subset : wl.subsets)
    comps.emplace_back(std::move(subset), service_build_config());
  reco::CfService service(std::move(comps), cfg.min_rating, cfg.max_rating);
  ShardedExecutor exec(common::simulated_topology(2));
  service.set_executor(&exec);

  common::Rng rng(5);
  synopsis::UpdateBatch batch;
  for (int i = 0; i < 4; ++i) batch.added.push_back(gen.sample_user(rng));
  const auto before = service.component(2).num_users();
  const auto report = service.update_component(2, batch);
  EXPECT_EQ(report.points_added, 4u);
  EXPECT_EQ(service.component(2).num_users(), before + 4);
  for (const auto& r : wl.requests) {
    const double sharded = service.predict_exact(r);
    service.set_executor(nullptr);
    EXPECT_EQ(sharded, service.predict_exact(r));
    service.set_executor(&exec);
  }
}

TEST(ShardedFanout, CfPredictionsBitIdenticalAcrossLayouts) {
  workload::RatingConfig cfg;
  cfg.num_components = 5;
  cfg.users_per_component = 60;
  cfg.num_items = 50;
  cfg.num_clusters = 5;
  cfg.seed = 37;
  workload::RatingWorkloadGen gen(cfg);
  auto wl = gen.generate(30, 2);
  std::vector<reco::RecommenderComponent> comps;
  for (auto& subset : wl.subsets)
    comps.emplace_back(std::move(subset), service_build_config());
  reco::CfService service(std::move(comps), cfg.min_rating, cfg.max_rating);

  std::vector<double> reference;
  for (const auto& r : wl.requests) reference.push_back(service.predict_exact(r));

  const std::vector<core::ComponentOutcome> outcomes(
      service.num_components(), core::ComponentOutcome{true, 1});
  std::vector<double> reference_at;
  for (const auto& r : wl.requests) {
    reference_at.push_back(
        service.predict(r, core::Technique::kAccuracyTrader, outcomes));
  }

  for (std::size_t nodes : {1u, 2u, 4u}) {
    ShardedExecutor exec(common::simulated_topology(nodes));
    service.set_executor(&exec);
    for (std::size_t i = 0; i < wl.requests.size(); ++i) {
      EXPECT_EQ(service.predict_exact(wl.requests[i]), reference[i]);
      EXPECT_EQ(service.predict(wl.requests[i],
                                core::Technique::kAccuracyTrader, outcomes),
                reference_at[i]);
    }
    service.set_executor(nullptr);
  }
}

// ---------------------------------------------------------------------------
// Deterministic concurrency stress: ShardedExecutor + ScoreAccumulator
// ---------------------------------------------------------------------------

/// One synthetic query's accumulator workload, derived deterministically
/// from (seed, qid): a fresh-epoch bulk batch (unique docs — the postings
/// first-term contract) followed by 1..3 stamped terms whose docs may
/// repeat.
struct StressQuery {
  std::size_t num_docs;
  std::vector<std::uint32_t> fresh_docs;
  std::vector<double> fresh_scores;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> terms;
};

StressQuery make_stress_query(std::uint64_t seed, std::uint64_t qid) {
  common::Rng rng(seed ^ (qid * 0x9e3779b97f4a7c15ULL));
  StressQuery q;
  q.num_docs = 64 + rng.uniform_index(192);
  // Unique fresh docs: partial Fisher-Yates over [0, num_docs).
  std::vector<std::uint32_t> perm(q.num_docs);
  std::iota(perm.begin(), perm.end(), 0u);
  const std::size_t fresh = 1 + rng.uniform_index(q.num_docs / 2);
  for (std::size_t i = 0; i < fresh; ++i) {
    const std::size_t j = i + rng.uniform_index(q.num_docs - i);
    std::swap(perm[i], perm[j]);
    q.fresh_docs.push_back(perm[i]);
    q.fresh_scores.push_back(rng.uniform(0.0, 8.0));
  }
  const std::size_t terms = 1 + rng.uniform_index(3);
  q.terms.resize(terms);
  for (auto& term : q.terms) {
    const std::size_t n = 1 + rng.uniform_index(48);
    for (std::size_t i = 0; i < n; ++i) {
      term.emplace_back(
          static_cast<std::uint32_t>(rng.uniform_index(q.num_docs)),
          rng.uniform(0.0, 4.0));
    }
  }
  return q;
}

/// Runs one query through `acc` and snapshots (touched order, scores).
std::vector<std::pair<std::uint32_t, double>> run_stress_query(
    search::ScoreAccumulator& acc, const StressQuery& q) {
  acc.begin(q.num_docs);
  acc.bulk_add_fresh(q.fresh_docs.data(), q.fresh_scores.data(),
                     q.fresh_docs.size());
  for (const auto& term : q.terms) {
    for (const auto& [doc, score] : term) acc.add(doc, score);
  }
  std::vector<std::pair<std::uint32_t, double>> out;
  out.reserve(acc.touched().size());
  for (auto doc : acc.touched()) out.emplace_back(doc, acc.score(doc));
  return out;
}

TEST(ConcurrencyStress, AccumulatorEpochsBitIdenticalUnderAllLayouts) {
  constexpr std::uint64_t kSeed = 20260729;
  constexpr std::size_t kQueries = 240;
  constexpr std::size_t kRounds = 3;

  // Reference: every query on a fresh accumulator, single-threaded. A
  // query's result must depend on its ops alone, so every reuse pattern
  // below has to reproduce these bits exactly.
  std::vector<StressQuery> queries;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> reference;
  for (std::uint64_t qid = 0; qid < kQueries; ++qid) {
    queries.push_back(make_stress_query(kSeed, qid));
    search::ScoreAccumulator fresh;
    reference.push_back(run_stress_query(fresh, queries.back()));
  }

  for (std::size_t nodes : {1u, 2u, 4u}) {
    ShardedExecutor exec(common::simulated_topology(nodes, {0, 0, 1, 1}));
    const std::size_t shards = exec.total_workers() * 2;
    // Shard-local accumulators persist across rounds (epoch reuse) —
    // exactly the per-shard accumulator ownership of the sharded services.
    std::vector<search::ScoreAccumulator> accs(shards);
    std::atomic<std::size_t> failures{0};
    for (std::size_t round = 0; round < kRounds; ++round) {
      exec.for_each_shard(shards, [&](std::size_t s) {
        search::ScoreAccumulator& acc = accs[s];
        for (std::size_t qid = s; qid < kQueries; qid += shards) {
          // Exercise the epoch-stamp wrap path from several distances.
          if (qid % 37 == s % 3) {
            acc.set_epoch_for_test(
                ~std::uint32_t{0} - static_cast<std::uint32_t>(qid % 3));
          }
          const auto got = run_stress_query(acc, queries[qid]);
          if (got != reference[qid]) failures.fetch_add(1);
        }
      });
    }
    EXPECT_EQ(failures.load(), 0u) << nodes << "-node layout";
  }
}

// Hammer the same executor from several client threads at once (the
// multi-user serving pattern): dispatch remains correct and shard-local
// accumulator state never leaks across shards.
TEST(ConcurrencyStress, ConcurrentClientsShareOneExecutor) {
  constexpr std::uint64_t kSeed = 424242;
  constexpr std::size_t kQueries = 60;
  std::vector<StressQuery> queries;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> reference;
  for (std::uint64_t qid = 0; qid < kQueries; ++qid) {
    queries.push_back(make_stress_query(kSeed, qid));
    search::ScoreAccumulator fresh;
    reference.push_back(run_stress_query(fresh, queries.back()));
  }

  ShardedExecutor exec(common::simulated_topology(2, {0, 0, 0, 0}));
  std::atomic<std::size_t> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      const std::size_t shards = 4;
      std::vector<search::ScoreAccumulator> accs(shards);
      for (int round = 0; round < 3; ++round) {
        exec.for_each_shard(shards, [&](std::size_t s) {
          for (std::size_t qid = (s + t) % shards; qid < kQueries;
               qid += shards) {
            const auto got = run_stress_query(accs[s], queries[qid]);
            if (got != reference[qid]) failures.fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0u);
}

}  // namespace
}  // namespace at
