// End-to-end integration tests: full pipeline (workload generation ->
// synopsis construction -> cluster simulation -> accuracy replay) for both
// services, asserting the paper's qualitative results as properties.
#include <gtest/gtest.h>

#include <unordered_map>

#include "services/recommender/service.h"
#include "services/search/service.h"
#include "sim/arrivals.h"
#include "sim/cluster.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace at {
namespace {

synopsis::BuildConfig build_config(double size_ratio = 12.0) {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 40;
  cfg.size_ratio = size_ratio;
  return cfg;
}

/// Builds outcome lookup from sim details.
template <typename Detail>
std::unordered_map<std::uint64_t, const Detail*> detail_map(
    const std::vector<Detail>& details) {
  std::unordered_map<std::uint64_t, const Detail*> map;
  for (const auto& d : details) map[d.request_id] = &d;
  return map;
}

class CfPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::RatingConfig wcfg;
    wcfg.num_components = 4;
    wcfg.users_per_component = 120;
    wcfg.num_items = 60;
    wcfg.num_clusters = 6;
    wcfg.seed = 99;
    workload::RatingWorkloadGen gen(wcfg);
    workload_ = gen.generate(40, 2);

    std::vector<reco::RecommenderComponent> comps;
    for (auto& subset : workload_.subsets)
      comps.emplace_back(std::move(subset), build_config());
    service_ = std::make_unique<reco::CfService>(std::move(comps), 1.0, 5.0);

    sim::SimConfig scfg;
    scfg.num_components = 4;
    scfg.num_nodes = 2;
    scfg.deadline_ms = 100.0;
    // Exact scan: 120 users * 600us = 72 ms (under the deadline when idle,
    // like the paper's 76 ms light-load latency); capacity ~14 rps, so the
    // 40 rps experiments are deep overload. The synopsis (~10 aggregated
    // users) costs ~6 ms, so AccuracyTrader stays stable at every rate.
    scfg.us_per_point = 600.0;
    scfg.synopsis_point_factor = 1.0;
    scfg.session_length_s = 1e9;
    scfg.interference.enabled = true;
    profiles_.clear();
    for (std::size_t c = 0; c < 4; ++c) {
      sim::ComponentProfile p;
      p.num_points =
          static_cast<std::uint32_t>(service_->component(c).num_users());
      p.group_sizes = service_->component(c).group_sizes();
      profiles_.push_back(std::move(p));
    }
    sim_ = std::make_unique<sim::ClusterSim>(scfg, profiles_);
  }

  /// Runs the sim at `rate` and replays outcomes onto the CF service.
  reco::CfEvalResult eval_technique(core::Technique tech, double rate,
                                    sim::SimResult* sim_out = nullptr) {
    common::Rng rng(1234);
    const auto arrivals = sim::poisson_arrivals(
        rate, 20.0, rng);
    auto result = sim_->run(tech, arrivals);
    const auto map = detail_map(result.details);
    // Round-robin the evaluation request set over the simulated requests.
    std::vector<reco::CfRequest> reqs;
    std::vector<double> actuals;
    std::vector<std::vector<core::ComponentOutcome>> outcomes;
    std::size_t k = 0;
    for (const auto& d : result.details) {
      if (k >= workload_.requests.size()) break;
      reqs.push_back(workload_.requests[k]);
      actuals.push_back(workload_.actuals[k]);
      outcomes.push_back(d.outcomes);
      ++k;
    }
    if (sim_out != nullptr) *sim_out = std::move(result);
    if (reqs.empty()) return {};
    return service_->evaluate(reqs, actuals, tech,
                              [&outcomes](std::size_t r) {
                                return outcomes[r];
                              });
  }

  workload::RatingWorkload workload_;
  std::unique_ptr<reco::CfService> service_;
  std::vector<sim::ComponentProfile> profiles_;
  std::unique_ptr<sim::ClusterSim> sim_;
};

TEST_F(CfPipeline, Table1Shape_AccuracyTraderBoundsTailUnderOverload) {
  // The AT tail stays within a small multiple of the deadline (the paper
  // reports "slightly longer than the required 100ms"; our overshoot is
  // larger because 4 components mean coarse 30-user sets and the last set
  // started before the deadline may run under an interference slowdown),
  // while Basic's queues grow without bound.
  sim::SimResult at_sim, basic_sim;
  eval_technique(core::Technique::kAccuracyTrader, 40.0, &at_sim);
  eval_technique(core::Technique::kBasic, 40.0, &basic_sim);
  EXPECT_LT(at_sim.p999_component_ms(), 800.0);
  EXPECT_GT(basic_sim.p999_component_ms(), 20.0 * at_sim.p999_component_ms());
}

TEST_F(CfPipeline, Table2Shape_AccuracyTraderLossSmallerThanPartial) {
  const auto partial =
      eval_technique(core::Technique::kPartialExecution, 40.0);
  const auto at = eval_technique(core::Technique::kAccuracyTrader, 40.0);
  ASSERT_GT(partial.requests, 0u);
  ASSERT_GT(at.requests, 0u);
  EXPECT_LT(at.loss_pct, partial.loss_pct);
  EXPECT_LT(at.loss_pct, 25.0);  // small losses even when overloaded
}

TEST_F(CfPipeline, LightLoadLossesAreSmallForBoth) {
  // Note the scale difference vs. the paper: dropping one straggling
  // component here discards 25% of the corpus (4 components) instead of
  // ~1% (108 components), so partial execution's light-load loss is
  // proportionally larger than the paper's 0.26%.
  const auto partial =
      eval_technique(core::Technique::kPartialExecution, 1.0);
  const auto at = eval_technique(core::Technique::kAccuracyTrader, 1.0);
  EXPECT_LT(partial.loss_pct, 30.0);
  EXPECT_LT(at.loss_pct, 15.0);
}

TEST_F(CfPipeline, ReissueHelpsOnlyAtLightLoad) {
  sim::SimResult light_reissue, light_basic, heavy_reissue, heavy_at;
  eval_technique(core::Technique::kRequestReissue, 1.0, &light_reissue);
  eval_technique(core::Technique::kBasic, 1.0, &light_basic);
  eval_technique(core::Technique::kRequestReissue, 40.0, &heavy_reissue);
  eval_technique(core::Technique::kAccuracyTrader, 40.0, &heavy_at);
  // Light load: reissue comparable to basic (within 2x).
  EXPECT_LT(light_reissue.p999_component_ms(),
            2.0 * light_basic.p999_component_ms() + 10.0);
  // Heavy load: reissue queues explode; AccuracyTrader stays bounded.
  EXPECT_GT(heavy_reissue.p999_component_ms(),
            5.0 * heavy_at.p999_component_ms());
}

class SearchPipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CorpusConfig ccfg;
    ccfg.num_components = 4;
    ccfg.docs_per_component = 150;
    ccfg.vocab_size = 600;
    ccfg.num_topics = 10;
    ccfg.topic_vocab = 50;
    ccfg.seed = 77;
    workload::CorpusGen gen(ccfg);
    auto wl = gen.generate(40);
    queries_ = std::move(wl.queries);

    std::vector<search::SearchComponent> comps;
    std::uint64_t base = 0;
    for (auto& shard : wl.shards) {
      const auto n = shard.rows();
      // Finer groups for search: more, cheaper ranked sets fit the
      // deadline, mirroring the paper's small (42.55-page) groups.
      comps.emplace_back(std::move(shard), base, build_config(6.0));
      base += n;
    }
    service_ =
        std::make_unique<search::SearchService>(std::move(comps), 10);

    sim::SimConfig scfg;
    scfg.num_components = 4;
    scfg.num_nodes = 2;
    scfg.deadline_ms = 100.0;
    scfg.us_per_point = 500.0;  // exact = 75ms; synopsis ~6.5ms
    scfg.synopsis_point_factor = 1.0;
    scfg.session_length_s = 1e9;
    scfg.interference.enabled = true;
    std::vector<sim::ComponentProfile> profiles;
    for (std::size_t c = 0; c < 4; ++c) {
      sim::ComponentProfile p;
      p.num_points =
          static_cast<std::uint32_t>(service_->component(c).num_docs());
      p.group_sizes = service_->component(c).group_sizes();
      profiles.push_back(std::move(p));
    }
    sim_ = std::make_unique<sim::ClusterSim>(scfg, std::move(profiles));
  }

  search::SearchEvalResult eval_technique(core::Technique tech, double rate,
                                          sim::SimResult* sim_out = nullptr) {
    common::Rng rng(4321);
    const auto arrivals = sim::poisson_arrivals(rate, 20.0, rng);
    auto result = sim_->run(tech, arrivals);
    std::vector<search::SearchRequest> reqs;
    std::vector<std::vector<core::ComponentOutcome>> outcomes;
    std::size_t k = 0;
    for (const auto& d : result.details) {
      if (k >= queries_.size()) break;
      reqs.push_back(queries_[k]);
      outcomes.push_back(d.outcomes);
      ++k;
    }
    if (sim_out != nullptr) *sim_out = std::move(result);
    if (reqs.empty()) return {};
    return service_->evaluate(reqs, tech, [&outcomes](std::size_t r) {
      return outcomes[r];
    });
  }

  std::vector<search::SearchRequest> queries_;
  std::unique_ptr<search::SearchService> service_;
  std::unique_ptr<sim::ClusterSim> sim_;
};

TEST_F(SearchPipeline, Fig5Shape_TailOrderingUnderHeavyLoad) {
  sim::SimResult at, basic, reissue;
  eval_technique(core::Technique::kAccuracyTrader, 40.0, &at);
  eval_technique(core::Technique::kBasic, 40.0, &basic);
  eval_technique(core::Technique::kRequestReissue, 40.0, &reissue);
  EXPECT_GT(basic.p999_component_ms(), reissue.p999_component_ms() * 0.8);
  EXPECT_GT(reissue.p999_component_ms(), at.p999_component_ms() * 2.0);
  EXPECT_LT(at.p999_component_ms(), 800.0);
}

TEST_F(SearchPipeline, Fig6Shape_AccuracyOrderingUnderHeavyLoad) {
  const auto partial =
      eval_technique(core::Technique::kPartialExecution, 40.0);
  const auto at = eval_technique(core::Technique::kAccuracyTrader, 40.0);
  ASSERT_GT(partial.requests, 0u);
  EXPECT_GT(at.accuracy, partial.accuracy);
  EXPECT_LT(at.loss_pct, 60.0);
}

TEST_F(SearchPipeline, AccuracyLossGrowsWithLoadButStaysModest) {
  const auto light = eval_technique(core::Technique::kAccuracyTrader, 2.0);
  const auto heavy = eval_technique(core::Technique::kAccuracyTrader, 40.0);
  EXPECT_LE(light.loss_pct, heavy.loss_pct + 5.0);
  EXPECT_LT(light.loss_pct, 15.0);
  EXPECT_LT(heavy.loss_pct, 60.0);
}

TEST_F(SearchPipeline, PartialCollapsesUnderOverload) {
  const auto heavy =
      eval_technique(core::Technique::kPartialExecution, 40.0);
  EXPECT_GT(heavy.loss_pct, 50.0);
}

}  // namespace
}  // namespace at
