// Shared fixtures for the experiment-reproduction benchmarks: default
// workload scales, service construction, simulator profiles, and the glue
// that replays simulator outcomes onto the services for accuracy scoring.
//
// Scale note: the paper runs 108 components with 0.27M ratings / 0.5M
// pages each on a 30-node cluster. These benchmarks default to 16
// components with a few hundred data points each so every table/figure
// regenerates in seconds on a laptop; set AT_BENCH_SCALE=large for a
// bigger run. Shapes (who wins, by what order of magnitude, where the
// crossovers fall) are scale-stable; absolute milliseconds are not
// expected to match the paper's testbed.
#pragma once

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/technique.h"
#include "services/recommender/service.h"
#include "services/search/service.h"
#include "sim/arrivals.h"
#include "sim/cluster.h"
#include "workload/corpus.h"
#include "workload/diurnal.h"
#include "workload/ratings.h"

namespace at::bench {

inline bool large_scale() {
  const char* s = std::getenv("AT_BENCH_SCALE");
  return s != nullptr && std::string(s) == "large";
}

/// Upper bound of the thread-count sweeps (ROADMAP scaling curves):
/// nproc, or AT_BENCH_THREADS when set (e.g. to measure oversubscription
/// past the core count).
inline std::size_t sweep_max_threads() {
  std::size_t max_threads =
      std::max(1u, std::thread::hardware_concurrency());
  if (const char* env = std::getenv("AT_BENCH_THREADS")) {
    const long n = std::atol(env);
    if (n >= 1) max_threads = static_cast<std::size_t>(n);
  }
  return max_threads;
}

/// Emits a (threads -> seconds) sweep as a JSON object: {"1": s1, ...}.
inline void write_sweep_json(
    std::ostream& os,
    const std::vector<std::pair<std::size_t, double>>& sweep) {
  os << "{";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << sweep[i].first
       << "\": " << sweep[i].second;
  }
  os << "}";
}

// ---------------------------------------------------------------------------
// Workload scales
// ---------------------------------------------------------------------------

inline workload::RatingConfig default_rating_config() {
  workload::RatingConfig cfg;
  const bool big = large_scale();
  cfg.num_components = big ? 32 : 12;
  cfg.users_per_component = big ? 1500 : 500;
  cfg.num_items = big ? 1000 : 300;
  cfg.num_clusters = big ? 48 : 20;
  cfg.seed = 20160816;  // ICPP'16
  return cfg;
}

inline workload::CorpusConfig default_corpus_config() {
  workload::CorpusConfig cfg;
  const bool big = large_scale();
  cfg.num_components = big ? 32 : 12;
  cfg.docs_per_component = big ? 1200 : 400;
  cfg.vocab_size = big ? 12000 : 4000;
  cfg.num_topics = big ? 64 : 24;
  cfg.topic_vocab = 100;
  cfg.seed = 20160816;
  return cfg;
}

inline synopsis::BuildConfig default_build_config(double ratio) {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 3;             // the paper reduces to 3 dimensions
  cfg.svd.epochs_per_dim = 60;  // (100 in the paper; 60 converges here)
  cfg.size_ratio = ratio;
  return cfg;
}

// ---------------------------------------------------------------------------
// Service construction
// ---------------------------------------------------------------------------

struct CfFixture {
  std::unique_ptr<reco::CfService> service;
  std::vector<reco::CfRequest> requests;
  std::vector<double> actuals;
  std::vector<sim::ComponentProfile> profiles;
};

inline CfFixture make_cf_fixture(double synopsis_ratio = 25.0,
                                 std::size_t active_users = 400,
                                 std::size_t targets_per_user = 2,
                                 const workload::RatingConfig* override_cfg =
                                     nullptr,
                                 const synopsis::BuildConfig* build_override =
                                     nullptr) {
  workload::RatingConfig wcfg =
      override_cfg != nullptr ? *override_cfg : default_rating_config();
  workload::RatingWorkloadGen gen(wcfg);
  auto wl = gen.generate(active_users, targets_per_user);

  CfFixture fx;
  std::vector<reco::RecommenderComponent> comps;
  for (auto& subset : wl.subsets) {
    comps.emplace_back(std::move(subset),
                       build_override != nullptr
                           ? *build_override
                           : default_build_config(synopsis_ratio));
  }
  fx.service =
      std::make_unique<reco::CfService>(std::move(comps), wcfg.min_rating,
                                        wcfg.max_rating);
  fx.requests = std::move(wl.requests);
  fx.actuals = std::move(wl.actuals);
  for (std::size_t c = 0; c < fx.service->num_components(); ++c) {
    sim::ComponentProfile p;
    p.num_points =
        static_cast<std::uint32_t>(fx.service->component(c).num_users());
    p.group_sizes = fx.service->component(c).group_sizes();
    fx.profiles.push_back(std::move(p));
  }
  return fx;
}

struct SearchFixture {
  std::unique_ptr<search::SearchService> service;
  std::vector<search::SearchRequest> queries;
  std::vector<sim::ComponentProfile> profiles;
};

inline SearchFixture make_search_fixture(double synopsis_ratio = 12.0,
                                         std::size_t num_queries = 400) {
  workload::CorpusConfig ccfg = default_corpus_config();
  workload::CorpusGen gen(ccfg);
  auto wl = gen.generate(num_queries);

  SearchFixture fx;
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto n = shard.rows();
    comps.emplace_back(std::move(shard), base,
                       default_build_config(synopsis_ratio));
    base += n;
  }
  fx.service = std::make_unique<search::SearchService>(std::move(comps), 10);
  fx.queries = std::move(wl.queries);
  for (std::size_t c = 0; c < fx.service->num_components(); ++c) {
    sim::ComponentProfile p;
    p.num_points =
        static_cast<std::uint32_t>(fx.service->component(c).num_docs());
    p.group_sizes = fx.service->component(c).group_sizes();
    fx.profiles.push_back(std::move(p));
  }
  return fx;
}

// ---------------------------------------------------------------------------
// Simulator configuration
// ---------------------------------------------------------------------------

/// Service-time calibration. The exact scan of one component's subset is
/// set to ~20 ms, placing exact-processing capacity at ~50 req/s per
/// component: the paper's rate axis (20..100 req/s) then spans the same
/// regimes as its Table 1 — comfortable at 20, queueing-inflated at 40,
/// and progressively deeper overload at 60-100 — while the 100 ms
/// deadline is feasible when idle (paper's 76 ms light-load latency).
inline sim::SimConfig default_sim_config(const CfFixture& fx,
                                         double deadline_ms = 100.0) {
  sim::SimConfig cfg;
  cfg.num_components = fx.profiles.size();
  cfg.num_nodes = std::max<std::size_t>(2, fx.profiles.size() / 4);
  cfg.deadline_ms = deadline_ms;
  const double users = static_cast<double>(fx.profiles[0].num_points);
  cfg.us_per_point = 20.0 * 1e3 / users;
  cfg.synopsis_point_factor = 1.0;
  cfg.session_length_s = 60.0;
  cfg.seed = 99;
  return cfg;
}

inline sim::SimConfig default_sim_config(const SearchFixture& fx,
                                         double deadline_ms = 100.0) {
  sim::SimConfig cfg;
  cfg.num_components = fx.profiles.size();
  cfg.num_nodes = std::max<std::size_t>(2, fx.profiles.size() / 4);
  cfg.deadline_ms = deadline_ms;
  const double docs = static_cast<double>(fx.profiles[0].num_points);
  cfg.us_per_point = 20.0 * 1e3 / docs;
  cfg.synopsis_point_factor = 1.0;
  cfg.session_length_s = 60.0;
  cfg.seed = 99;
  return cfg;
}

/// Applies the paper's search-engine setting for i_max: "process at most
/// the original data points from the top 40% ranked aggregated data
/// points" (§4.3, justified by Fig. 4(b)). Besides skipping sets that
/// cannot improve the top-10, this bounds AccuracyTrader's worst-case
/// per-request work, which is what keeps its queues stable at rates where
/// exhaustive improvement would overload the components.
inline void apply_search_imax(sim::SimConfig& cfg, const SearchFixture& fx) {
  std::size_t max_groups = 0;
  for (const auto& p : fx.profiles)
    max_groups = std::max(max_groups, p.group_sizes.size());
  cfg.imax = std::max<std::size_t>(1, max_groups * 2 / 5);
}

// ---------------------------------------------------------------------------
// Outcome replay: accuracy of a finished simulation
// ---------------------------------------------------------------------------

/// Pairs each sampled simulated request with an evaluation request
/// (round-robin) and returns the CF accuracy summary.
inline reco::CfEvalResult replay_cf_accuracy(const CfFixture& fx,
                                             core::Technique tech,
                                             const sim::SimResult& sim_result,
                                             std::size_t max_requests = 300) {
  std::vector<reco::CfRequest> reqs;
  std::vector<double> actuals;
  std::vector<std::vector<core::ComponentOutcome>> outcomes;
  std::size_t k = 0;
  for (const auto& d : sim_result.details) {
    if (reqs.size() >= max_requests) break;
    reqs.push_back(fx.requests[k % fx.requests.size()]);
    actuals.push_back(fx.actuals[k % fx.actuals.size()]);
    outcomes.push_back(d.outcomes);
    ++k;
  }
  if (reqs.empty()) return {};
  return fx.service->evaluate(
      reqs, actuals, tech,
      [&outcomes](std::size_t r) { return outcomes[r]; });
}

inline search::SearchEvalResult replay_search_accuracy(
    const SearchFixture& fx, core::Technique tech,
    const sim::SimResult& sim_result, std::size_t max_requests = 200) {
  std::vector<search::SearchRequest> reqs;
  std::vector<std::vector<core::ComponentOutcome>> outcomes;
  std::size_t k = 0;
  for (const auto& d : sim_result.details) {
    if (reqs.size() >= max_requests) break;
    reqs.push_back(fx.queries[k % fx.queries.size()]);
    outcomes.push_back(d.outcomes);
    ++k;
  }
  if (reqs.empty()) return {};
  return fx.service->evaluate(
      reqs, tech, [&outcomes](std::size_t r) { return outcomes[r]; });
}

/// How many detail records to keep per run so accuracy replay has enough
/// samples without drowning in memory.
inline std::size_t detail_stride(std::size_t expected_requests,
                                 std::size_t wanted = 400) {
  return std::max<std::size_t>(1, expected_requests / wanted);
}

inline void print_paper_note(const std::string& exp,
                             const std::string& expectation) {
  std::cout << "\n[" << exp << "] paper expectation: " << expectation
            << "\n\n";
}

}  // namespace at::bench
