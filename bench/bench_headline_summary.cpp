// §4.3 "Results" — the paper's headline claims, reproduced in one table:
//
//  * vs request reissue: 133.38x (CF) and 42.72x (search) reductions in
//    the 99.9th-percentile component latency, at accuracy losses of 1.97%
//    and 6.31%;
//  * vs partial execution at the same service latency: 15.12x (CF) and
//    13.85x (search) reductions in accuracy loss.
//
// Methodology mirrors the paper: CF uses the five synthetic rates of
// Tables 1-2; search uses the 24-hour diurnal workload; ratios are averaged
// across rates/hours.
#include <cmath>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include "bench/bench_common.h"
#include "common/artifact.h"
#include "workload/diurnal.h"

namespace at::bench {
namespace {

struct ServiceSummary {
  double latency_reduction_vs_reissue = 0.0;
  double at_loss_pct = 0.0;
  double loss_reduction_vs_partial = 0.0;
  search::IndexSizeStats index_size;  // search service only
  /// Total component-snapshot artifact bytes per value codec (the state a
  /// builder ships to serving components).
  std::size_t snapshot_bytes[std::size(common::kAllCodecs)] = {};
};

/// Sums the per-codec artifact sizes of every component snapshot.
template <typename Service>
void measure_snapshots(const Service& service, ServiceSummary& s) {
  for (common::Codec codec : common::kAllCodecs) {
    std::size_t total = 0;
    for (std::size_t c = 0; c < service.num_components(); ++c) {
      std::ostringstream os;
      service.component(c).save(os, codec);
      total += os.str().size();
    }
    s.snapshot_bytes[static_cast<std::size_t>(codec)] = total;
  }
}

ServiceSummary run_cf() {
  auto fx = make_cf_fixture(25.0, 250, 2);
  ServiceSummary sizes;
  measure_snapshots(*fx.service, sizes);
  auto scfg = default_sim_config(fx);
  const double duration_s = large_scale() ? 90.0 : 30.0;
  double reissue_sum = 0.0, at_sum = 0.0, partial_loss = 0.0, at_loss = 0.0;
  int samples = 0;
  for (double rate : {20.0, 40.0, 60.0, 80.0, 100.0}) {
    common::Rng rng(777 + static_cast<std::uint64_t>(rate));
    const auto arrivals = sim::poisson_arrivals(rate, duration_s, rng);
    auto cfg = scfg;
    cfg.detail_every = detail_stride(arrivals.size());
    sim::ClusterSim sim(cfg, fx.profiles);
    const auto reissue = sim.run(core::Technique::kRequestReissue, arrivals);
    const auto at = sim.run(core::Technique::kAccuracyTrader, arrivals);
    const auto partial =
        sim.run(core::Technique::kPartialExecution, arrivals);
    reissue_sum += reissue.p999_component_ms();
    at_sum += at.p999_component_ms();
    partial_loss += replay_cf_accuracy(fx, core::Technique::kPartialExecution,
                                       partial, 150)
                        .loss_pct;
    at_loss +=
        replay_cf_accuracy(fx, core::Technique::kAccuracyTrader, at, 150)
            .loss_pct;
    ++samples;
  }
  ServiceSummary s = sizes;
  s.latency_reduction_vs_reissue = reissue_sum / at_sum;
  s.at_loss_pct = at_loss / samples;
  s.loss_reduction_vs_partial =
      at_loss > 0.0 ? partial_loss / at_loss : 0.0;
  return s;
}

ServiceSummary run_search() {
  auto fx = make_search_fixture(12.0, 250);
  ServiceSummary sizes;  // captured up front; the sim loop reuses fx
  sizes.index_size = fx.service->index_size();
  measure_snapshots(*fx.service, sizes);
  auto scfg = default_sim_config(fx);
  apply_search_imax(scfg, fx);
  scfg.session_length_s = 1e9;
  const workload::DiurnalProfile profile(100.0);
  const double hour_s = large_scale() ? 240.0 : 60.0;
  double reissue_sum = 0.0, at_sum = 0.0, partial_loss = 0.0, at_loss = 0.0;
  int samples = 0;
  for (std::size_t hour = 1; hour <= 24; hour += large_scale() ? 1 : 3) {
    common::Rng rng(9000 + hour);
    const auto arrivals = sim::nhpp_arrivals(
        [&](double t) {
          return profile.rate_in_hour(hour, t / hour_s * 3600.0);
        },
        profile.peak_rate(), hour_s, rng);
    auto cfg = scfg;
    cfg.detail_every = detail_stride(arrivals.size(), 120);
    sim::ClusterSim sim(cfg, fx.profiles);
    const auto reissue = sim.run(core::Technique::kRequestReissue, arrivals);
    const auto at = sim.run(core::Technique::kAccuracyTrader, arrivals);
    const auto partial =
        sim.run(core::Technique::kPartialExecution, arrivals);
    reissue_sum += reissue.p999_component_ms();
    at_sum += at.p999_component_ms();
    partial_loss += replay_search_accuracy(
                        fx, core::Technique::kPartialExecution, partial, 100)
                        .loss_pct;
    at_loss += replay_search_accuracy(fx, core::Technique::kAccuracyTrader,
                                      at, 100)
                   .loss_pct;
    ++samples;
  }
  ServiceSummary s = sizes;
  s.latency_reduction_vs_reissue = reissue_sum / at_sum;
  s.at_loss_pct = at_loss / samples;
  s.loss_reduction_vs_partial =
      at_loss > 0.0 ? partial_loss / at_loss : 0.0;
  return s;
}

/// Machine-readable record of the headline numbers so later PRs can diff
/// the perf/accuracy trajectory. Path override: AT_BENCH_JSON.
void write_json(const ServiceSummary& cf, const ServiceSummary& se) {
  const char* path_env = std::getenv("AT_BENCH_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_headline.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: could not write " << path << "\n";
    return;
  }
  auto service = [&](const char* name, const ServiceSummary& s,
                     bool last) {
    os << "  \"" << name << "\": {\n"
       << "    \"p999_latency_reduction_vs_reissue\": "
       << s.latency_reduction_vs_reissue << ",\n"
       << "    \"accuracy_trader_loss_pct\": " << s.at_loss_pct << ",\n"
       << "    \"loss_reduction_vs_partial\": " << s.loss_reduction_vs_partial;
    if (s.index_size.postings > 0) {
      os << ",\n    \"index_raw_bytes\": " << s.index_size.raw_bytes
         << ",\n    \"index_compressed_bytes\": "
         << s.index_size.compressed_bytes
         << ",\n    \"index_size_ratio\": " << s.index_size.ratio();
    }
    const auto raw =
        s.snapshot_bytes[static_cast<std::size_t>(common::Codec::kRaw)];
    os << ",\n    \"snapshot_raw_bytes\": " << raw
       << ",\n    \"snapshot_shuffle_bytes\": "
       << s.snapshot_bytes[static_cast<std::size_t>(common::Codec::kShuffle)];
    os << "\n  }" << (last ? "\n" : ",\n");
  };
  os << "{\n  \"bench\": \"bench_headline_summary\",\n"
     << "  \"scale\": \"" << (large_scale() ? "large" : "small") << "\",\n";
  service("cf_recommender", cf, false);
  service("web_search", se, true);
  os << "}\n";
  std::cout << "  wrote " << path << "\n";
}

}  // namespace
}  // namespace at::bench

int main() {
  using namespace at;
  using namespace at::bench;

  print_paper_note(
      "§4.3 Results (headline claims)",
      "latency reduction vs reissue 133.38x (CF) / 42.72x (search) at "
      "losses 1.97% / 6.31%; loss reduction vs partial execution at equal "
      "latency 15.12x (CF) / 13.85x (search). Claimed bounds: >40x and "
      ">13x respectively.");

  common::TableWriter table("Headline summary — this reproduction");
  table.set_columns({"service", "p99.9 reduction vs reissue",
                     "AccuracyTrader loss (%)",
                     "loss reduction vs partial execution"});
  const auto cf = run_cf();
  table.add_row(
      {"CF recommender",
       common::TableWriter::fmt(cf.latency_reduction_vs_reissue, 1) + "x",
       common::TableWriter::fmt(cf.at_loss_pct, 2),
       common::TableWriter::fmt(cf.loss_reduction_vs_partial, 1) + "x"});
  const auto se = run_search();
  table.add_row(
      {"web search",
       common::TableWriter::fmt(se.latency_reduction_vs_reissue, 1) + "x",
       common::TableWriter::fmt(se.at_loss_pct, 2),
       common::TableWriter::fmt(se.loss_reduction_vs_partial, 1) + "x"});
  table.print(std::cout);
  std::cout << "  paper claims: >40x latency reduction at <7% loss; >13x "
               "loss reduction at equal latency.\n";
  std::cout << "  search index footprint: raw " << se.index_size.raw_bytes
            << " B -> compressed " << se.index_size.compressed_bytes
            << " B (ratio "
            << common::TableWriter::fmt(se.index_size.ratio(), 3) << ")\n";
  const auto snapshot_line = [](const char* name, const ServiceSummary& s) {
    const auto raw =
        s.snapshot_bytes[static_cast<std::size_t>(common::Codec::kRaw)];
    const auto shuffle =
        s.snapshot_bytes[static_cast<std::size_t>(common::Codec::kShuffle)];
    std::cout << "  " << name << " snapshot artifacts: raw " << raw
              << " B, shuffle " << shuffle << " B ("
              << common::TableWriter::fmt(
                     raw ? static_cast<double>(shuffle) / raw : 0.0, 3)
              << "x)\n";
  };
  snapshot_line("CF", cf);
  snapshot_line("search", se);
  write_json(cf, se);
  return 0;
}
