// §4.2 "Evaluation of overheads of synopsis creation": times the three
// creation steps for one subset of each service and reports the
// aggregation ratios the paper quotes (133.01 original users and 42.55
// original pages per aggregated data point). The SVD step runs in both
// the scalar and the best SIMD dispatch tier (bit-identical factors; the
// residual-retire gather is the vectorized part, the SGD chain itself is
// latency-bound). Machine-readable output goes to
// BENCH_synopsis_creation.json (override: AT_SYNOPSIS_JSON).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <sstream>

#include "bench/bench_common.h"
#include "bench/seed_reference.h"
#include "common/artifact.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "linalg/svd.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/serialize.h"

namespace at::bench {
namespace {

struct StepTimes {
  double svd_seed_s = 0.0;     // seed scalar kernel (pre-optimization)
  double svd_scalar_s = 0.0;   // CSR + cached residual, scalar dispatch tier
  double svd_s = 0.0;          // CSR + cached residual, best SIMD tier
  double rtree_s = 0.0;
  double aggregate_s = 0.0;
  std::size_t points = 0;
  std::size_t groups = 0;
  std::size_t synopsis_features = 0;
  std::size_t input_entries = 0;
  /// Serialized SVD-model artifact size per value codec (same model,
  /// exact round-trip in every codec), plus the synopsis artifact.
  std::size_t svd_artifact_bytes[std::size(common::kAllCodecs)] = {};
  std::size_t synopsis_artifact_bytes = 0;

  double svd_codec_ratio(common::Codec codec) const {
    const auto raw =
        svd_artifact_bytes[static_cast<std::size_t>(common::Codec::kRaw)];
    return raw > 0 ? static_cast<double>(
                         svd_artifact_bytes[static_cast<std::size_t>(codec)]) /
                         static_cast<double>(raw)
                   : 0.0;
  }
};

template <typename Fn>
std::size_t artifact_bytes(Fn&& fn) {
  std::ostringstream os;
  fn(os);
  return os.str().size();
}

StepTimes time_creation(const synopsis::SparseRows& rows,
                        const synopsis::BuildConfig& cfg,
                        synopsis::AggregationKind kind) {
  StepTimes t;
  t.points = rows.rows();
  t.input_entries = rows.total_entries();

  const auto dataset = rows.to_dataset();
  common::Stopwatch w;
  {
    auto seed_svd = seed_incremental_svd(dataset, cfg.svd);
    t.svd_seed_s = w.elapsed_seconds();
    (void)seed_svd;
  }
  {
    const simd::Tier entry_tier = simd::active_tier();  // honor AT_SIMD
    simd::set_tier(simd::Tier::kScalar);
    w.reset();
    auto scalar_svd = linalg::incremental_svd(dataset, cfg.svd);
    t.svd_scalar_s = w.elapsed_seconds();
    simd::set_tier(entry_tier);
    (void)scalar_svd;
  }
  w.reset();
  auto svd = linalg::incremental_svd(dataset, cfg.svd);
  t.svd_s = w.elapsed_seconds();

  w.reset();
  std::vector<std::pair<std::uint64_t, rtree::Rect>> items;
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    items.emplace_back(r, rtree::Rect::point(std::span<const double>(
                              svd.row_factors.row(r), cfg.svd.rank)));
  }
  auto tree =
      rtree::RTree::bulk_load(cfg.svd.rank, std::move(items),
                              cfg.rtree_params);
  const auto level = synopsis::SynopsisBuilder::pick_level(
      tree, rows.rows(), cfg.size_ratio, cfg.min_groups);
  auto index = synopsis::SynopsisBuilder::derive_index(tree, level);
  t.rtree_s = w.elapsed_seconds();

  w.reset();
  common::ThreadPool pool;
  const auto synopsis = synopsis::aggregate_all(rows, index, kind, &pool);
  t.aggregate_s = w.elapsed_seconds();

  t.groups = index.size();
  t.synopsis_features = synopsis.total_features();

  // Artifact-store footprint of the shippable state (ROADMAP "Compress
  // remaining artifacts"): the SVD model under each value codec and the
  // aggregated synopsis. All encodings are exact, so the ratios are pure
  // size wins.
  for (common::Codec codec : common::kAllCodecs) {
    t.svd_artifact_bytes[static_cast<std::size_t>(codec)] = artifact_bytes(
        [&](std::ostream& os) { linalg::save(os, svd, codec); });
  }
  t.synopsis_artifact_bytes =
      artifact_bytes([&](std::ostream& os) { synopsis::save(os, synopsis); });
  return t;
}

void report(const char* service, const StepTimes& t) {
  common::TableWriter table(std::string("Synopsis creation — ") + service);
  table.set_columns({"step", "seconds", "notes"});
  table.add_row({"1. SVD reduction (seed scalar)",
                 common::TableWriter::fmt(t.svd_seed_s, 3),
                 "pre-optimization reference"});
  table.add_row({"1. SVD reduction (scalar tier)",
                 common::TableWriter::fmt(t.svd_scalar_s, 3),
                 "CSR + cached residual, " +
                     common::TableWriter::fmt(t.svd_seed_s / t.svd_scalar_s,
                                              2) +
                     "x vs seed"});
  table.add_row({std::string("1. SVD reduction (") +
                     simd::tier_name(simd::active_tier()) + " tier)",
                 common::TableWriter::fmt(t.svd_s, 3),
                 common::TableWriter::fmt(t.svd_seed_s / t.svd_s, 2) +
                     "x vs seed, " +
                     common::TableWriter::fmt(t.svd_scalar_s / t.svd_s, 2) +
                     "x vs scalar tier"});
  table.add_row({"2. R-tree + index file",
                 common::TableWriter::fmt(t.rtree_s, 3),
                 "bulk load + level select"});
  table.add_row({"3. information aggregation",
                 common::TableWriter::fmt(t.aggregate_s, 3),
                 "thread-pool parallel"});
  table.add_row({"total",
                 common::TableWriter::fmt(t.svd_s + t.rtree_s + t.aggregate_s,
                                          3),
                 ""});
  table.print(std::cout);
  std::cout << "  SVD model artifact: raw="
            << t.svd_artifact_bytes[static_cast<std::size_t>(
                   common::Codec::kRaw)]
            << " B, shuffle="
            << t.svd_artifact_bytes[static_cast<std::size_t>(
                   common::Codec::kShuffle)]
            << " B ("
            << common::TableWriter::fmt(
                   t.svd_codec_ratio(common::Codec::kShuffle), 3)
            << "x); synopsis artifact=" << t.synopsis_artifact_bytes << " B\n";
  std::cout << "  points=" << t.points << " groups=" << t.groups
            << " points/aggregated="
            << common::TableWriter::fmt(
                   static_cast<double>(t.points) /
                       static_cast<double>(t.groups),
                   2)
            << " synopsis/input size="
            << common::TableWriter::fmt(
                   static_cast<double>(t.synopsis_features) /
                       static_cast<double>(t.input_entries),
                   3)
            << "\n";
}

void write_json(const StepTimes& cf, const StepTimes& ws) {
  const char* path_env = std::getenv("AT_SYNOPSIS_JSON");
  const std::string path =
      path_env != nullptr ? path_env : "BENCH_synopsis_creation.json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "warning: could not write " << path << "\n";
    return;
  }
  const auto emit = [&os](const char* name, const StepTimes& t,
                          const char* tail) {
    os << "  \"" << name << "\": {\n"
       << "    \"svd_seed_s\": " << t.svd_seed_s << ",\n"
       << "    \"svd_scalar_tier_s\": " << t.svd_scalar_s << ",\n"
       << "    \"svd_simd_tier_s\": " << t.svd_s << ",\n"
       << "    \"svd_simd_speedup_vs_scalar_tier\": "
       << t.svd_scalar_s / t.svd_s << ",\n"
       << "    \"rtree_s\": " << t.rtree_s << ",\n"
       << "    \"aggregate_s\": " << t.aggregate_s << ",\n"
       << "    \"points\": " << t.points << ",\n"
       << "    \"groups\": " << t.groups << ",\n"
       << "    \"svd_artifact_raw_bytes\": "
       << t.svd_artifact_bytes[static_cast<std::size_t>(common::Codec::kRaw)]
       << ",\n"
       << "    \"svd_artifact_shuffle_bytes\": "
       << t.svd_artifact_bytes[static_cast<std::size_t>(
              common::Codec::kShuffle)]
       << ",\n"
       << "    \"svd_artifact_shuffle_ratio\": "
       << t.svd_codec_ratio(common::Codec::kShuffle) << ",\n"
       << "    \"synopsis_artifact_bytes\": " << t.synopsis_artifact_bytes
       << "\n  }" << tail << "\n";
  };
  os << "{\n  \"bench\": \"bench_synopsis_creation\",\n"
     << "  \"scale\": \"" << (large_scale() ? "large" : "small") << "\",\n"
     << "  \"simd_tier\": \""
     << simd::tier_name(simd::active_tier()) << "\",\n";
  emit("cf_recommender", cf, ",");
  emit("web_search", ws, "");
  os << "}\n";
  std::cout << "  wrote " << path << "\n";
}

}  // namespace
}  // namespace at::bench

int main() {
  using namespace at;
  using namespace at::bench;

  print_paper_note(
      "§4.2 synopsis creation",
      "creation completes offline (paper: 30 s for a recommender subset, "
      "40 min for a 0.5M-page search subset on one node); each aggregated "
      "point stands for many originals (133.01 users / 42.55 pages).");

  StepTimes cf_times, ws_times;
  {
    auto wcfg = default_rating_config();
    wcfg.num_components = 1;
    workload::RatingWorkloadGen gen(wcfg);
    auto wl = gen.generate(0, 0);
    cf_times = time_creation(
        wl.subsets[0], default_build_config(25.0),
        synopsis::AggregationKind::kMean);
    report("CF recommender (one subset)", cf_times);
  }
  {
    auto ccfg = default_corpus_config();
    ccfg.num_components = 1;
    workload::CorpusGen gen(ccfg);
    auto wl = gen.generate(0);
    ws_times = time_creation(
        wl.shards[0], default_build_config(12.0),
        synopsis::AggregationKind::kMerge);
    report("web search (one shard)", ws_times);
  }
  write_json(cf_times, ws_times);

  // CI guard: with AT_REQUIRE_ARTIFACT_RATIO set (e.g. 0.9), the shuffle
  // codec must keep the SVD-model artifact at or below that fraction of
  // the raw encoding for both services — the storage analogue of the
  // postings-codec AT_REQUIRE_RATIO guard.
  if (const char* bound_env = std::getenv("AT_REQUIRE_ARTIFACT_RATIO")) {
    const double bound = std::atof(bound_env);
    const double worst =
        std::max(cf_times.svd_codec_ratio(common::Codec::kShuffle),
                 ws_times.svd_codec_ratio(common::Codec::kShuffle));
    if (!(bound > 0.0) || worst > bound) {
      std::cerr << "FAIL: SVD-model shuffle/raw artifact ratio "
                << common::TableWriter::fmt(worst, 3) << " exceeds bound "
                << bound_env << "\n";
      return 1;
    }
    std::cout << "  artifact ratio guard OK: shuffle/raw "
              << common::TableWriter::fmt(worst, 3) << " <= " << bound_env
              << "\n";
  }
  return 0;
}
