// Traced replay: the workload's requests, closed-loop, through the
// driver's own copy of each layer at_server stacks on the request path,
// with a span around every call into a layer's public functions.
#include <cmath>
#include <map>

#include "bench.h"
#include "common/sharded_executor.h"
#include "common/topology.h"
#include "core/algorithm1.h"
#include "services/search/query_cache.h"

namespace at::bench {
namespace {

/// Every Nth replayed search also runs the costly per-layer probes
/// (per-shard scans, synopsis, stage-1 analysis).
constexpr std::size_t kDeepEvery = 10;
constexpr std::size_t kUpdateSamples = 8;
constexpr std::size_t kMarkStaleRounds = 20;
constexpr std::size_t kCacheEntries = 4096;                  // = ServerConfig
constexpr std::size_t kCacheBytes = std::size_t{4} << 20;    // = ServerConfig

/// Share of the exact top-k that falls in the top 40% of its component's
/// groups as ranked by stage-1 correlation (the paper's imax argument).
double top40_recall(const std::vector<search::SearchComponentWork>& works,
                    const std::vector<search::ScoredDoc>& exact) {
  if (exact.empty()) return 1.0;
  std::map<std::uint64_t, std::pair<std::size_t, std::size_t>> where;
  for (std::size_t c = 0; c < works.size(); ++c)
    for (std::size_t g = 0; g < works[c].scored_by_group.size(); ++g)
      for (const auto& d : works[c].scored_by_group[g])
        where.emplace(d.doc, std::make_pair(c, g));
  std::vector<std::vector<std::size_t>> rank_of(works.size());
  std::size_t hit = 0;
  for (const auto& d : exact) {
    const auto it = where.find(d.doc);
    if (it == where.end()) continue;
    const auto [c, g] = it->second;
    if (rank_of[c].empty()) {
      const auto ranked = core::rank_by_correlation(works[c].correlations);
      rank_of[c].assign(ranked.size(), 0);
      for (std::size_t r = 0; r < ranked.size(); ++r) rank_of[c][ranked[r]] = r;
    }
    const auto top = static_cast<std::size_t>(
        std::ceil(0.4 * static_cast<double>(rank_of[c].size())));
    if (rank_of[c][g] < top) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(exact.size());
}

/// Detaches the executor from the service before the executor dies.
struct ExecutorScope {
  search::SearchService& svc;
  ExecutorScope(search::SearchService& s, common::ShardedExecutor* e) : svc(s) {
    svc.set_executor(e);
  }
  ~ExecutorScope() { svc.set_executor(nullptr); }
  ExecutorScope(const ExecutorScope&) = delete;
  ExecutorScope& operator=(const ExecutorScope&) = delete;
};

}  // namespace

void traced_replay(Reference& ref,
                   const std::vector<std::vector<std::uint32_t>>& queries,
                   const std::vector<std::uint32_t>& sequence,
                   const std::vector<int>& cpus, std::uint64_t seed,
                   Tracer& tracer, std::vector<Metric>* out) {
  using search::ScoredDoc;
  pin_current_thread(cpus);
  common::ShardedExecutor exec(common::simulated_topology(1, cpus));
  search::SearchService& svc = *ref.service;
  const ExecutorScope scope(svc, &exec);
  search::QueryCache cache(kCacheEntries, kCacheBytes);

  std::vector<double> postings, syn_overlap, recall;
  std::size_t hits = 0;
  std::string err;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    const std::uint64_t id = i + 1;
    const bool deep = i % kDeepEvery == 0;
    protocol::Request req;
    req.request_id = id;
    req.op = protocol::Op::kSearch;
    req.terms = queries[sequence[i]];

    const ScopedSpan root(tracer, "request", -1, id);
    const std::int32_t r = root.id();
    std::vector<std::uint8_t> frame;
    {
      const ScopedSpan s(tracer, "protocol.encode_request", r, id);
      frame = protocol::encode_request(req);
    }
    protocol::Request decoded;
    {
      const ScopedSpan s(tracer, "protocol.decode_request", r, id);
      protocol::decode_request(frame.data() + 4, frame.size() - 4, &decoded,
                               &err);
    }
    std::vector<ScoredDoc> docs;
    bool hit = false;
    {
      const ScopedSpan s(tracer, "cache.lookup", r, id);
      hit = cache.lookup(decoded.terms, &docs);
    }
    hits += hit ? 1 : 0;
    const search::SearchRequest sreq{decoded.terms};
    if (!hit) {
      {
        const ScopedSpan s(tracer, "scan.exact_topk", r, id);
        std::size_t ok = 0;
        docs = svc.exact_topk_partial(sreq, &ok);
      }
      const ScopedSpan s(tracer, "cache.insert", r, id);
      cache.insert(decoded.terms, docs);
    }

    if (deep) {
      std::vector<std::shared_ptr<const search::SearchSnapshot>> snaps;
      for (std::size_t c = 0; c < svc.num_components(); ++c)
        snaps.push_back(svc.component(c).snapshot());
      std::vector<std::vector<ScoredDoc>> locals(snaps.size());
      for (std::size_t c = 0; c < snaps.size(); ++c) {
        const ScopedSpan s(tracer, "scan.shard", r, id);
        locals[c] = snaps[c]->exact_topk(sreq, kTopK);
      }
      {
        const ScopedSpan s(tracer, "merge.topk", r, id);
        search::TopK top(kTopK);
        for (const auto& local : locals)
          for (const auto& d : local) top.offer(d);
        (void)top.take();
      }
      {
        const ScopedSpan s(tracer, "executor.dispatch", r, id);
        exec.for_each_shard_grouped(snaps.size(), [](std::size_t) {});
      }
      std::vector<ScoredDoc> syn;
      {
        const ScopedSpan s(tracer, "synopsis.topk", r, id);
        syn = svc.synopsis_topk(sreq);
      }
      syn_overlap.push_back(search::topk_overlap(syn, docs));
      std::vector<search::SearchComponentWork> works(snaps.size());
      {
        const ScopedSpan s(tracer, "stage1.analyze", r, id);
        for (std::size_t c = 0; c < snaps.size(); ++c)
          works[c] = snaps[c]->analyze(sreq);
      }
      recall.push_back(top40_recall(works, docs));
      double p = 0.0;
      for (const auto& snap : snaps)
        for (const std::uint32_t t : sreq.terms)
          p += snap->index().doc_frequency(t);
      postings.push_back(p);
    }

    protocol::Response resp;
    resp.request_id = id;
    resp.op = protocol::Op::kSearch;
    resp.tier = hit ? protocol::Tier::kCached : protocol::Tier::kFull;
    resp.docs = std::move(docs);
    std::vector<std::uint8_t> rframe;
    {
      const ScopedSpan s(tracer, "protocol.encode_response", r, id);
      rframe = protocol::encode_response(resp);
    }
    const ScopedSpan s(tracer, "protocol.decode_response", r, id);
    protocol::Response back;
    back.op = protocol::Op::kSearch;
    protocol::decode_response(rframe.data() + 4, rframe.size() - 4, &back,
                              &err);
  }

  // Publish-time cache re-annotation over a full cache: each round fills
  // it in one epoch, then marks it stale for the next.
  search::QueryCache stale_cache(kCacheEntries, kCacheBytes);
  const std::vector<ScoredDoc> filler(kTopK, ScoredDoc{1.0, 0});
  for (std::size_t round = 1; round <= kMarkStaleRounds; ++round) {
    for (std::size_t j = 0; j < kCacheEntries; ++j)
      stale_cache.insert(queries[j % queries.size()], filler,
                         search::ResultMeta{0.0, round, false});
    const ScopedSpan s(tracer, "cache.mark_stale", -1, 0);
    stale_cache.mark_stale_epochs(round + 1, 10.0);
  }

  // Update + publish on the shard's home group (what kUpdate runs).
  common::Rng rng(seed ^ 0x75706474ULL);
  for (std::size_t u = 0; u < kUpdateSamples; ++u) {
    const auto c = static_cast<std::uint32_t>(rng.uniform_index(kComponents));
    const auto batch = synthesize_update(svc, c, kUpdateAdds, kUpdateChanges,
                                         rng.next());
    const ScopedSpan s(tracer, "update.publish", -1, 0);
    svc.update_component(c, batch);
  }

  const auto self = [&tracer](const char* name) { return tracer.self_us(name); };
  const auto p50 = [&](const char* name) { return percentile(self(name), 50); };
  const auto p99 = [&](const char* name) { return percentile(self(name), 99); };
  auto& m = *out;
  m.push_back({"protocol.encode_request_us", p50("protocol.encode_request"), "us"});
  m.push_back({"protocol.decode_request_us", p50("protocol.decode_request"), "us"});
  m.push_back({"protocol.encode_response_us", p50("protocol.encode_response"), "us"});
  m.push_back({"protocol.decode_response_us", p50("protocol.decode_response"), "us"});
  m.push_back({"cache.lookup_us", p50("cache.lookup"), "us"});
  m.push_back({"cache.insert_us", p50("cache.insert"), "us"});
  m.push_back({"cache.hit_ratio",
               sequence.empty() ? 0.0
                                : static_cast<double>(hits) /
                                      static_cast<double>(sequence.size()),
               "share"});
  m.push_back({"cache.mark_stale_us", p50("cache.mark_stale"), "us"});
  m.push_back({"scan.exact_topk_us_p50", p50("scan.exact_topk"), "us"});
  m.push_back({"scan.exact_topk_us_p99", p99("scan.exact_topk"), "us"});
  m.push_back({"scan.shard_us_p50", p50("scan.shard"), "us"});
  m.push_back({"scan.shard_us_p99", p99("scan.shard"), "us"});
  m.push_back({"scan.postings_per_query", mean(postings), "count"});
  m.push_back({"executor.dispatch_us", p50("executor.dispatch"), "us"});
  m.push_back({"merge.topk_us", p50("merge.topk"), "us"});
  m.push_back({"synopsis.topk_us_p50", p50("synopsis.topk"), "us"});
  m.push_back({"synopsis.topk_us_p99", p99("synopsis.topk"), "us"});
  m.push_back({"synopsis.overlap_mean", mean(syn_overlap), "share"});
  m.push_back({"stage1.analyze_us", p50("stage1.analyze"), "us"});
  m.push_back({"stage1.top40_recall", mean(recall), "share"});
  m.push_back({"update.publish_ms_p50", p50("update.publish") / 1e3, "ms"});
  m.push_back({"update.publish_ms_p99", p99("update.publish") / 1e3, "ms"});
}

}  // namespace at::bench
