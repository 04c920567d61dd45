// The driver's reference copy of at_server's search corpus, and the check
// of every served answer against it.
#include <algorithm>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <thread>

#include "bench.h"
#include "common/stopwatch.h"

namespace at::bench {

workload::CorpusConfig server_corpus_config() {
  // Mirrors tools/at_server_main.cpp; the bit-identity check fails loudly
  // if the two ever drift apart.
  workload::CorpusConfig c;
  c.num_components = kComponents;
  c.docs_per_component = kDocsPerComponent;
  c.seed = 20160816;
  return c;
}

std::vector<std::string> server_args() {
  return {"--components", std::to_string(kComponents),
          "--docs",       std::to_string(kDocsPerComponent),
          "--no-reco"};
}

std::unique_ptr<Reference> build_reference() {
  auto ref = std::make_unique<Reference>();
  common::Stopwatch sw;
  const workload::CorpusGen gen(server_corpus_config());
  auto wl = gen.generate(16);
  ref->times.corpus_gen_s = sw.elapsed_seconds();

  sw.reset();
  synopsis::BuildConfig bcfg;
  bcfg.svd.rank = 3;
  bcfg.svd.epochs_per_dim = 30;
  bcfg.size_ratio = 12.0;
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto n = shard.rows();
    comps.emplace_back(std::move(shard), base, bcfg);
    base += n;
  }
  ref->times.shard_build_s = sw.elapsed_seconds();

  sw.reset();
  ref->service =
      std::make_unique<search::SearchService>(std::move(comps), kTopK);
  ref->times.service_s = sw.elapsed_seconds();
  return ref;
}

synopsis::UpdateBatch synthesize_update(const search::SearchService& svc,
                                        std::uint32_t component,
                                        std::uint32_t adds,
                                        std::uint32_t changes,
                                        std::uint64_t seed) {
  // Mirrors Server::serve_update's batch synthesis expression for
  // expression (argument evaluation order included).
  const auto snap = svc.component(component).snapshot();
  const std::size_t rows = snap->num_docs();
  const std::size_t cols = snap->docs().cols();
  common::Rng rng(seed);
  const auto make_row = [&rng, cols]() {
    synopsis::SparseVector row;
    std::set<std::uint32_t> terms;
    const std::size_t n =
        1 + static_cast<std::size_t>(rng.uniform_index(8));
    while (terms.size() < n)
      terms.insert(static_cast<std::uint32_t>(rng.uniform_index(cols)));
    for (const std::uint32_t t : terms)
      row.emplace_back(t, 1.0 + static_cast<double>(rng.uniform_index(5)));
    return row;
  };
  synopsis::UpdateBatch batch;
  batch.added.reserve(adds);
  for (std::uint32_t i = 0; i < adds; ++i) batch.added.push_back(make_row());
  batch.changed.reserve(changes);
  for (std::uint32_t i = 0; i < changes; ++i)
    batch.changed.emplace_back(
        static_cast<std::uint32_t>(rng.uniform_index(rows)), make_row());
  return batch;
}

namespace {

/// At most k docs, strictly ordered by search::better, ids in range.
bool structurally_valid(const std::vector<search::ScoredDoc>& docs,
                        std::size_t total_docs, std::string* why) {
  if (docs.size() > kTopK) {
    *why = "more than k docs";
    return false;
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    if (docs[i].doc >= total_docs) {
      *why = "doc id " + std::to_string(docs[i].doc) + " >= total docs";
      return false;
    }
    if (i > 0 && !search::better(docs[i - 1], docs[i])) {
      *why = "docs not ordered by search::better";
      return false;
    }
  }
  return true;
}

bool bit_identical(const std::vector<search::ScoredDoc>& a,
                   const std::vector<search::ScoredDoc>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// Answers a full-tier or fresh-cached response claims are exact.
bool claims_exact(const protocol::Response& r) {
  return (r.tier == protocol::Tier::kFull ||
          r.tier == protocol::Tier::kCached) &&
         r.est_loss_pct == 0.0;
}

}  // namespace

Verification verify(Reference& ref, const std::vector<Planned>& plan,
                    const std::vector<Outcome>& outcomes,
                    const std::vector<std::vector<std::uint32_t>>& queries,
                    double window_start_ms, std::size_t threads) {
  const std::size_t n = plan.size();
  Verification v;
  v.overlap.assign(n, std::numeric_limits<double>::quiet_NaN());
  v.sampled.assign(n, 0);
  const auto fail = [&v](std::size_t& counter, const std::string& why) {
    ++counter;
    if (v.first_error.empty()) v.first_error = why;
  };

  // Update windows, in send order (one connection, so also apply order).
  // An update that did not come back OK may or may not have been applied:
  // its window never closes, and nothing after it is checkable.
  constexpr double kOpen = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> updates;
  std::vector<double> upd_end;
  for (std::size_t i = 0; i < n; ++i) {
    if (!plan[i].update) continue;
    updates.push_back(i);
    const double end = outcomes[i].ok() ? outcomes[i].recv_ms : kOpen;
    upd_end.push_back(upd_end.empty() ? end : std::max(upd_end.back(), end));
  }
  // SearchService::total_docs() counts the corpus at construction; every
  // applied update appends kUpdateAdds rows.
  const std::size_t base_total = ref.service->total_docs();

  // Data epoch of each answered search: the number of updates that had
  // completed before it was sent, provided none was in flight while it
  // was (client windows bracket the server's processing of both).
  std::map<std::size_t, std::vector<std::size_t>> by_epoch;
  std::vector<std::size_t> unresolved;
  for (std::size_t i = 0; i < n; ++i) {
    if (plan[i].update) continue;
    const Outcome& o = outcomes[i];
    const std::size_t e = static_cast<std::size_t>(
        std::lower_bound(upd_end.begin(), upd_end.end(), o.sent_ms) -
        upd_end.begin());
    const bool straddles =
        e < updates.size() &&
        (!o.answered() || outcomes[updates[e]].sent_ms <= o.recv_ms);
    const bool in_window = plan[i].t_ms >= window_start_ms;
    if (straddles) {
      if (o.ok()) unresolved.push_back(i);
      continue;
    }
    if (in_window) v.sampled[i] = 1;
    if (o.ok()) by_epoch[e].push_back(i);
  }

  std::size_t applied = 0;
  std::string why;
  for (auto& [epoch, idxs] : by_epoch) {
    while (applied < epoch) {
      const Planned& u = plan[updates[applied]];
      ref.service->update_component(
          u.component, synthesize_update(*ref.service, u.component,
                                         kUpdateAdds, kUpdateChanges,
                                         u.update_seed));
      ++applied;
    }
    // Exact answers per distinct query, computed in parallel.
    std::vector<std::uint32_t> qids;
    for (const std::size_t i : idxs) qids.push_back(plan[i].query);
    std::sort(qids.begin(), qids.end());
    qids.erase(std::unique(qids.begin(), qids.end()), qids.end());
    std::vector<std::vector<search::ScoredDoc>> exact(qids.size());
    std::vector<std::thread> pool;
    const std::size_t t = std::max<std::size_t>(1, threads);
    for (std::size_t w = 0; w < t; ++w) {
      pool.emplace_back([&, w] {
        for (std::size_t j = w; j < qids.size(); j += t)
          exact[j] = ref.service->exact_topk(
              search::SearchRequest{queries[qids[j]]});
      });
    }
    for (auto& th : pool) th.join();

    const std::size_t total = base_total + applied * kUpdateAdds;
    for (const std::size_t i : idxs) {
      const auto& resp = outcomes[i].resp;
      const auto& want = exact[static_cast<std::size_t>(
          std::lower_bound(qids.begin(), qids.end(), plan[i].query) -
          qids.begin())];
      if (!structurally_valid(resp.docs, total, &why))
        fail(v.structural, "request " + std::to_string(i + 1) + ": " + why);
      if (claims_exact(resp)) {
        ++v.compared;
        if (!bit_identical(resp.docs, want))
          fail(v.mismatches, "request " + std::to_string(i + 1) +
                                 ": exact answer differs from the reference");
      }
      v.overlap[i] = search::topk_overlap(resp.docs, want);
    }
  }

  // Searches that straddled an update: shape checks only, against the
  // largest corpus any epoch reached.
  const std::size_t max_total = base_total + updates.size() * kUpdateAdds;
  for (const std::size_t i : unresolved) {
    if (!structurally_valid(outcomes[i].resp.docs, max_total, &why))
      fail(v.structural, "request " + std::to_string(i + 1) + ": " + why);
  }
  return v;
}

}  // namespace at::bench
