// Epoch-ownership suite: the EpochSlot primitive, the snapshot swap under
// concurrent readers (run under TSan in CI), the copy-on-write contract
// between consecutive epochs, query-cache staleness re-annotation at
// publish time, and the DLTA delta artifacts a warm standby tails.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/artifact.h"
#include "common/epoch.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "services/recommender/component.h"
#include "services/search/component.h"
#include "services/search/query_cache.h"
#include "services/search/service.h"
#include "synopsis/delta.h"
#include "workload/corpus.h"
#include "workload/ratings.h"

namespace at {
namespace {

namespace fp = common::failpoint;

// ---------------------------------------------------------------------------
// EpochSlot primitive
// ---------------------------------------------------------------------------

/// Torn-read detector: both halves must always agree.
struct Payload {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class EpochSlotTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

TEST_F(EpochSlotTest, AcquireBeforeFirstPublishIsNull) {
  common::EpochSlot<int> slot;
  EXPECT_EQ(slot.acquire(), nullptr);
  EXPECT_EQ(slot.version(), 0u);
  const auto s = slot.stats();
  EXPECT_EQ(s.published, 0u);
  EXPECT_EQ(s.retired, 0u);
  EXPECT_EQ(s.live, 0u);
}

TEST_F(EpochSlotTest, PublishNullThrows) {
  common::EpochSlot<int> slot;
  EXPECT_THROW(slot.publish(nullptr), std::invalid_argument);
}

TEST_F(EpochSlotTest, PublishAdvancesVersionAndAcquireSees) {
  common::EpochSlot<int> slot;
  slot.publish(std::make_unique<const int>(41));
  EXPECT_EQ(slot.version(), 1u);
  ASSERT_NE(slot.acquire(), nullptr);
  EXPECT_EQ(*slot.acquire(), 41);
  slot.publish(std::make_unique<const int>(42));
  EXPECT_EQ(slot.version(), 2u);
  EXPECT_EQ(*slot.acquire(), 42);
}

TEST_F(EpochSlotTest, PinSurvivesPublishAndRetiresOnDrop) {
  common::EpochSlot<int> slot;
  slot.publish(std::make_unique<const int>(1));
  std::shared_ptr<const int> pin = slot.acquire();
  slot.publish(std::make_unique<const int>(2));
  // The pinned epoch is retired-but-alive: still readable, not yet freed.
  EXPECT_EQ(*pin, 1);
  EXPECT_EQ(slot.stats().retired, 0u);
  EXPECT_EQ(slot.stats().live, 2u);
  pin.reset();  // the last pin performs the retire
  EXPECT_EQ(slot.stats().retired, 1u);
  EXPECT_EQ(slot.stats().live, 1u);
}

TEST_F(EpochSlotTest, UnpinnedPublishesRetireEagerly) {
  common::EpochSlot<int> slot;
  for (int i = 0; i < 10; ++i) slot.publish(std::make_unique<const int>(i));
  const auto s = slot.stats();
  EXPECT_EQ(s.published, 10u);
  EXPECT_EQ(s.retired, 9u);  // everything but the current epoch drained
  EXPECT_EQ(s.live, 1u);
}

TEST_F(EpochSlotTest, VersionWrapKeepsFreshnessEqualityDistinct) {
  common::EpochSlot<int> slot;
  slot.publish(std::make_unique<const int>(0));
  slot.set_version_for_test(std::numeric_limits<std::uint64_t>::max());
  const std::uint64_t before = slot.version();
  slot.publish(std::make_unique<const int>(1));
  EXPECT_EQ(slot.version(), 0u);  // wrapped
  // Equality-based freshness: the wrapped version still differs from the
  // pre-wrap token, so a cached answer stamped `before` reads as stale.
  EXPECT_NE(slot.version(), before);
  slot.publish(std::make_unique<const int>(2));
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_EQ(slot.stats().published, 3u);  // publish count is unaffected
}

TEST_F(EpochSlotTest, PublishFailpointAbortsAndKeepsPreviousEpochLive) {
  common::EpochSlot<int> slot;
  slot.publish(std::make_unique<const int>(7));
  fp::set("epoch.publish", "error");
  EXPECT_THROW(slot.publish(std::make_unique<const int>(8)),
               fp::FailpointError);
  fp::clear_all();
  // The failed publish left everything untouched.
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_EQ(*slot.acquire(), 7);
  EXPECT_EQ(slot.stats().published, 1u);
  slot.publish(std::make_unique<const int>(8));
  EXPECT_EQ(*slot.acquire(), 8);
}

TEST_F(EpochSlotTest, RetireFailpointNeverThrowsOutOfDeleter) {
  common::EpochSlot<int> slot;
  slot.publish(std::make_unique<const int>(1));
  fp::set("epoch.retire", "error");
  // The retire deleter uses the non-throwing check(): an armed error must
  // not propagate out of the shared_ptr release.
  EXPECT_NO_THROW(slot.publish(std::make_unique<const int>(2)));
  EXPECT_EQ(slot.stats().retired, 1u);
}

TEST_F(EpochSlotTest, PinOutlivesSlotShutdownMidSwap) {
  std::shared_ptr<const int> pin;
  {
    common::EpochSlot<int> slot;
    slot.publish(std::make_unique<const int>(99));
    pin = slot.acquire();
    slot.publish(std::make_unique<const int>(100));
  }  // slot destroyed while the old epoch is still pinned
  EXPECT_EQ(*pin, 99);
  pin.reset();  // retires into the counter kept alive by the deleter
}

TEST_F(EpochSlotTest, SwapStressReadersNeverBlockOrTear) {
  common::EpochSlot<Payload> slot;
  {
    auto p = std::make_unique<Payload>();
    p->a = p->b = 0;
    slot.publish(std::unique_ptr<const Payload>(std::move(p)));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> pins_across_publish{0};
  constexpr int kReaders = 4;
  constexpr int kPublishes = 2000;

  // Each reader keeps going until it has a minimum sample count even if
  // the writer finishes all publishes before it gets scheduled (possible
  // on a loaded single-core box — publishes are just pointer swaps).
  constexpr std::uint64_t kMinReadsPerReader = 200;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire) ||
             local < kMinReadsPerReader) {
        const std::uint64_t v_before = slot.version();
        const auto pin = slot.acquire();
        ASSERT_NE(pin, nullptr);
        // Never torn: both halves written before publish, read after.
        ASSERT_EQ(pin->a, pin->b);
        if (slot.version() != v_before)
          pins_across_publish.fetch_add(1, std::memory_order_relaxed);
        ++local;
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::uint64_t i = 1; i <= kPublishes; ++i) {
    auto p = std::make_unique<Payload>();
    p->a = p->b = i;
    slot.publish(std::unique_ptr<const Payload>(std::move(p)));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  const auto s = slot.stats();
  EXPECT_EQ(s.published, kPublishes + 1u);
  // Queries never blocked on retraining: with all pins dropped, every old
  // epoch has drained — nothing was stuck behind a reader.
  EXPECT_EQ(s.retired, s.published - 1u);
  EXPECT_EQ(s.live, 1u);
  EXPECT_GT(reads.load(), 0u);
}

// ---------------------------------------------------------------------------
// Component- and service-level swap behavior
// ---------------------------------------------------------------------------

synopsis::BuildConfig small_build_config() {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 20;
  cfg.size_ratio = 10.0;
  return cfg;
}

workload::CorpusConfig small_corpus_config() {
  workload::CorpusConfig cfg;
  cfg.num_components = 2;
  cfg.docs_per_component = 80;
  cfg.vocab_size = 300;
  cfg.num_topics = 6;
  cfg.topic_vocab = 30;
  cfg.seed = 11;
  return cfg;
}

synopsis::UpdateBatch make_batch(workload::CorpusGen& gen, common::Rng& rng,
                                 std::size_t adds, std::size_t changes,
                                 std::size_t rows) {
  synopsis::UpdateBatch batch;
  for (std::size_t i = 0; i < adds; ++i)
    batch.added.push_back(gen.sample_doc(rng));
  for (std::size_t i = 0; i < changes; ++i)
    batch.changed.emplace_back(
        static_cast<std::uint32_t>(rng.uniform_index(rows)),
        gen.sample_doc(rng));
  return batch;
}

TEST(SearchComponentEpochs, ConcurrentQueriesNeverBlockOnUpdates) {
  auto cfg = small_corpus_config();
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(8);
  const std::size_t rows = wl.shards[0].rows();
  search::SearchComponent comp(std::move(wl.shards[0]), 0,
                               small_build_config());
  const std::uint64_t initial_version = comp.epoch_version();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries_done{0};
  // Each reader finishes a minimum number of queries even if the writer
  // publishes every update before the reader is first scheduled.
  constexpr std::uint64_t kMinQueriesPerReader = 5;
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire) ||
             local < kMinQueriesPerReader) {
        // One pinned snapshot per request: analyze and the stage-1 member
        // listing must come from the same epoch.
        const auto snap = comp.snapshot();
        const auto& q = wl.queries[(t + queries_done.load()) %
                                   wl.queries.size()];
        const auto work = snap->analyze(q);
        ASSERT_EQ(work.scored_by_group.size(), snap->num_groups());
        if (snap->num_groups() > 0) {
          (void)snap->group_member_docs(0);
        }
        ++local;
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  constexpr int kUpdates = 12;
  common::Rng rng(99);
  for (int u = 0; u < kUpdates; ++u) {
    (void)comp.update(make_batch(gen, rng, 2, 2, rows));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(comp.epoch_version(), initial_version + kUpdates);
  const auto s = comp.epoch_stats();
  EXPECT_EQ(s.published, initial_version + kUpdates);
  // All pins dropped: every superseded epoch drained. This is the
  // "queries never block on retraining, retraining never blocks on
  // queries" assertion — a blocked reader would pin an epoch forever.
  EXPECT_EQ(s.retired, s.published - 1u);
  EXPECT_EQ(s.live, 1u);
  EXPECT_GE(queries_done.load(), 3 * kMinQueriesPerReader);
}

TEST(SearchServiceEpochs, DataVersionAdvancesAndAnswersStayConsistent) {
  auto cfg = small_corpus_config();
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(6);
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto docs = shard.rows();
    comps.emplace_back(std::move(shard), base, small_build_config());
    base += docs;
  }
  search::SearchService service(std::move(comps), 10);

  const std::uint64_t v0 = service.data_version();
  const auto before = service.exact_topk(wl.queries[0]);
  common::Rng rng(5);
  (void)service.update_component(0, make_batch(gen, rng, 3, 0, 10));
  EXPECT_GT(service.data_version(), v0);
  // The post-update answer is stable: a recompute matches it bit-for-bit.
  const auto a = service.exact_topk(wl.queries[0]);
  const auto b = service.exact_topk(wl.queries[0]);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
  const auto es = service.epoch_stats();
  EXPECT_EQ(es.retired, es.published - service.num_components());
}

TEST(SearchServiceEpochs, ConcurrentQueryUpdateStress) {
  auto cfg = small_corpus_config();
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(8);
  std::vector<std::size_t> shard_rows;
  std::vector<search::SearchComponent> comps;
  std::uint64_t base = 0;
  for (auto& shard : wl.shards) {
    const auto docs = shard.rows();
    shard_rows.push_back(docs);
    comps.emplace_back(std::move(shard), base, small_build_config());
    base += docs;
  }
  search::SearchService service(std::move(comps), 10);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> queries_done{0};
  // Same gate as above: the writer's 8 updates can all land before any
  // reader completes a query.
  constexpr std::uint64_t kMinQueriesPerReader = 5;
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      common::Rng qrng(t * 31 + 1);
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire) ||
             local < kMinQueriesPerReader) {
        const auto& q =
            wl.queries[qrng.uniform_index(wl.queries.size())];
        const auto top = service.exact_topk(q);
        // Merged answers stay well-formed across swaps: sorted, unique.
        for (std::size_t i = 1; i < top.size(); ++i)
          ASSERT_NE(top[i - 1].doc, top[i].doc);
        ++local;
        queries_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  common::Rng rng(7);
  for (int u = 0; u < 8; ++u) {
    const std::size_t c = u % service.num_components();
    (void)service.update_component(
        c, make_batch(gen, rng, 2, 1, shard_rows[c]));
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_GE(queries_done.load(), 3 * kMinQueriesPerReader);
  const auto es = service.epoch_stats();
  // One live epoch per component once all pins drop.
  EXPECT_EQ(es.live, service.num_components());
  EXPECT_EQ(es.retired, es.published - service.num_components());
}

// ---------------------------------------------------------------------------
// Copy-on-write epochs: an update derives the next epoch from the pinned
// one, copying only what it mutates, so a pinned epoch never changes and a
// failed update leaves no trace.
// ---------------------------------------------------------------------------

template <typename T>
std::string saved_bytes(const T& saveable) {
  std::ostringstream os(std::ios::binary);
  saveable.save(os);
  return os.str();
}

struct SearchCase {
  using Component = search::SearchComponent;
  workload::CorpusGen gen{small_corpus_config()};
  synopsis::SparseRows rows = gen.generate(1).shards[0];

  Component make() const { return Component(rows, 0, small_build_config()); }
  synopsis::SparseVector sample(common::Rng& rng) const {
    return gen.sample_doc(rng);
  }
  static const synopsis::SparseRows& data(const search::SearchSnapshot& s) {
    return s.docs();
  }
};

struct RecommenderCase {
  using Component = reco::RecommenderComponent;
  workload::RatingWorkloadGen gen{workload::RatingConfig{
      .num_components = 1, .users_per_component = 150, .num_items = 80}};
  synopsis::SparseRows rows = gen.generate(1, 1).subsets[0];

  Component make() const { return Component(rows, small_build_config()); }
  synopsis::SparseVector sample(common::Rng& rng) const {
    return gen.sample_user(rng);
  }
  static const synopsis::SparseRows& data(const reco::RecommenderSnapshot& s) {
    return s.users();
  }
};

template <typename Case>
class CopyOnWriteEpochs : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }

  synopsis::UpdateBatch batch(common::Rng& rng, std::size_t adds,
                              std::size_t changes) const {
    synopsis::UpdateBatch b;
    for (std::size_t i = 0; i < adds; ++i) b.added.push_back(c.sample(rng));
    for (std::size_t i = 0; i < changes; ++i)
      b.changed.emplace_back(
          static_cast<std::uint32_t>(rng.uniform_index(c.rows.rows())),
          c.sample(rng));
    return b;
  }

  Case c;
};

using CowCases = ::testing::Types<SearchCase, RecommenderCase>;
TYPED_TEST_SUITE(CopyOnWriteEpochs, CowCases);

TYPED_TEST(CopyOnWriteEpochs, PinnedEpochNeverChangesUnderUpdates) {
  auto comp = this->c.make();
  const auto [pinned, version] = comp.snapshot_versioned();
  const std::string before = saved_bytes(*pinned);
  common::Rng rng(19);
  for (int i = 0; i < 20; ++i) (void)comp.update(this->batch(rng, 2, 2));
  EXPECT_EQ(comp.epoch_version(), version + 20);
  EXPECT_TRUE(saved_bytes(*pinned) == before)
      << "an update mutated an epoch a reader still pins";
}

TYPED_TEST(CopyOnWriteEpochs, UpdateCopiesWhatItMutates) {
  auto comp = this->c.make();
  const auto old = comp.snapshot();
  common::Rng rng(29);
  (void)comp.update(this->batch(rng, 1, 1));
  const auto cur = comp.snapshot();
  EXPECT_NE(&TypeParam::data(*old), &TypeParam::data(*cur));
  EXPECT_NE(&old->structure(), &cur->structure());
  EXPECT_NE(&old->synopsis(), &cur->synopsis());
}

// Two failure kinds: the publish throws after the batch was applied, or
// the updater throws on a bad changed row after the adds and the first
// changes landed. Neither may leak into the next publish or its delta.
TYPED_TEST(CopyOnWriteEpochs, FailedUpdateLeavesNoTrace) {
  for (const bool bad_row : {false, true}) {
    SCOPED_TRACE(bad_row ? "updater throws" : "publish throws");
    auto comp = this->c.make();
    std::vector<synopsis::UpdateBatch> deltas;
    comp.set_delta_sink([&deltas](const synopsis::UpdateBatch& b,
                                  std::uint64_t from, std::uint64_t to) {
      EXPECT_EQ(to, from + 1);
      deltas.push_back(b);
    });
    const std::uint64_t version = comp.epoch_version();
    const std::string bytes = saved_bytes(comp);

    common::Rng rng(31);
    synopsis::UpdateBatch failed = this->batch(rng, 3, 2);
    if (bad_row) {
      failed.changed.emplace_back(1u << 30, this->c.sample(rng));
      EXPECT_THROW((void)comp.update(failed), std::out_of_range);
    } else {
      fp::set("epoch.publish", "error");
      EXPECT_THROW((void)comp.update(failed), fp::FailpointError);
      fp::clear_all();
    }
    EXPECT_EQ(comp.epoch_version(), version);
    EXPECT_TRUE(saved_bytes(comp) == bytes) << "failed update leaked";
    EXPECT_TRUE(deltas.empty());

    // The next publish equals a fresh component given only that batch.
    const synopsis::UpdateBatch next = this->batch(rng, 2, 2);
    (void)comp.update(next);
    auto fresh = this->c.make();
    (void)fresh.update(next);
    EXPECT_TRUE(saved_bytes(comp) == saved_bytes(fresh));
    ASSERT_EQ(deltas.size(), 1u);
    EXPECT_EQ(deltas[0].added, next.added);
    EXPECT_EQ(deltas[0].changed, next.changed);
  }
}

TEST(CopyOnWriteSearch, IdfRestampAndAdoptShareThePieces) {
  SearchCase c;
  auto comp = c.make();
  const auto old = comp.snapshot();
  const auto idf = std::make_shared<const std::vector<double>>(
      small_corpus_config().vocab_size, 1.0);
  comp.set_global_idf(idf);
  const auto cur = comp.snapshot();
  ASSERT_NE(old.get(), cur.get());
  EXPECT_EQ(cur->global_idf(), idf);
  EXPECT_EQ(&old->docs(), &cur->docs());
  EXPECT_EQ(&old->structure(), &cur->structure());
  EXPECT_EQ(&old->synopsis(), &cur->synopsis());

  // Reload: the adopted epoch is the loaded one, re-stamped with this
  // component's idf.
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  comp.save(ss);
  auto loaded = search::SearchComponent::load(ss);
  const auto loaded_epoch = loaded.snapshot();
  comp.adopt(std::move(loaded));
  const auto adopted = comp.snapshot();
  EXPECT_EQ(adopted->global_idf(), idf);
  EXPECT_EQ(&adopted->docs(), &loaded_epoch->docs());
  EXPECT_EQ(&adopted->structure(), &loaded_epoch->structure());
  EXPECT_EQ(&adopted->synopsis(), &loaded_epoch->synopsis());
}

// ---------------------------------------------------------------------------
// Query-cache staleness at publish time
// ---------------------------------------------------------------------------

TEST(QueryCacheEpochs, MarkStaleEpochsAnnotatesAndPenalizesOnce) {
  search::QueryCache cache(8, 1 << 20);
  const std::vector<search::ScoredDoc> docs{{1.0, 1}, {0.5, 2}};
  cache.insert({1, 2}, docs, search::ResultMeta{0.0, 5, false});
  cache.insert({3, 4}, docs, search::ResultMeta{2.0, 6, false});
  cache.insert({5, 6}, docs, search::ResultMeta{0.0, 7, false});

  // Publish moved the world to epoch 7: entries at 5 and 6 go stale.
  EXPECT_EQ(cache.mark_stale_epochs(7, 10.0), 2u);

  search::ResultMeta meta;
  std::vector<search::ScoredDoc> out;
  ASSERT_TRUE(cache.lookup({1, 2}, &out, &meta));
  EXPECT_TRUE(meta.stale);
  EXPECT_DOUBLE_EQ(meta.loss_pct, 10.0);
  ASSERT_TRUE(cache.lookup({3, 4}, &out, &meta));
  EXPECT_TRUE(meta.stale);
  EXPECT_DOUBLE_EQ(meta.loss_pct, 12.0);  // penalty on top of recorded loss
  ASSERT_TRUE(cache.lookup({5, 6}, &out, &meta));
  EXPECT_FALSE(meta.stale);  // current epoch stays fresh
  EXPECT_DOUBLE_EQ(meta.loss_pct, 0.0);

  // Idempotent: already-stale entries are not re-penalized.
  EXPECT_EQ(cache.mark_stale_epochs(8, 10.0), 1u);  // only the epoch-7 one
  ASSERT_TRUE(cache.lookup({1, 2}, &out, &meta));
  EXPECT_DOUBLE_EQ(meta.loss_pct, 10.0);
  EXPECT_EQ(cache.stats().stale_marks, 3u);
}

// ---------------------------------------------------------------------------
// DLTA delta artifacts
// ---------------------------------------------------------------------------

/// Frozen recipe for the checked-in golden (do not change): formula-based
/// rows mixing integral, fractional and >255 values so the codec exception
/// paths are inside the golden bytes.
synopsis::DeltaArtifact golden_delta() {
  synopsis::DeltaArtifact d;
  d.component = 2;
  d.from_version = 41;
  d.to_version = 42;
  for (std::uint32_t r = 0; r < 3; ++r) {
    synopsis::SparseVector row;
    for (std::uint32_t k = 0; k < 4; ++k) {
      double val = static_cast<double>((r + 1) * (k + 2));
      if (k == 1) val += 0.5;       // fractional -> codec exception
      if (k == 2) val = 260.0 + r;  // > 255 -> codec exception
      row.emplace_back(r * 3 + k * 5, val);
    }
    d.batch.added.push_back(std::move(row));
  }
  for (std::uint32_t r = 0; r < 2; ++r) {
    synopsis::SparseVector row;
    row.emplace_back(r, 1.0);
    row.emplace_back(r + 7, static_cast<double>(r) + 3.0);
    d.batch.changed.emplace_back(10 + r, std::move(row));
  }
  return d;
}

void expect_delta_eq(const synopsis::DeltaArtifact& a,
                     const synopsis::DeltaArtifact& b) {
  EXPECT_EQ(a.component, b.component);
  EXPECT_EQ(a.from_version, b.from_version);
  EXPECT_EQ(a.to_version, b.to_version);
  ASSERT_EQ(a.batch.added.size(), b.batch.added.size());
  for (std::size_t i = 0; i < a.batch.added.size(); ++i)
    EXPECT_EQ(a.batch.added[i], b.batch.added[i]);
  ASSERT_EQ(a.batch.changed.size(), b.batch.changed.size());
  for (std::size_t i = 0; i < a.batch.changed.size(); ++i) {
    EXPECT_EQ(a.batch.changed[i].first, b.batch.changed[i].first);
    EXPECT_EQ(a.batch.changed[i].second, b.batch.changed[i].second);
  }
}

TEST(DeltaArtifact, RoundTrip) {
  const auto d = golden_delta();
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  synopsis::save_delta(ss, d);
  const auto loaded = synopsis::load_delta(ss);
  expect_delta_eq(d, loaded);
}

TEST(DeltaArtifact, EmptyBatchRoundTrips) {
  synopsis::DeltaArtifact d;
  d.component = 0;
  d.from_version = 1;
  d.to_version = 2;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  synopsis::save_delta(ss, d);
  const auto loaded = synopsis::load_delta(ss);
  expect_delta_eq(d, loaded);
}

TEST(DeltaArtifact, NonAdvancingIntervalRejected) {
  synopsis::DeltaArtifact d = golden_delta();
  d.from_version = d.to_version;
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  synopsis::save_delta(ss, d);
  EXPECT_THROW(synopsis::load_delta(ss), common::ArtifactError);
}

TEST(DeltaArtifact, GoldenBytesArePinned) {
  std::ostringstream os(std::ios::binary);
  synopsis::save_delta(os, golden_delta());
  const std::string bytes = os.str();
  const std::string path =
      std::string(AT_TEST_DATA_DIR) + "/golden/atac_delta_v1.bin";
  if (std::getenv("AT_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << "could not regenerate " << path;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing golden " << path
                         << " (regenerate with AT_REGEN_GOLDEN=1)";
  std::ostringstream disk;
  disk << is.rdbuf();
  EXPECT_TRUE(bytes == disk.str())
      << "DLTA writer output drifted from the checked-in golden — if "
      << "intentional, bump the kind version and regenerate";
  // And the golden still loads back to the fixture.
  std::istringstream read_back(disk.str(), std::ios::binary);
  expect_delta_eq(golden_delta(), synopsis::load_delta(read_back));
}

TEST(DeltaArtifact, TruncationAtEveryPrefixThrowsCleanly) {
  std::ostringstream os(std::ios::binary);
  synopsis::save_delta(os, golden_delta());
  const std::string bytes = os.str();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::istringstream is(bytes.substr(0, n), std::ios::binary);
    EXPECT_THROW(synopsis::load_delta(is), common::ArtifactError) << n;
  }
}

TEST(DeltaArtifact, BitFlipFuzzNeverCrashesAndMostlyDetects) {
  std::ostringstream os(std::ios::binary);
  synopsis::save_delta(os, golden_delta());
  const std::string bytes = os.str();
  common::Rng rng(20160816);
  for (int trial = 0; trial < 300; ++trial) {
    std::string corrupt = bytes;
    const std::size_t pos = rng.uniform_index(corrupt.size());
    corrupt[pos] = static_cast<char>(
        corrupt[pos] ^ static_cast<char>(1 << rng.uniform_index(8)));
    std::istringstream is(corrupt, std::ios::binary);
    try {
      const auto loaded = synopsis::load_delta(is);
      // A flip inside f64 payload bits can survive the CRC only by
      // landing in a value; structure must still be intact.
      EXPECT_EQ(loaded.batch.added.size(), golden_delta().batch.added.size());
    } catch (const common::ArtifactError&) {
      // detected: the expected outcome for nearly all flips
    }
  }
}

TEST(DeltaArtifact, WriteFailpointAbortsBeforeAnyBytes) {
  fp::clear_all();
  fp::set("artifact.delta_write", "error");
  std::ostringstream os(std::ios::binary);
  EXPECT_THROW(synopsis::save_delta(os, golden_delta()),
               common::ArtifactError);
  EXPECT_TRUE(os.str().empty());  // no half-framed container
  fp::clear_all();
  synopsis::save_delta(os, golden_delta());
  EXPECT_FALSE(os.str().empty());
}

// ---------------------------------------------------------------------------
// Delta stream end to end: publish emits, standby replays to identical state
// ---------------------------------------------------------------------------

TEST(DeltaStream, SinkFiresPerPublishInVersionOrderAndReplayConverges) {
  auto cfg = small_corpus_config();
  cfg.num_components = 1;
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(4);
  const std::size_t rows = wl.shards[0].rows();
  auto shard_copy = wl.shards[0];  // standby starts from the same snapshot
  search::SearchComponent live(std::move(wl.shards[0]), 0,
                               small_build_config());
  search::SearchComponent standby(std::move(shard_copy), 0,
                                  small_build_config());

  std::vector<synopsis::DeltaArtifact> stream;
  live.set_delta_sink([&stream](const synopsis::UpdateBatch& batch,
                                std::uint64_t from, std::uint64_t to) {
    synopsis::DeltaArtifact d;
    d.component = 0;
    d.from_version = from;
    d.to_version = to;
    d.batch = batch;
    // Round-trip through the wire format: the standby tails files, not
    // in-process batches.
    std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
    synopsis::save_delta(ss, d);
    stream.push_back(synopsis::load_delta(ss));
  });

  common::Rng rng(3);
  constexpr int kPublishes = 4;
  for (int i = 0; i < kPublishes; ++i)
    (void)live.update(make_batch(gen, rng, 2, 1, rows));

  ASSERT_EQ(stream.size(), static_cast<std::size_t>(kPublishes));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].to_version, stream[i].from_version + 1);
    if (i > 0) {
      EXPECT_EQ(stream[i].from_version, stream[i - 1].to_version);
    }
  }

  // Standby replay: applying the tailed batches in order reproduces the
  // live component bit-for-bit (deterministic SynopsisUpdater::apply).
  for (const auto& d : stream) {
    ASSERT_EQ(standby.epoch_version(), d.from_version);
    (void)standby.update(d.batch);
  }
  std::ostringstream live_bytes(std::ios::binary),
      standby_bytes(std::ios::binary);
  live.save(live_bytes);
  standby.save(standby_bytes);
  EXPECT_TRUE(live_bytes.str() == standby_bytes.str())
      << "replayed standby diverged from the live component";
}

}  // namespace
}  // namespace at
