// Search service tests: tokenizer/vocabulary, inverted index vs. naive
// scoring, top-k, component decomposition, service-level techniques.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/artifact.h"
#include "common/failpoint.h"
#include "services/search/component.h"
#include "services/search/inverted_index.h"
#include "services/search/query_cache.h"
#include "services/search/service.h"
#include "services/search/text.h"
#include "services/search/topk.h"
#include "workload/corpus.h"

namespace at::search {
namespace {

synopsis::BuildConfig test_build_config() {
  synopsis::BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 40;
  cfg.size_ratio = 10.0;
  return cfg;
}

TEST(Tokenizer, LowercasesAndSplits) {
  const auto tokens = tokenize("Hello, World! C++20 rocks");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "c");
  EXPECT_EQ(tokens[3], "20");
  EXPECT_EQ(tokens[4], "rocks");
}

TEST(Tokenizer, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(tokenize("").empty());
  EXPECT_TRUE(tokenize("!!! ... ---").empty());
}

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  const auto a = v.intern("apple");
  const auto b = v.intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(v.intern("apple"), a);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.word(a), "apple");
  EXPECT_EQ(v.lookup("cherry"), Vocabulary::kNotFound);
}

TEST(VocabularyTest, TextToCountsAndTerms) {
  Vocabulary v;
  const auto counts = text_to_counts("the cat and the hat", v);
  // "the" appears twice.
  EXPECT_DOUBLE_EQ(synopsis::value_at(counts, v.lookup("the")), 2.0);
  EXPECT_DOUBLE_EQ(synopsis::value_at(counts, v.lookup("cat")), 1.0);
  const auto terms = text_to_terms("cat unknownword", v);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0], v.lookup("cat"));
}

TEST(TopKTest, KeepsBestK) {
  TopK top(3);
  for (int i = 0; i < 10; ++i) top.offer(static_cast<double>(i), i);
  const auto r = top.take();
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].doc, 9u);
  EXPECT_EQ(r[1].doc, 8u);
  EXPECT_EQ(r[2].doc, 7u);
}

TEST(TopKTest, TieBreaksByDocId) {
  TopK top(2);
  top.offer(1.0, 42);
  top.offer(1.0, 7);
  top.offer(1.0, 99);
  const auto r = top.take();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].doc, 7u);
  EXPECT_EQ(r[1].doc, 42u);
}

TEST(TopKTest, FewerThanK) {
  TopK top(10);
  top.offer(2.0, 1);
  top.offer(1.0, 2);
  const auto r = top.take();
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].doc, 1u);
}

TEST(TopKTest, ZeroKThrows) { EXPECT_THROW(TopK(0), std::invalid_argument); }

TEST(TopKTest, OverlapMetric) {
  std::vector<ScoredDoc> actual{{3, 1}, {2, 2}, {1, 3}};
  std::vector<ScoredDoc> retrieved{{9, 1}, {9, 3}, {9, 99}};
  EXPECT_NEAR(topk_overlap(retrieved, actual), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(topk_overlap({}, actual), 0.0);
  EXPECT_DOUBLE_EQ(topk_overlap(retrieved, {}), 1.0);
}

synopsis::SparseRows tiny_docs() {
  synopsis::SparseRows docs(6);
  docs.add_row({{0, 3.0}, {1, 1.0}});           // doc 0: heavy on term 0
  docs.add_row({{1, 2.0}, {2, 2.0}});           // doc 1
  docs.add_row({{0, 1.0}, {2, 1.0}, {3, 1.0}}); // doc 2
  docs.add_row({{4, 5.0}});                     // doc 3: only rare term 4
  return docs;
}

// ---------------------------------------------------------------------------
// ScoreAccumulator epoch/stamp regressions
// ---------------------------------------------------------------------------

TEST(ScoreAccumulatorTest, MultipleQueriesAfterResizeStayIndependent) {
  // Regression: growing the scratch mid-stream must not let the freshly
  // zero-stamped slots (or stale small-index stamps) read as "already
  // touched", and repeated queries must never accumulate across epochs.
  ScoreAccumulator acc;
  acc.begin(4);
  acc.add(0, 1.0);
  acc.add(0, 2.0);
  EXPECT_DOUBLE_EQ(acc.score(0), 3.0);

  acc.begin(64);  // resize
  for (int q = 0; q < 3; ++q) {
    acc.begin(64);
    acc.add(0, 1.0);
    acc.add(63, 5.0);
    acc.add(63, 5.0);
    ASSERT_EQ(acc.touched().size(), 2u) << "query " << q;
    EXPECT_DOUBLE_EQ(acc.score(0), 1.0) << "query " << q;
    EXPECT_DOUBLE_EQ(acc.score(63), 10.0) << "query " << q;
  }
}

TEST(ScoreAccumulatorTest, EpochWraparoundClearsStamps) {
  ScoreAccumulator acc;
  acc.begin(8);
  acc.add(2, 7.0);  // stamp slot 2 with a pre-wrap epoch
  acc.set_epoch_for_test(0xFFFFFFFFu);
  for (int q = 0; q < 3; ++q) {  // crosses the wrap on the first begin
    acc.begin(8);
    EXPECT_NE(acc.epoch(), 0u) << "epoch 0 is reserved for cleared stamps";
    acc.add(2, 1.0);
    acc.add(5, 2.0);
    ASSERT_EQ(acc.touched().size(), 2u) << "query " << q;
    EXPECT_DOUBLE_EQ(acc.score(2), 1.0) << "stale stamp resurrected";
    EXPECT_DOUBLE_EQ(acc.score(5), 2.0);
  }
}

TEST(ScoreAccumulatorTest, WrapThenResizeKeepsNewSlotsUntouched) {
  ScoreAccumulator acc;
  acc.set_epoch_for_test(0xFFFFFFFEu);
  acc.begin(4);   // epoch -> 0xFFFFFFFF
  acc.begin(4);   // wraps: stamps cleared, epoch -> 1
  acc.begin(16);  // resize right after the wrap: new slots stamped 0
  acc.add(10, 4.0);
  acc.add(1, 2.0);
  ASSERT_EQ(acc.touched().size(), 2u);
  EXPECT_DOUBLE_EQ(acc.score(10), 4.0);
  EXPECT_DOUBLE_EQ(acc.score(1), 2.0);
}

TEST(ScoreAccumulatorTest, BulkFreshPathMatchesSlowPathExactly) {
  // Parity guard for the fresh-epoch fast path: bulk_add_fresh must leave
  // the accumulator in the exact state of per-posting add() calls — same
  // scores, same touched order, and identical interaction with later
  // stamped adds.
  const std::uint32_t docs[] = {3, 7, 8, 20, 21, 22, 40};
  const double scores[] = {0.5, 1.25, -2.0, 0.0, 3.5, 7.0, 0.125};
  const std::size_t n = sizeof(docs) / sizeof(docs[0]);

  ScoreAccumulator slow, fast;
  slow.begin(64);
  for (std::size_t i = 0; i < n; ++i) slow.add(docs[i], scores[i]);
  fast.begin(64);
  fast.bulk_add_fresh(docs, scores, n);
  ASSERT_EQ(fast.touched(), slow.touched());
  for (auto d : slow.touched()) EXPECT_EQ(fast.score(d), slow.score(d));

  // Second-term adds (stamped path) behave identically on both.
  const std::uint32_t docs2[] = {7, 8, 9};
  for (auto* acc : {&slow, &fast}) {
    acc->add(docs2[0], 1.0);
    acc->add(docs2[1], 2.0);
    acc->add(docs2[2], 4.0);
  }
  ASSERT_EQ(fast.touched(), slow.touched());
  for (auto d : slow.touched()) EXPECT_EQ(fast.score(d), slow.score(d));
}

TEST(InvertedIndexTest, FirstTermFastPathParityWithRepeatedTerms) {
  // End-to-end parity: the accumulate() fast path kicks in for the first
  // scored term; a query repeating that term must still double its
  // contribution (the repeat takes the stamped path).
  auto docs = tiny_docs();
  const InvertedIndex idx(docs);
  const auto once = idx.topk({0}, 0, 10);
  const auto twice = idx.topk({0, 0}, 0, 10);
  ASSERT_EQ(once.size(), twice.size());
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_EQ(twice[i].doc, once[i].doc);
    EXPECT_DOUBLE_EQ(twice[i].score, 2.0 * once[i].score);
  }
}

TEST(InvertedIndexTest, RepeatedQueriesAfterIndexGrowthMatchFreshIndex) {
  // Thread-local scratch resizes when a bigger index scores on the same
  // thread; >1 query after the resize must still match a cold computation.
  auto small = tiny_docs();
  const InvertedIndex idx_small(small);
  (void)idx_small.topk({0, 2}, 0, 5);

  synopsis::SparseRows big(6);
  for (int i = 0; i < 40; ++i)
    big.add_row({{static_cast<std::uint32_t>(i % 6), 1.0 + i % 3}});
  const InvertedIndex idx_big(big);
  for (int q = 0; q < 3; ++q) {
    std::vector<ScoredDoc> scored;
    idx_big.score_query({0, 1, 2}, 0, scored);
    for (const auto& sd : scored) {
      const auto d = static_cast<std::uint32_t>(sd.doc);
      double raw = 0.0;
      for (std::uint32_t t : {0u, 1u, 2u}) {
        const double tf = synopsis::value_at(big.row(d), t);
        if (tf > 0) raw += std::sqrt(tf) * idx_big.idf(t);
      }
      EXPECT_NEAR(sd.score, raw / std::sqrt(idx_big.doc_length(d)), 1e-12)
          << "query " << q << " doc " << d;
    }
  }
}

TEST(InvertedIndexTest, PostingsAndDf) {
  const InvertedIndex idx(tiny_docs());
  EXPECT_EQ(idx.num_docs(), 4u);
  EXPECT_EQ(idx.doc_frequency(0), 2u);
  EXPECT_EQ(idx.doc_frequency(4), 1u);
  EXPECT_EQ(idx.doc_frequency(5), 0u);
  EXPECT_EQ(idx.postings(0).size(), 2u);
  EXPECT_DOUBLE_EQ(idx.doc_length(0), 4.0);
}

TEST(InvertedIndexTest, UnknownTermSafe) {
  const InvertedIndex idx(tiny_docs());
  EXPECT_TRUE(idx.postings(100).empty());
  EXPECT_EQ(idx.doc_frequency(100), 0u);
  const auto r = idx.topk({100}, 0, 5);
  EXPECT_TRUE(r.empty());
}

TEST(InvertedIndexTest, ScoreMatchesNaiveFormula) {
  const auto docs = tiny_docs();
  const InvertedIndex idx(docs);
  const std::vector<std::uint32_t> q{0, 2};
  std::vector<ScoredDoc> scored;
  idx.score_query(q, 0, scored);

  // Naive recomputation per doc.
  for (const auto& sd : scored) {
    const auto d = static_cast<std::uint32_t>(sd.doc);
    double raw = 0.0;
    for (auto t : q) {
      const double tf = synopsis::value_at(docs.row(d), t);
      if (tf > 0) raw += std::sqrt(tf) * idx.idf(t);
    }
    const double expect = raw / std::sqrt(idx.doc_length(d));
    EXPECT_NEAR(sd.score, expect, 1e-12) << "doc " << d;
  }
  // Only matching docs are scored: doc 3 matches neither term.
  for (const auto& sd : scored) EXPECT_NE(sd.doc, 3u);
}

TEST(InvertedIndexTest, IdfPenalizesCommonTerms) {
  const InvertedIndex idx(tiny_docs());
  EXPECT_GT(idx.idf(4), idx.idf(0));  // rarer term, higher idf
}

TEST(InvertedIndexTest, GlobalIdfOverride) {
  InvertedIndex idx(tiny_docs());
  auto idf = std::make_shared<const std::vector<double>>(
      std::vector<double>{10.0, 0.0, 0.0, 0.0, 0.0, 0.0});
  idx.set_global_idf(idf);
  const auto r = idx.topk({0, 4}, 0, 4);
  ASSERT_FALSE(r.empty());
  // With idf(4) forced to 0, only term-0 docs can score.
  for (const auto& d : r) EXPECT_NE(d.doc, 3u);
}

TEST(InvertedIndexTest, ScoreCountsMatchesDocScoring) {
  const auto docs = tiny_docs();
  const InvertedIndex idx(docs);
  const std::vector<std::uint32_t> q{0, 1};
  // Scoring doc 0's counts through score_counts must equal its score.
  std::vector<ScoredDoc> scored;
  idx.score_query(q, 0, scored);
  const auto it =
      std::find_if(scored.begin(), scored.end(),
                   [](const ScoredDoc& d) { return d.doc == 0; });
  ASSERT_NE(it, scored.end());
  EXPECT_NEAR(idx.score_counts(q, docs.row(0), idx.doc_length(0)), it->score,
              1e-12);
}

TEST(InvertedIndexTest, SizeStatsCountPostings) {
  const InvertedIndex idx(tiny_docs());
  const auto s = idx.size_stats();
  EXPECT_EQ(s.postings, 8u);  // total entries across the 4 docs
  // tf-idf raw layout: term_ptr (7 * 8B) + 20B per posting.
  EXPECT_EQ(s.raw_bytes, 7 * sizeof(std::size_t) + 8 * 20);
  EXPECT_GT(s.compressed_bytes, 0u);
  EXPECT_GT(s.ratio(), 0.0);
}

TEST(Bm25, MatchesClosedForm) {
  const auto docs = tiny_docs();
  ScorerParams params;
  params.scorer = Scorer::kBm25;
  const InvertedIndex idx(docs, params);
  const std::vector<std::uint32_t> q{0};
  std::vector<ScoredDoc> scored;
  idx.score_query(q, 0, scored);
  ASSERT_FALSE(scored.empty());
  for (const auto& sd : scored) {
    const auto d = static_cast<std::uint32_t>(sd.doc);
    const double tf = synopsis::value_at(docs.row(d), 0);
    const double k1 = params.bm25_k1, b = params.bm25_b;
    const double norm =
        k1 * (1.0 - b + b * idx.doc_length(d) / idx.mean_doc_length());
    const double expect = idx.idf(0) * tf * (k1 + 1.0) / (tf + norm);
    EXPECT_NEAR(sd.score, expect, 1e-12);
  }
}

TEST(Bm25, TermFrequencySaturates) {
  // BM25's tf term saturates: doubling tf far less than doubles the score.
  synopsis::SparseRows docs(2);
  docs.add_row({{0, 1.0}, {1, 9.0}});   // doc 0: tf=1
  docs.add_row({{0, 10.0}});            // doc 1: tf=10, same length
  ScorerParams params;
  params.scorer = Scorer::kBm25;
  const InvertedIndex idx(docs, params);
  std::vector<ScoredDoc> scored;
  idx.score_query({0}, 0, scored);
  ASSERT_EQ(scored.size(), 2u);
  double s0 = 0, s1 = 0;
  for (const auto& d : scored) (d.doc == 0 ? s0 : s1) = d.score;
  EXPECT_GT(s1, s0);            // more matches still scores higher
  EXPECT_LT(s1, s0 * 3.0);      // but nowhere near 10x
}

TEST(Bm25, LongDocsPenalized) {
  synopsis::SparseRows docs(3);
  docs.add_row({{0, 2.0}});                         // short doc
  docs.add_row({{0, 2.0}, {1, 20.0}, {2, 20.0}});   // same tf, much longer
  ScorerParams params;
  params.scorer = Scorer::kBm25;
  const InvertedIndex idx(docs, params);
  std::vector<ScoredDoc> scored;
  idx.score_query({0}, 0, scored);
  ASSERT_EQ(scored.size(), 2u);
  double s_short = 0, s_long = 0;
  for (const auto& d : scored) (d.doc == 0 ? s_short : s_long) = d.score;
  EXPECT_GT(s_short, s_long);
}

TEST(Bm25, MeanDocLengthComputed) {
  const InvertedIndex idx(tiny_docs());
  // Lengths: 4, 4, 3, 5 -> mean 4.
  EXPECT_DOUBLE_EQ(idx.mean_doc_length(), 4.0);
}

TEST(TopKTest, OverlapBounds) {
  common::Rng rng(91);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ScoredDoc> a, b;
    for (int i = 0; i < 10; ++i) {
      a.push_back({rng.uniform(), rng.uniform_index(30)});
      b.push_back({rng.uniform(), rng.uniform_index(30)});
    }
    const double o = topk_overlap(a, b);
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 1.0);
    EXPECT_DOUBLE_EQ(topk_overlap(a, a), 1.0);  // self-overlap is perfect
  }
}

// Scorer-agnostic ranking invariants across both scorers.
class ScorerInvariants : public ::testing::TestWithParam<Scorer> {};

TEST_P(ScorerInvariants, ScoresPositiveAndOnlyForMatches) {
  ScorerParams params;
  params.scorer = GetParam();
  const auto docs = tiny_docs();
  const InvertedIndex idx(docs, params);
  for (std::uint32_t term = 0; term < 6; ++term) {
    std::vector<ScoredDoc> scored;
    idx.score_query({term}, 0, scored);
    EXPECT_EQ(scored.size(), idx.doc_frequency(term));
    for (const auto& d : scored) {
      EXPECT_GT(d.score, 0.0);
      EXPECT_GT(synopsis::value_at(docs.row(static_cast<std::uint32_t>(d.doc)),
                                   term),
                0.0);
    }
  }
}

TEST_P(ScorerInvariants, HigherTfScoresHigherAtEqualLength) {
  ScorerParams params;
  params.scorer = GetParam();
  synopsis::SparseRows docs(3);
  docs.add_row({{0, 4.0}, {1, 4.0}});  // tf(0) = 4, length 8
  docs.add_row({{0, 1.0}, {1, 7.0}});  // tf(0) = 1, length 8
  const InvertedIndex idx(docs, params);
  std::vector<ScoredDoc> scored;
  idx.score_query({0}, 0, scored);
  ASSERT_EQ(scored.size(), 2u);
  double s0 = 0, s1 = 0;
  for (const auto& d : scored) (d.doc == 0 ? s0 : s1) = d.score;
  EXPECT_GT(s0, s1);
}

INSTANTIATE_TEST_SUITE_P(Scorers, ScorerInvariants,
                         ::testing::Values(Scorer::kTfIdf, Scorer::kBm25));

TEST(MergeIdf, CombinesDocumentFrequencies) {
  const std::vector<std::vector<std::uint32_t>> dfs{{2, 0}, {1, 1}};
  const auto idf = merge_idf(dfs, 10);
  ASSERT_EQ(idf.size(), 2u);
  EXPECT_NEAR(idf[0], std::log(1.0 + 10.0 / 4.0), 1e-12);
  EXPECT_NEAR(idf[1], std::log(1.0 + 10.0 / 2.0), 1e-12);
  EXPECT_GT(idf[1], idf[0]);
}

// ---------------------------------------------------------------------------
// QueryCache
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, HitMissAndStats) {
  QueryCache cache(4);
  std::vector<ScoredDoc> out;
  EXPECT_FALSE(cache.lookup({1, 2}, &out));
  cache.insert({1, 2}, {{1.0, 7}});
  EXPECT_TRUE(cache.lookup({1, 2}, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].doc, 7u);
  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(QueryCacheTest, KeyIsTheTermSequenceAsSent) {
  // The scan sums per-term scores in the order sent and scores a repeated
  // term twice, so a reordered or repeated query may have another answer.
  QueryCache cache(4);
  cache.insert({3, 1, 2}, {{1.0, 9}});
  std::vector<ScoredDoc> out;
  EXPECT_TRUE(cache.lookup({3, 1, 2}, &out));
  EXPECT_FALSE(cache.lookup({2, 3, 1}, &out));     // reordered
  EXPECT_FALSE(cache.lookup({3, 1, 1, 2}, &out));  // repeated term
  EXPECT_FALSE(cache.lookup({1, 2}, &out));
  // canonical_key is the term set, not the cache key.
  EXPECT_EQ(QueryCache::canonical_key({3, 1, 1, 2}),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(QueryCacheTest, LruEviction) {
  QueryCache cache(2);
  cache.insert({1}, {});
  cache.insert({2}, {});
  EXPECT_TRUE(cache.lookup({1}, nullptr));  // refresh {1}; {2} is LRU now
  cache.insert({3}, {});                    // evicts {2}
  EXPECT_TRUE(cache.lookup({1}, nullptr));
  EXPECT_TRUE(cache.lookup({3}, nullptr));
  EXPECT_FALSE(cache.lookup({2}, nullptr));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(QueryCacheTest, InsertExistingRefreshes) {
  QueryCache cache(2);
  cache.insert({1}, {{1.0, 1}});
  cache.insert({1}, {{2.0, 2}});
  EXPECT_EQ(cache.size(), 1u);
  std::vector<ScoredDoc> out;
  EXPECT_TRUE(cache.lookup({1}, &out));
  EXPECT_EQ(out[0].doc, 2u);
}

TEST(QueryCacheTest, InvalidateAll) {
  QueryCache cache(4);
  cache.insert({1}, {});
  cache.insert({2}, {});
  cache.invalidate_all();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup({1}, nullptr));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(QueryCacheTest, ZeroCapacityThrows) {
  EXPECT_THROW(QueryCache(0), std::invalid_argument);
}

TEST(QueryCacheTest, StatsAcrossFullLifecycle) {
  // Counter semantics through insert/refresh/evict/invalidate sequences on
  // the hashed index: refreshing an existing key counts neither insertion
  // nor eviction, invalidation clears entries but keeps counters running.
  QueryCache cache(2);
  cache.insert({1}, {});
  cache.insert({2}, {});
  cache.insert({2}, {});  // refresh, not an insertion
  EXPECT_EQ(cache.stats().insertions, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  cache.insert({3}, {});  // evicts {1}
  cache.insert({4}, {});  // evicts {2}
  EXPECT_EQ(cache.stats().insertions, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_FALSE(cache.lookup({1}, nullptr));
  EXPECT_TRUE(cache.lookup({4}, nullptr));
  cache.invalidate_all();
  EXPECT_FALSE(cache.lookup({4}, nullptr));
  const auto s = cache.stats();
  EXPECT_EQ(s.invalidations, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 1.0 / 3.0);
  EXPECT_EQ(cache.size(), 0u);
  // The cache keeps working after invalidation (index and list agree).
  cache.insert({5}, {{1.0, 11}});
  std::vector<ScoredDoc> out;
  EXPECT_TRUE(cache.lookup({5}, &out));
  EXPECT_EQ(out[0].doc, 11u);
}

TEST(QueryCacheTest, ManyKeysHashedIndexStaysConsistent) {
  // Churn far past capacity: size never exceeds the bound, the newest
  // window of keys stays resident, and hits equal list membership (the
  // hashed index and the LRU list cannot drift apart).
  QueryCache cache(16);
  for (std::uint32_t i = 0; i < 400; ++i) {
    cache.insert({i, i + 1, i + 2}, {{static_cast<double>(i), i}});
    ASSERT_LE(cache.size(), 16u);
  }
  EXPECT_EQ(cache.stats().insertions, 400u);
  EXPECT_EQ(cache.stats().evictions, 384u);
  std::vector<ScoredDoc> out;
  for (std::uint32_t i = 384; i < 400; ++i) {
    ASSERT_TRUE(cache.lookup({i, i + 1, i + 2}, &out)) << i;
    EXPECT_EQ(out[0].doc, i);
  }
  for (std::uint32_t i = 0; i < 384; ++i) {
    ASSERT_FALSE(cache.lookup({i, i + 1, i + 2}, nullptr)) << i;
  }
}

class SearchServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::CorpusConfig cfg;
    cfg.num_components = 3;
    cfg.docs_per_component = 120;
    cfg.vocab_size = 500;
    cfg.num_topics = 8;
    cfg.topic_vocab = 40;
    cfg.seed = 23;
    workload::CorpusGen gen(cfg);
    auto wl = gen.generate(25);
    queries_ = std::move(wl.queries);
    std::vector<SearchComponent> comps;
    std::uint64_t base = 0;
    for (auto& shard : wl.shards) {
      const auto docs = shard.rows();
      comps.emplace_back(std::move(shard), base, test_build_config());
      base += docs;
    }
    service_ = std::make_unique<SearchService>(std::move(comps), 10);
  }

  std::vector<SearchRequest> queries_;
  std::unique_ptr<SearchService> service_;
};

TEST_F(SearchServiceTest, ExactTopkIsGloballyConsistent) {
  const auto top = service_->exact_topk(queries_[0]);
  EXPECT_LE(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_TRUE(better(top[i - 1], top[i]) ||
                (top[i - 1].score == top[i].score));
  }
}

TEST_F(SearchServiceTest, ComponentDecompositionCoversExact) {
  // Union of per-group scored docs == component's full match set.
  const auto& comp = service_->component(0);
  const auto work = comp.analyze(queries_[0]);
  std::size_t by_group = 0;
  for (const auto& g : work.scored_by_group) by_group += g.size();
  std::vector<ScoredDoc> all;
  comp.index().score_query(queries_[0].terms, comp.doc_id_base(), all);
  EXPECT_EQ(by_group, all.size());
}

TEST_F(SearchServiceTest, AllSetsEqualsExact) {
  std::vector<ComponentOutcome> outcomes(service_->num_components());
  for (auto& o : outcomes) o.sets = 1000000;
  for (std::size_t q = 0; q < 5; ++q) {
    const auto exact = service_->exact_topk(queries_[q]);
    const auto approx = service_->retrieve(
        queries_[q], core::Technique::kAccuracyTrader, outcomes);
    EXPECT_DOUBLE_EQ(topk_overlap(approx, exact), 1.0) << "query " << q;
  }
}

TEST_F(SearchServiceTest, PartialAllIncludedEqualsExact) {
  std::vector<ComponentOutcome> outcomes(service_->num_components());
  const auto exact = service_->exact_topk(queries_[1]);
  const auto got = service_->retrieve(
      queries_[1], core::Technique::kPartialExecution, outcomes);
  EXPECT_DOUBLE_EQ(topk_overlap(got, exact), 1.0);
}

TEST_F(SearchServiceTest, PartialNoneIncludedReturnsNothing) {
  std::vector<ComponentOutcome> outcomes(service_->num_components());
  for (auto& o : outcomes) o.included = false;
  const auto got = service_->retrieve(
      queries_[1], core::Technique::kPartialExecution, outcomes);
  EXPECT_TRUE(got.empty());
}

TEST_F(SearchServiceTest, StageOneFallbackPadsToK) {
  // Zero sets processed anywhere: the initial synopsis-only result should
  // still return up to k candidate pages.
  std::vector<ComponentOutcome> outcomes(service_->num_components());
  for (auto& o : outcomes) o.sets = 0;
  const auto got = service_->retrieve(
      queries_[0], core::Technique::kAccuracyTrader, outcomes);
  EXPECT_GT(got.size(), 0u);
  EXPECT_LE(got.size(), 10u);
}

TEST_F(SearchServiceTest, AccuracyImprovesWithSets) {
  auto acc_with_sets = [&](std::uint32_t sets) {
    ComponentOutcome o;
    o.sets = sets;
    const auto res = service_->evaluate_uniform(
        queries_, core::Technique::kAccuracyTrader, o);
    return res.accuracy;
  };
  const double a0 = acc_with_sets(0);
  const double a2 = acc_with_sets(2);
  const double a_all = acc_with_sets(1000000);
  EXPECT_DOUBLE_EQ(a_all, 1.0);
  EXPECT_LE(a0, a2 + 1e-9);
  EXPECT_LE(a2, a_all + 1e-9);
}

TEST_F(SearchServiceTest, TopRankedGroupsCarryMostAccuracy) {
  // The paper's central claim (Fig. 4b): processing only the top-ranked
  // 40% of groups should already find most of the actual top-10.
  std::size_t max_groups = 0;
  for (std::size_t c = 0; c < service_->num_components(); ++c)
    max_groups = std::max(max_groups, service_->component(c).num_groups());
  ComponentOutcome o;
  o.sets = static_cast<std::uint32_t>(max_groups * 2 / 5 + 1);
  const auto res = service_->evaluate_uniform(
      queries_, core::Technique::kAccuracyTrader, o);
  EXPECT_GT(res.accuracy, 0.75);
}

TEST_F(SearchServiceTest, EvaluateExactIsPerfect) {
  const auto res = service_->evaluate_uniform(
      queries_, core::Technique::kBasic, {});
  EXPECT_DOUBLE_EQ(res.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(res.loss_pct, 0.0);
}

TEST_F(SearchServiceTest, ComponentSaveLoadRoundTrip) {
  const auto& comp = service_->component(1);
  std::stringstream buf;
  comp.save(buf);
  SearchComponent loaded = SearchComponent::load(buf);
  EXPECT_EQ(loaded.num_docs(), comp.num_docs());
  EXPECT_EQ(loaded.num_groups(), comp.num_groups());
  EXPECT_EQ(loaded.doc_id_base(), comp.doc_id_base());

  // The loaded component uses its *local* idf until a service reinstalls
  // the corpus-global table, so round-trip determinism is asserted on a
  // second save/load rather than against the in-service component.
  const auto terms = queries_[0].terms;
  const auto a = loaded.exact_topk(SearchRequest{terms}, 5);
  std::stringstream buf2;
  loaded.save(buf2);
  SearchComponent loaded2 = SearchComponent::load(buf2);
  const auto b = loaded2.exact_topk(SearchRequest{terms}, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].doc, b[i].doc);
    EXPECT_DOUBLE_EQ(a[i].score, b[i].score);
  }
}

TEST(SearchComponent, SaveLoadScoresBitIdentical) {
  // A standalone component scores with its local idf on both sides of the
  // round trip, so every loaded top-k score must match bit for bit — this
  // pins the v2 compressed on-disk format to the exact decoded tf values.
  workload::CorpusConfig cfg;
  cfg.num_components = 1;
  cfg.docs_per_component = 80;
  cfg.vocab_size = 300;
  cfg.num_topics = 5;
  cfg.seed = 77;
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(15);
  SearchComponent comp(std::move(wl.shards[0]), 42, test_build_config());

  std::stringstream buf;
  comp.save(buf);
  SearchComponent loaded = SearchComponent::load(buf);
  ASSERT_EQ(loaded.num_docs(), comp.num_docs());
  for (const auto& q : wl.queries) {
    const auto a = comp.exact_topk(q, 10);
    const auto b = loaded.exact_topk(q, 10);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].doc, b[i].doc);
      EXPECT_EQ(a[i].score, b[i].score);  // bitwise
    }
  }
  const auto sa = comp.index_size();
  const auto sb = loaded.index_size();
  EXPECT_EQ(sa.postings, sb.postings);
  EXPECT_EQ(sa.compressed_bytes, sb.compressed_bytes);
}

TEST(SearchComponentBm25, EndToEndWithBm25Scorer) {
  workload::CorpusConfig cfg;
  cfg.num_components = 1;
  cfg.docs_per_component = 100;
  cfg.vocab_size = 400;
  cfg.num_topics = 6;
  workload::CorpusGen gen(cfg);
  auto wl = gen.generate(10);
  ScorerParams scorer;
  scorer.scorer = Scorer::kBm25;
  SearchComponent comp(std::move(wl.shards[0]), 0, test_build_config(),
                       scorer);
  for (const auto& q : wl.queries) {
    const auto top = comp.exact_topk(q, 10);
    for (std::size_t i = 1; i < top.size(); ++i) {
      EXPECT_TRUE(better(top[i - 1], top[i]) ||
                  top[i - 1].score == top[i].score);
    }
    // Group correlations must use the same scorer (positive where matches
    // exist).
    const auto work = comp.analyze(q);
    double max_corr = 0.0;
    for (double c : work.correlations) max_corr = std::max(max_corr, c);
    if (!top.empty()) {
      EXPECT_GT(max_corr, 0.0);
    }
  }
}

// ---------------------------------------------------------------------------
// Byte-budget bound (the entry-count bound alone does not cap memory when
// result sizes vary per query)
// ---------------------------------------------------------------------------

TEST(QueryCacheTest, ByteBudgetEvictsLruAndTracksBytes) {
  // Room for exactly two of these entries; the third insert must evict the
  // least recently used even though the entry-count bound (100) is far off.
  const std::size_t per_entry = QueryCache::entry_footprint(3, 2);
  QueryCache cache(100, 2 * per_entry);
  cache.insert({1, 2, 3}, {{1.0, 1}, {0.5, 2}});
  cache.insert({4, 5, 6}, {{1.0, 3}, {0.5, 4}});
  EXPECT_EQ(cache.stats().bytes, 2 * per_entry);
  EXPECT_EQ(cache.stats().evictions, 0u);

  cache.insert({7, 8, 9}, {{1.0, 5}, {0.5, 6}});
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().bytes, 2 * per_entry);
  EXPECT_FALSE(cache.lookup({1, 2, 3}, nullptr));   // LRU victim
  EXPECT_TRUE(cache.lookup({4, 5, 6}, nullptr));
  EXPECT_TRUE(cache.lookup({7, 8, 9}, nullptr));
}

TEST(QueryCacheTest, ByteBudgetEvictsSeveralForOneLargeEntry) {
  const std::size_t small = QueryCache::entry_footprint(1, 1);
  QueryCache cache(100, 4 * small);
  for (std::uint32_t i = 0; i < 4; ++i) cache.insert({i}, {{1.0, i}});
  ASSERT_EQ(cache.size(), 4u);
  // One entry worth ~3 small ones evicts as many LRU entries as needed.
  std::vector<ScoredDoc> big;
  const std::size_t big_docs =
      (3 * small - QueryCache::entry_footprint(1, 0)) / sizeof(ScoredDoc);
  for (std::size_t d = 0; d < big_docs; ++d)
    big.push_back({1.0, 100 + static_cast<std::uint64_t>(d)});
  cache.insert({99}, big);
  EXPECT_LE(cache.stats().bytes, 4 * small);
  EXPECT_TRUE(cache.lookup({99}, nullptr));
  EXPECT_FALSE(cache.lookup({0}, nullptr));  // oldest went first
}

TEST(QueryCacheTest, OversizedEntryIsRejectedNotCached) {
  QueryCache cache(100, 256);
  std::vector<ScoredDoc> huge(64, ScoredDoc{1.0, 1});  // > 256-byte budget
  cache.insert({1}, huge);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  // Normal entries still go through.
  cache.insert({2}, {{1.0, 2}});
  EXPECT_TRUE(cache.lookup({2}, nullptr));
}

TEST(QueryCacheTest, RefreshLargerResultRestoresByteBound) {
  const std::size_t small = QueryCache::entry_footprint(1, 1);
  const std::size_t large = QueryCache::entry_footprint(1, 8);
  QueryCache cache(100, 2 * small + large);
  cache.insert({1}, {{1.0, 1}});
  cache.insert({2}, {{1.0, 2}});
  cache.insert({3}, {{1.0, 3}});
  // Refresh key 3 with a larger result: bytes stay within the bound and
  // the refreshed entry survives (it is the most recent).
  cache.insert({3}, std::vector<ScoredDoc>(8, ScoredDoc{2.0, 30}));
  EXPECT_LE(cache.stats().bytes, 2 * small + large);
  std::vector<ScoredDoc> out;
  ASSERT_TRUE(cache.lookup({3}, &out));
  EXPECT_EQ(out.size(), 8u);
}

TEST(QueryCacheTest, ResultMetaStoredAndReturned) {
  QueryCache cache(4);
  cache.insert({1, 2}, {{1.0, 7}}, ResultMeta{12.5, 3});
  std::vector<ScoredDoc> out;
  ResultMeta meta;
  ASSERT_TRUE(cache.lookup({1, 2}, &out, &meta));
  EXPECT_DOUBLE_EQ(meta.loss_pct, 12.5);
  EXPECT_EQ(meta.epoch, 3u);
  // Default-inserted entries carry the zero annotation.
  cache.insert({5}, {{1.0, 8}});
  ASSERT_TRUE(cache.lookup({5}, &out, &meta));
  EXPECT_DOUBLE_EQ(meta.loss_pct, 0.0);
  EXPECT_EQ(meta.epoch, 0u);
}

// ---------------------------------------------------------------------------
// Fault-tolerant and synopsis-only service paths (the serving ladder's
// rungs, tested against the service directly)
// ---------------------------------------------------------------------------

TEST_F(SearchServiceTest, PartialTopkSkipsDeadComponentAndReports) {
  common::failpoint::clear_all();
  std::size_t ok = 0;
  const auto all = service_->exact_topk_partial(queries_[2], &ok);
  EXPECT_EQ(ok, service_->num_components());
  const auto exact = service_->exact_topk(queries_[2]);
  ASSERT_EQ(all.size(), exact.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].doc, exact[i].doc);

  common::failpoint::set("server.scan.c1", "error");
  const auto partial = service_->exact_topk_partial(queries_[2], &ok);
  EXPECT_EQ(ok, service_->num_components() - 1);
  // No doc of the dead component may appear.
  const auto base = service_->component(1).doc_id_base();
  const auto end = base + service_->component(1).num_docs();
  for (const auto& d : partial) {
    EXPECT_TRUE(d.doc < base || d.doc >= end);
  }
  common::failpoint::clear_all();
  const auto healed = service_->exact_topk_partial(queries_[2], &ok);
  EXPECT_EQ(ok, service_->num_components());
  ASSERT_EQ(healed.size(), exact.size());
  for (std::size_t i = 0; i < healed.size(); ++i)
    EXPECT_EQ(healed[i].doc, exact[i].doc);
}

TEST_F(SearchServiceTest, SynopsisTopkApproximatesExact) {
  double total_overlap = 0.0;
  for (std::size_t q = 0; q < 10; ++q) {
    const auto syn = service_->synopsis_topk(queries_[q]);
    EXPECT_LE(syn.size(), 10u);
    const auto exact = service_->exact_topk(queries_[q]);
    total_overlap += topk_overlap(syn, exact);
  }
  // Stage-1-only answers are lossy but far better than random (10 docs out
  // of 360, so random overlap is ~3%). The tiny fixture keeps the bar low.
  EXPECT_GE(total_overlap / 10.0, 0.15);
}

TEST_F(SearchServiceTest, ReloadComponentStrongGuarantee) {
  const auto before = service_->exact_topk(queries_[3]);
  std::stringstream buf;
  service_->component(1).save(buf);
  const std::string bytes = buf.str();

  // Corrupt stream: throws, and every query result is bit-identical to
  // the pre-reload state — no partially-applied component.
  std::istringstream bad(bytes.substr(0, bytes.size() * 2 / 3));
  EXPECT_THROW(service_->reload_component(1, bad), common::ArtifactError);
  const auto after_fail = service_->exact_topk(queries_[3]);
  ASSERT_EQ(after_fail.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after_fail[i].doc, before[i].doc);
    EXPECT_EQ(after_fail[i].score, before[i].score);  // bitwise
  }

  // Valid stream: the reload succeeds and (being a snapshot of the same
  // component) leaves results identical.
  std::istringstream good(bytes);
  service_->reload_component(1, good);
  const auto after_ok = service_->exact_topk(queries_[3]);
  ASSERT_EQ(after_ok.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(after_ok[i].doc, before[i].doc);
}

TEST_F(SearchServiceTest, ReloadOutOfRangeThrows) {
  std::istringstream is("whatever");
  EXPECT_THROW(service_->reload_component(99, is), std::invalid_argument);
}

TEST_F(SearchServiceTest, ComponentUpdateKeepsSearchWorking) {
  workload::CorpusConfig cfg;
  cfg.vocab_size = 500;
  cfg.num_topics = 8;
  cfg.topic_vocab = 40;
  workload::CorpusGen gen(cfg);
  common::Rng rng(3);
  synopsis::UpdateBatch batch;
  for (int i = 0; i < 4; ++i) batch.added.push_back(gen.sample_doc(rng));
  auto& comp = service_->component(0);
  const auto before = comp.num_docs();
  comp.update(batch);
  EXPECT_EQ(comp.num_docs(), before + 4);
  const auto r = comp.exact_topk(queries_[0], 10);
  EXPECT_LE(r.size(), 10u);
}

}  // namespace
}  // namespace at::search
