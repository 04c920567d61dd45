// Synopsis pipeline tests: sparse rows, index file, builder (steps 1–2),
// aggregation (step 3), incremental updater.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "synopsis/aggregate.h"
#include "synopsis/builder.h"
#include "synopsis/index_file.h"
#include "synopsis/multiresolution.h"
#include "synopsis/serialize.h"
#include "synopsis/sparse_rows.h"
#include "synopsis/updater.h"

namespace at::synopsis {
namespace {

TEST(SparseVectorOps, NormalizeSortsAndMerges) {
  SparseVector v{{5, 1.0}, {2, 2.0}, {5, 3.0}, {0, 1.0}};
  normalize(v);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].first, 0u);
  EXPECT_EQ(v[1].first, 2u);
  EXPECT_EQ(v[2].first, 5u);
  EXPECT_DOUBLE_EQ(v[2].second, 4.0);
}

TEST(SparseVectorOps, ValueAt) {
  SparseVector v{{1, 2.0}, {7, 3.0}};
  EXPECT_DOUBLE_EQ(value_at(v, 1), 2.0);
  EXPECT_DOUBLE_EQ(value_at(v, 7), 3.0);
  EXPECT_DOUBLE_EQ(value_at(v, 5), 0.0);
  EXPECT_DOUBLE_EQ(value_at({}, 0), 0.0);
}

TEST(SparseVectorOps, DotAndCosine) {
  SparseVector a{{0, 1.0}, {2, 2.0}};
  SparseVector b{{1, 5.0}, {2, 3.0}};
  EXPECT_DOUBLE_EQ(dot(a, b), 6.0);
  EXPECT_DOUBLE_EQ(cosine(a, a), 1.0);
  EXPECT_DOUBLE_EQ(cosine(a, {}), 0.0);
  EXPECT_GT(cosine(a, b), 0.0);
  EXPECT_LT(cosine(a, b), 1.0);
}

TEST(SparseRows, AddAndReplace) {
  SparseRows rows(10);
  const auto id = rows.add_row({{3, 1.0}, {1, 2.0}});
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(rows.row(0)[0].first, 1u);  // normalized order
  rows.replace_row(0, {{9, 4.0}});
  EXPECT_DOUBLE_EQ(value_at(rows.row(0), 9), 4.0);
  EXPECT_THROW(rows.add_row({{10, 1.0}}), std::out_of_range);
  EXPECT_THROW(rows.replace_row(5, {}), std::out_of_range);
}

TEST(SparseRows, DatasetConversion) {
  SparseRows rows(4);
  rows.add_row({{0, 1.0}, {3, 2.0}});
  rows.add_row({{1, 5.0}});
  const auto ds = rows.to_dataset();
  EXPECT_EQ(ds.rows, 2u);
  EXPECT_EQ(ds.cols, 4u);
  EXPECT_EQ(ds.entries.size(), 3u);
  const auto tail = rows.tail_dataset(1);
  EXPECT_EQ(tail.rows, 1u);
  EXPECT_EQ(tail.entries.size(), 1u);
  EXPECT_EQ(tail.entries[0].row, 0u);  // re-indexed
}

TEST(SparseRows, GenerationTicksOnEveryViewInvalidatingMutation) {
  // The view-lifetime contract (SparseRows::row): any mutation may move
  // pool storage, and generation() must tick so holders of raw views can
  // assert they never read across a mutation.
  SparseRows rows(16);
  const auto g0 = rows.generation();
  rows.add_row({{0, 1.0}, {3, 2.0}, {7, 3.0}});
  EXPECT_GT(rows.generation(), g0);
  // A second, larger row keeps the dead ratio under the 25% auto-compact
  // trigger for the shrink below, so each tick source is observed alone.
  rows.add_row({{1, 1.0}, {2, 1.0}, {4, 1.0}, {5, 1.0},
                {6, 1.0}, {8, 1.0}, {9, 1.0}, {10, 1.0}});

  auto g = rows.generation();
  rows.replace_row(0, {{2, 9.0}, {3, 1.0}});  // in-place shrink, 1 dead slot
  EXPECT_GT(rows.generation(), g);
  ASSERT_EQ(rows.dead_entries(), 1u);  // auto-compact must not have run

  g = rows.generation();
  rows.compact();  // dead entries exist -> extents rewritten
  EXPECT_GT(rows.generation(), g);
  EXPECT_EQ(rows.dead_entries(), 0u);

  g = rows.generation();
  rows.compact();  // no dead entries: a no-op leaves views valid
  EXPECT_EQ(rows.generation(), g);
}

TEST(SparseRows, CompactionTriggeredByReplaceTicksGeneration) {
  // Repeated grown replacements cross the 25% dead threshold inside
  // replace_row; the implicit compact must be observable through
  // generation() just like an explicit one.
  SparseRows rows(32);
  common::Rng rng(5);
  for (int r = 0; r < 10; ++r) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 32; ++c)
      if (rng.uniform() < 0.25) v.emplace_back(c, 1.0);
    rows.add_row(std::move(v));
  }
  std::uint64_t last = rows.generation();
  for (int round = 0; round < 30; ++round) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 32; ++c)
      if (rng.uniform() < 0.8) v.emplace_back(c, 2.0);
    rows.replace_row(static_cast<std::uint32_t>(round % 10), std::move(v));
    EXPECT_GT(rows.generation(), last);
    last = rows.generation();
    // The compaction invariant the trigger maintains.
    ASSERT_LE(rows.dead_entries() * 4, rows.total_entries());
  }
}

TEST(IndexFile, PartitionValidation) {
  IndexFile idx({{1, 0, {0, 1}}, {2, 0, {2}}});
  EXPECT_TRUE(idx.is_partition_of(3));
  EXPECT_NO_THROW(idx.validate_partition(3));
  EXPECT_FALSE(idx.is_partition_of(4));       // missing member 3
  EXPECT_THROW(idx.validate_partition(4), std::logic_error);

  IndexFile dup({{1, 0, {0, 1}}, {2, 0, {1}}});  // member 1 twice
  EXPECT_FALSE(dup.is_partition_of(2));
  EXPECT_THROW(dup.validate_partition(2), std::logic_error);

  IndexFile oob({{1, 0, {5}}});
  EXPECT_THROW(oob.validate_partition(2), std::logic_error);
}

TEST(IndexFile, SummaryStats) {
  IndexFile idx({{1, 0, {0, 1, 2}}, {2, 0, {3}}});
  EXPECT_EQ(idx.total_members(), 4u);
  EXPECT_DOUBLE_EQ(idx.mean_group_size(), 2.0);
  EXPECT_NE(idx.summary().find("groups=2"), std::string::npos);
}

/// Builds a clustered dataset: `clusters` groups of `per_cluster` rows,
/// rows within a cluster nearly identical.
SparseRows clustered_rows(std::size_t clusters, std::size_t per_cluster,
                          std::size_t cols, std::uint64_t seed) {
  common::Rng rng(seed);
  SparseRows rows(cols);
  for (std::size_t k = 0; k < clusters; ++k) {
    // Cluster signature: a disjoint block of columns with high values.
    for (std::size_t u = 0; u < per_cluster; ++u) {
      SparseVector v;
      for (std::size_t c = 0; c < cols; ++c) {
        const bool mine = (c % clusters) == k;
        const double base = mine ? 5.0 : 1.0;
        if (rng.uniform() < 0.8) {
          v.emplace_back(static_cast<std::uint32_t>(c),
                         base + rng.normal(0.0, 0.15));
        }
      }
      rows.add_row(std::move(v));
    }
  }
  return rows;
}

BuildConfig small_config(double ratio = 10.0) {
  BuildConfig cfg;
  cfg.svd.rank = 2;
  cfg.svd.epochs_per_dim = 60;
  cfg.size_ratio = ratio;
  return cfg;
}

TEST(Builder, IndexPartitionsRows) {
  const SparseRows rows = clustered_rows(4, 25, 16, 3);
  const auto s = SynopsisBuilder(small_config()).build(rows);
  EXPECT_NO_THROW(s.index.validate_partition(rows.rows()));
  EXPECT_GE(s.num_groups(), 2u);
  EXPECT_LE(s.num_groups(), rows.rows() / 5);  // compressed
}

TEST(Builder, CompressionRatioHonored) {
  // Tree levels are discrete, so the builder picks the level closest (in
  // ratio) to n / size_ratio; the group count must stay within one tree
  // fan-out factor of the target and always well below n.
  const SparseRows rows = clustered_rows(5, 40, 20, 4);
  rtree::RTreeParams params;  // fan-out 8
  for (double ratio : {5.0, 10.0, 25.0}) {
    const auto s = SynopsisBuilder(small_config(ratio)).build(rows);
    const double target =
        std::ceil(static_cast<double>(rows.rows()) / ratio);
    const double count = static_cast<double>(s.num_groups());
    EXPECT_LE(count, target * static_cast<double>(params.max_entries))
        << "ratio " << ratio;
    EXPECT_GE(count * static_cast<double>(params.max_entries), target)
        << "ratio " << ratio;
    EXPECT_LE(count * 3.0, static_cast<double>(rows.rows()))
        << "ratio " << ratio;
  }
}

TEST(Builder, GroupsSimilarRows) {
  // Rows from the same cluster should dominantly share groups: measure the
  // fraction of same-cluster pairs among same-group pairs.
  const std::size_t per = 30;
  const SparseRows rows = clustered_rows(4, per, 16, 5);
  const auto s = SynopsisBuilder(small_config()).build(rows);
  std::size_t same_cluster = 0, total_pairs = 0;
  for (const auto& g : s.index.groups()) {
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      for (std::size_t j = i + 1; j < g.members.size(); ++j) {
        total_pairs++;
        same_cluster += (g.members[i] / per) == (g.members[j] / per);
      }
    }
  }
  ASSERT_GT(total_pairs, 0u);
  // Random grouping would score 1/clusters = 0.25; leaf-level STR packing
  // mixes a minority of points at chunk boundaries, so we require the
  // purity to be far above random rather than near-perfect.
  EXPECT_GT(static_cast<double>(same_cluster) /
                static_cast<double>(total_pairs),
            0.6);
}

TEST(Builder, EmptyDatasetThrows) {
  SparseRows rows(4);
  EXPECT_THROW(SynopsisBuilder(small_config()).build(rows),
               std::invalid_argument);
}

TEST(Builder, SingleRowDataset) {
  SparseRows rows(4);
  rows.add_row({{0, 1.0}});
  const auto s = SynopsisBuilder(small_config()).build(rows);
  EXPECT_EQ(s.num_groups(), 1u);
  EXPECT_NO_THROW(s.index.validate_partition(1));
}

TEST(Aggregate, MeanSemantics) {
  SparseRows rows(4);
  rows.add_row({{0, 2.0}, {1, 4.0}});
  rows.add_row({{0, 4.0}});
  IndexGroup g{1, 0, {0, 1}};
  const auto p = aggregate_group(rows, g, AggregationKind::kMean);
  EXPECT_EQ(p.member_count, 2u);
  // Attribute 0: both members -> mean 3; attribute 1: only member 0 -> 4.
  EXPECT_DOUBLE_EQ(value_at(p.features, 0), 3.0);
  EXPECT_DOUBLE_EQ(value_at(p.features, 1), 4.0);
  ASSERT_EQ(p.support.size(), 2u);
  EXPECT_EQ(p.support[0], 2u);
  EXPECT_EQ(p.support[1], 1u);
}

TEST(Aggregate, MergeSemantics) {
  SparseRows rows(4);
  rows.add_row({{0, 2.0}, {1, 4.0}});
  rows.add_row({{0, 4.0}});
  IndexGroup g{1, 0, {0, 1}};
  const auto p = aggregate_group(rows, g, AggregationKind::kMerge);
  EXPECT_DOUBLE_EQ(value_at(p.features, 0), 6.0);  // summed contents
  EXPECT_DOUBLE_EQ(value_at(p.features, 1), 4.0);
  EXPECT_TRUE(p.support.empty());
}

TEST(Aggregate, AllGroupsSerialEqualsParallel) {
  const SparseRows rows = clustered_rows(3, 20, 12, 6);
  const auto s = SynopsisBuilder(small_config()).build(rows);
  const auto serial = aggregate_all(rows, s.index, AggregationKind::kMean);
  common::ThreadPool pool(3);
  const auto parallel =
      aggregate_all(rows, s.index, AggregationKind::kMean, &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t g = 0; g < serial.size(); ++g) {
    EXPECT_EQ(serial.points[g].features, parallel.points[g].features);
    EXPECT_EQ(serial.points[g].member_count, parallel.points[g].member_count);
  }
}

TEST(Aggregate, SynopsisSmallerThanInput) {
  const SparseRows rows = clustered_rows(4, 50, 16, 7);
  const auto s = SynopsisBuilder(small_config(20.0)).build(rows);
  const auto syn = aggregate_all(rows, s.index, AggregationKind::kMean);
  EXPECT_LT(syn.size() * 10, rows.rows());
  EXPECT_GT(syn.total_features(), 0u);
}

class UpdaterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rows_ = clustered_rows(4, 25, 16, 8);
    cfg_ = small_config();
    structure_ = SynopsisBuilder(cfg_).build(rows_);
    synopsis_ = aggregate_all(rows_, structure_.index,
                              AggregationKind::kMean);
  }

  SparseRows rows_{16};
  BuildConfig cfg_;
  SynopsisStructure structure_{{}, {}, rtree::RTree(2), 0, {}};
  Synopsis synopsis_;
};

TEST_F(UpdaterTest, AddPointsKeepsPartition) {
  common::Rng rng(1);
  UpdateBatch batch;
  for (int i = 0; i < 10; ++i) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 16; ++c)
      if (rng.uniform() < 0.7) v.emplace_back(c, rng.uniform(1.0, 5.0));
    batch.added.push_back(std::move(v));
  }
  const std::size_t before = rows_.rows();
  SynopsisUpdater updater(cfg_);
  const auto report =
      updater.apply(structure_, rows_, synopsis_, batch,
                    AggregationKind::kMean);
  EXPECT_EQ(report.points_added, 10u);
  EXPECT_EQ(rows_.rows(), before + 10);
  EXPECT_NO_THROW(structure_.index.validate_partition(rows_.rows()));
  EXPECT_EQ(synopsis_.size(), structure_.index.size());
  structure_.tree.check_invariants();
}

TEST_F(UpdaterTest, ChangePointsKeepsPartition) {
  common::Rng rng(2);
  UpdateBatch batch;
  for (std::uint32_t r = 0; r < 8; ++r) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 16; ++c)
      if (rng.uniform() < 0.7) v.emplace_back(c, rng.uniform(1.0, 5.0));
    batch.changed.emplace_back(r * 3, std::move(v));
  }
  const std::size_t before = rows_.rows();
  SynopsisUpdater updater(cfg_);
  const auto report = updater.apply(structure_, rows_, synopsis_, batch,
                                    AggregationKind::kMean);
  EXPECT_EQ(report.points_changed, 8u);
  EXPECT_EQ(rows_.rows(), before);
  EXPECT_NO_THROW(structure_.index.validate_partition(rows_.rows()));
  structure_.tree.check_invariants();
}

TEST_F(UpdaterTest, IncrementalMatchesRebuildAggregation) {
  // After an update, every group's aggregated point must equal a fresh
  // aggregation of its members — dirty-tracking must not serve stale data.
  common::Rng rng(3);
  UpdateBatch batch;
  for (int i = 0; i < 5; ++i) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 16; ++c)
      if (rng.uniform() < 0.7) v.emplace_back(c, rng.uniform(1.0, 5.0));
    batch.added.push_back(std::move(v));
  }
  batch.changed.emplace_back(0, SparseVector{{0, 9.0}, {5, 2.0}});
  SynopsisUpdater updater(cfg_);
  updater.apply(structure_, rows_, synopsis_, batch, AggregationKind::kMean);

  const auto fresh =
      aggregate_all(rows_, structure_.index, AggregationKind::kMean);
  ASSERT_EQ(fresh.size(), synopsis_.size());
  for (std::size_t g = 0; g < fresh.size(); ++g) {
    EXPECT_EQ(fresh.points[g].features, synopsis_.points[g].features)
        << "group " << g << " served stale aggregation";
  }
}

TEST_F(UpdaterTest, CompactionDuringRetrainingCannotAliasStaleExtents) {
  // Regression for the view-lifetime hazard the 25% compaction trigger
  // introduced: a batch of grown replacements compacts the pools midway
  // through the updater's replace phase, relocating every extent. The
  // updater must only take row views *after* all replacements (its
  // retraining phase asserts generation stability), so the retrained
  // coordinates must match a run on a pristine copy where the same final
  // contents were applied without ever triggering compaction mid-batch —
  // any stale-extent read would diverge.
  common::Rng rng(7);
  UpdateBatch batch;
  std::vector<std::pair<std::uint32_t, SparseVector>> finals;
  for (std::uint32_t r = 0; r < 30; ++r) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 16; ++c)
      if (rng.uniform() < 0.95) v.emplace_back(c, rng.uniform(1.0, 5.0));
    finals.emplace_back(r * 3, v);
    batch.changed.emplace_back(r * 3, std::move(v));
  }

  // Reference: identical initial state, identical batch, sequential apply.
  auto ref_rows = rows_;
  auto ref_structure = SynopsisBuilder(cfg_).build(ref_rows);
  auto ref_synopsis =
      aggregate_all(ref_rows, ref_structure.index, AggregationKind::kMean);

  SynopsisUpdater updater(cfg_);
  const auto gen_before = rows_.generation();
  common::ThreadPool pool(4);
  updater.apply(structure_, rows_, synopsis_, batch, AggregationKind::kMean,
                &pool);
  // The batch really did force pool rewrites (grown replacements compact).
  EXPECT_GT(rows_.generation(), gen_before);
  ASSERT_LE(rows_.dead_entries() * 4, rows_.total_entries());

  updater.apply(ref_structure, ref_rows, ref_synopsis, batch,
                AggregationKind::kMean, nullptr);

  // Contents: every changed row reads back its final batch content.
  for (const auto& [row, content] : finals) {
    auto expect = content;
    normalize(expect);
    EXPECT_EQ(rows_.row(row), expect) << "row " << row;
  }
  // Retrained coordinates bit-match the sequential reference — stale
  // extents (pre-compaction pool pointers) would have fed the retraining
  // garbage and diverged.
  ASSERT_EQ(structure_.svd.row_factors.rows(),
            ref_structure.svd.row_factors.rows());
  for (std::size_t r = 0; r < structure_.svd.row_factors.rows(); ++r)
    for (std::size_t d = 0; d < structure_.svd.row_factors.cols(); ++d)
      ASSERT_EQ(structure_.svd.row_factors(r, d),
                ref_structure.svd.row_factors(r, d))
          << "row factor (" << r << "," << d << ")";
  ASSERT_EQ(synopsis_.size(), ref_synopsis.size());
  for (std::size_t g = 0; g < synopsis_.size(); ++g) {
    EXPECT_EQ(synopsis_.points[g].features, ref_synopsis.points[g].features)
        << "group " << g;
  }
}

TEST_F(UpdaterTest, CleanGroupsAreReused) {
  // A tiny, localized change should leave most groups clean.
  UpdateBatch batch;
  batch.changed.emplace_back(0, SparseVector{{1, 3.0}});
  SynopsisUpdater updater(cfg_);
  const auto report = updater.apply(structure_, rows_, synopsis_, batch,
                                    AggregationKind::kMean);
  EXPECT_GT(report.clean_groups, 0u);
  EXPECT_GT(report.dirty_groups, 0u);
  EXPECT_LT(report.dirty_groups, report.groups_after);
}

TEST_F(UpdaterTest, EmptyBatchIsCheapNoop) {
  SynopsisUpdater updater(cfg_);
  const auto before_groups = structure_.index.size();
  const auto report = updater.apply(structure_, rows_, synopsis_, {},
                                    AggregationKind::kMean);
  EXPECT_EQ(report.points_added, 0u);
  EXPECT_EQ(report.points_changed, 0u);
  EXPECT_EQ(report.dirty_groups, 0u);
  EXPECT_EQ(structure_.index.size(), before_groups);
}

TEST_F(UpdaterTest, ChangedRowOutOfRangeThrows) {
  UpdateBatch batch;
  batch.changed.emplace_back(10000, SparseVector{{0, 1.0}});
  SynopsisUpdater updater(cfg_);
  EXPECT_THROW(updater.apply(structure_, rows_, synopsis_, batch,
                             AggregationKind::kMean),
               std::out_of_range);
}

TEST_F(UpdaterTest, RepeatedUpdatesStayConsistent) {
  common::Rng rng(9);
  SynopsisUpdater updater(cfg_);
  for (int round = 0; round < 5; ++round) {
    UpdateBatch batch;
    SparseVector v;
    for (std::uint32_t c = 0; c < 16; ++c)
      if (rng.uniform() < 0.7) v.emplace_back(c, rng.uniform(1.0, 5.0));
    batch.added.push_back(v);
    const auto victim =
        static_cast<std::uint32_t>(rng.uniform_index(rows_.rows()));
    batch.changed.emplace_back(victim, v);
    updater.apply(structure_, rows_, synopsis_, batch,
                  AggregationKind::kMean);
    ASSERT_NO_THROW(structure_.index.validate_partition(rows_.rows()));
    structure_.tree.check_invariants();
  }
}

// ---------------------------------------------------------------------------
// MultiResolutionSynopsis (the paper's §2.3 load-adaptive extension)
// ---------------------------------------------------------------------------

class MultiResTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rows_ = clustered_rows(4, 40, 16, 31);
    structure_ = SynopsisBuilder(small_config(4.0)).build(rows_);
    multi_ = std::make_unique<MultiResolutionSynopsis>(
        structure_, rows_, AggregationKind::kMean);
  }

  SparseRows rows_{16};
  SynopsisStructure structure_{{}, {}, rtree::RTree(2), 0, {}};
  std::unique_ptr<MultiResolutionSynopsis> multi_;
};

TEST_F(MultiResTest, LevelsAreMonotonicallyCoarser) {
  ASSERT_GE(multi_->levels(), 2u);
  for (std::size_t r = 1; r < multi_->levels(); ++r) {
    EXPECT_LT(multi_->level(r).groups(), multi_->level(r - 1).groups());
  }
}

TEST_F(MultiResTest, EveryLevelPartitionsTheData) {
  for (std::size_t r = 0; r < multi_->levels(); ++r) {
    EXPECT_NO_THROW(multi_->level(r).index.validate_partition(rows_.rows()))
        << "resolution " << r;
    EXPECT_EQ(multi_->level(r).synopsis.size(),
              multi_->level(r).index.size());
  }
}

TEST_F(MultiResTest, FinestLevelIsLeafLevel) {
  EXPECT_EQ(multi_->level(0).tree_level, 0u);
  EXPECT_EQ(multi_->level(0).groups(),
            structure_.tree.node_count_at_level(0));
}

TEST_F(MultiResTest, BudgetPicksFinestAffordable) {
  const std::size_t fine = multi_->level(0).groups();
  // Generous budget -> finest.
  EXPECT_EQ(multi_->pick_for_budget(fine), 0u);
  // Budget below the coarsest level -> coarsest (degrade, never refuse).
  EXPECT_EQ(multi_->pick_for_budget(1), multi_->levels() - 1);
  // Budget exactly at a middle level's size picks that level.
  if (multi_->levels() >= 2) {
    const std::size_t mid = multi_->level(1).groups();
    EXPECT_EQ(multi_->pick_for_budget(mid), 1u);
  }
}

TEST_F(MultiResTest, DeadlinePolicyDegradesUnderLoad) {
  const double ms_per_group = 0.1;
  // Plenty of time: finest resolution.
  const auto light = multi_->pick_for_deadline(100.0, ms_per_group);
  // Nearly no time left: coarsest.
  const auto heavy = multi_->pick_for_deadline(0.5, ms_per_group);
  EXPECT_LT(light, multi_->levels());
  EXPECT_EQ(light, 0u);
  EXPECT_EQ(heavy, multi_->levels() - 1);
  EXPECT_THROW(multi_->pick_for_deadline(10.0, 0.0), std::invalid_argument);
}

TEST_F(MultiResTest, CoarseAggregatesAreConsistentWithFine) {
  // A coarse aggregated point covers the union of some fine groups; its
  // per-attribute support must equal the sum of the fine supports.
  if (multi_->levels() < 2) GTEST_SKIP();
  const auto& fine = multi_->level(0);
  const auto& coarse = multi_->level(1);
  std::size_t fine_total = 0, coarse_total = 0;
  for (const auto& p : fine.synopsis.points)
    for (auto s : p.support) fine_total += s;
  for (const auto& p : coarse.synopsis.points)
    for (auto s : p.support) coarse_total += s;
  EXPECT_EQ(fine_total, coarse_total);  // same underlying observations
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(Serialize, SparseRowsRoundTrip) {
  const SparseRows rows = clustered_rows(3, 15, 12, 21);
  std::stringstream buf;
  save(buf, rows);
  const SparseRows loaded = load_sparse_rows(buf);
  ASSERT_EQ(loaded.rows(), rows.rows());
  ASSERT_EQ(loaded.cols(), rows.cols());
  for (std::uint32_t r = 0; r < rows.rows(); ++r)
    EXPECT_EQ(loaded.row(r), rows.row(r));
}

TEST(Serialize, SparseRowsRoundTripBitExactWithHolesAndFractions) {
  SparseRows rows(40);
  common::Rng rng(91);
  for (int r = 0; r < 30; ++r) {
    SparseVector v;
    for (std::uint32_t c = 0; c < 40; ++c) {
      if (rng.uniform() < 0.3) v.emplace_back(c, rng.uniform(0.25, 300.0));
    }
    rows.add_row(std::move(v));
  }
  // Leave holes/relocations behind so serialization sees a mutated pool.
  rows.replace_row(2, {{0, 0.5}, {39, 256.0}});
  SparseVector grown;
  for (std::uint32_t c = 0; c < 35; ++c) grown.emplace_back(c, 1.0 + c);
  rows.replace_row(5, grown);

  std::stringstream buf;
  save(buf, rows);
  const SparseRows loaded = load_sparse_rows(buf);
  ASSERT_EQ(loaded.rows(), rows.rows());
  ASSERT_EQ(loaded.total_entries(), rows.total_entries());
  for (std::uint32_t r = 0; r < rows.rows(); ++r) {
    const auto a = rows.row(r);
    const auto b = loaded.row(r);
    ASSERT_EQ(a.size(), b.size()) << "row " << r;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.cols()[i], b.cols()[i]);
      EXPECT_EQ(a.vals()[i], b.vals()[i]) << "row " << r << " entry " << i;
    }
  }
}

TEST(Serialize, MatrixAndSvdRoundTrip) {
  linalg::Matrix m(3, 4);
  m(0, 0) = 1.5;
  m(2, 3) = -7.25;
  std::stringstream buf;
  save(buf, m);
  const auto lm = load_matrix(buf);
  ASSERT_EQ(lm.rows(), 3u);
  EXPECT_DOUBLE_EQ(lm(2, 3), -7.25);

  const SparseRows rows = clustered_rows(2, 10, 8, 22);
  linalg::SvdConfig cfg;
  cfg.rank = 2;
  cfg.epochs_per_dim = 20;
  const auto model = linalg::incremental_svd(rows.to_dataset(), cfg);
  std::stringstream buf2;
  save(buf2, model);
  const auto lmodel = load_svd_model(buf2);
  EXPECT_DOUBLE_EQ(lmodel.train_rmse, model.train_rmse);
  for (std::size_t r = 0; r < model.row_factors.rows(); ++r)
    for (std::size_t d = 0; d < 2; ++d)
      EXPECT_DOUBLE_EQ(lmodel.row_factors(r, d), model.row_factors(r, d));
}

TEST(Serialize, IndexFileRoundTrip) {
  IndexFile idx({{11, 3, {0, 2}}, {22, 7, {1, 3, 4}}});
  std::stringstream buf;
  save(buf, idx);
  const auto loaded = load_index_file(buf);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.groups()[0].node_id, 11u);
  EXPECT_EQ(loaded.groups()[1].version, 7u);
  EXPECT_EQ(loaded.groups()[1].members, (std::vector<std::uint32_t>{1, 3, 4}));
}

TEST(Serialize, SynopsisRoundTrip) {
  const SparseRows rows = clustered_rows(3, 15, 12, 23);
  const auto s = SynopsisBuilder(small_config()).build(rows);
  const auto syn = aggregate_all(rows, s.index, AggregationKind::kMean);
  std::stringstream buf;
  save(buf, syn);
  const auto loaded = load_synopsis(buf);
  ASSERT_EQ(loaded.size(), syn.size());
  for (std::size_t g = 0; g < syn.size(); ++g) {
    EXPECT_EQ(loaded.points[g].features, syn.points[g].features);
    EXPECT_EQ(loaded.points[g].support, syn.points[g].support);
    EXPECT_EQ(loaded.points[g].member_count, syn.points[g].member_count);
  }
}

TEST(Serialize, StructureRoundTripAllowsFurtherUpdates) {
  SparseRows rows = clustered_rows(4, 20, 16, 24);
  const BuildConfig cfg = small_config();
  auto s = SynopsisBuilder(cfg).build(rows);
  auto syn = aggregate_all(rows, s.index, AggregationKind::kMean);

  std::stringstream buf;
  save(buf, s);
  auto loaded = load_structure(buf);
  EXPECT_EQ(loaded.level, s.level);
  EXPECT_EQ(loaded.num_points(), s.num_points());
  ASSERT_EQ(loaded.index.size(), s.index.size());
  for (std::size_t g = 0; g < s.index.size(); ++g) {
    EXPECT_EQ(loaded.index.groups()[g].members, s.index.groups()[g].members);
    EXPECT_EQ(loaded.index.groups()[g].version, s.index.groups()[g].version);
  }

  // The reloaded structure supports incremental updating: dirty tracking
  // must behave as if the process never restarted.
  common::Rng rng(5);
  UpdateBatch batch;
  batch.changed.emplace_back(0, SparseVector{{1, 4.0}, {3, 2.0}});
  SynopsisUpdater updater(cfg);
  const auto report =
      updater.apply(loaded, rows, syn, batch, AggregationKind::kMean);
  EXPECT_GT(report.clean_groups, 0u);
  EXPECT_NO_THROW(loaded.index.validate_partition(rows.rows()));
  loaded.tree.check_invariants();
}

TEST(Serialize, TruncatedInputThrows) {
  const SparseRows rows = clustered_rows(2, 10, 8, 25);
  std::stringstream buf;
  save(buf, rows);
  std::string data = buf.str();
  data.resize(data.size() / 2);
  std::stringstream half(data);
  EXPECT_THROW(load_sparse_rows(half), std::runtime_error);
}

TEST(Serialize, WrongArtifactMagicThrows) {
  IndexFile idx({{1, 0, {0}}});
  std::stringstream buf;
  save(buf, idx);
  EXPECT_THROW(load_sparse_rows(buf), std::runtime_error);
}

}  // namespace
}  // namespace at::synopsis
