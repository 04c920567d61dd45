#include "services/epoch_component.h"

#include "synopsis/serialize.h"

namespace at::services {

void put_build_config(common::ChunkWriter& conf,
                      const synopsis::BuildConfig& config) {
  conf.u64(config.svd.rank);
  conf.u64(config.svd.epochs_per_dim);
  conf.f64(config.svd.learning_rate);
  conf.f64(config.svd.regularization);
  conf.f64(config.size_ratio);
  conf.u64(config.min_groups);
}

synopsis::BuildConfig get_build_config(common::ChunkReader& conf) {
  synopsis::BuildConfig config;
  config.svd.rank = conf.u64();
  config.svd.epochs_per_dim = conf.u64();
  config.svd.learning_rate = conf.f64();
  config.svd.regularization = conf.f64();
  config.size_ratio = conf.f64();
  config.min_groups = conf.u64();
  return config;
}

ShardEpoch::ShardEpoch(synopsis::SparseRows rows,
                       const synopsis::BuildConfig& config,
                       synopsis::AggregationKind kind,
                       common::ThreadPool* pool)
    : config_(config),
      kind_(kind),
      rows_(std::make_shared<synopsis::SparseRows>(std::move(rows))),
      structure_(std::make_shared<synopsis::SynopsisStructure>(
          synopsis::SynopsisBuilder(config).build(*rows_))),
      synopsis_(std::make_shared<synopsis::Synopsis>(
          synopsis::aggregate_all(*rows_, structure_->index, kind, pool))) {}

ShardEpoch::ShardEpoch(
    const synopsis::BuildConfig& config, synopsis::AggregationKind kind,
    std::shared_ptr<const synopsis::SparseRows> rows,
    std::shared_ptr<const synopsis::SynopsisStructure> structure,
    std::shared_ptr<const synopsis::Synopsis> synopsis)
    : config_(config),
      kind_(kind),
      rows_(std::move(rows)),
      structure_(std::move(structure)),
      synopsis_(std::move(synopsis)) {}

ShardEpoch ShardEpoch::load(std::istream& is,
                            const synopsis::BuildConfig& config,
                            synopsis::AggregationKind kind) {
  auto rows =
      std::make_shared<synopsis::SparseRows>(synopsis::load_sparse_rows(is));
  auto structure = std::make_shared<synopsis::SynopsisStructure>(
      synopsis::load_structure(is));
  auto aggregated =
      std::make_shared<synopsis::Synopsis>(synopsis::load_synopsis(is));
  return ShardEpoch(config, kind, std::move(rows), std::move(structure),
                    std::move(aggregated));
}

ShardEpoch ShardEpoch::apply(const synopsis::UpdateBatch& batch,
                             common::ThreadPool* pool,
                             synopsis::UpdateReport& report) const {
  auto rows = std::make_shared<synopsis::SparseRows>(*rows_);
  auto structure =
      std::make_shared<synopsis::SynopsisStructure>(structure_->clone());
  auto next = std::make_shared<synopsis::Synopsis>();
  report = synopsis::SynopsisUpdater(config_).apply(
      *structure, *rows, *synopsis_, next.get(), batch, kind_, pool);
  return ShardEpoch(config_, kind_, std::move(rows), std::move(structure),
                    std::move(next));
}

void ShardEpoch::save_pieces(std::ostream& os, common::Codec codec) const {
  synopsis::save(os, *rows_);
  synopsis::save(os, *structure_, codec);
  synopsis::save(os, *synopsis_);
}

std::vector<std::uint32_t> ShardEpoch::group_sizes() const {
  std::vector<std::uint32_t> sizes;
  sizes.reserve(structure_->index.size());
  for (const auto& g : structure_->index.groups())
    sizes.push_back(static_cast<std::uint32_t>(g.members.size()));
  return sizes;
}

std::vector<std::uint32_t> ShardEpoch::row_groups() const {
  std::vector<std::uint32_t> out(rows_->rows(), 0);
  const auto& groups = structure_->index.groups();
  for (std::uint32_t g = 0; g < groups.size(); ++g) {
    for (auto member : groups[g].members) out[member] = g;
  }
  return out;
}

}  // namespace at::services
