// Incremental SVD (Funk-style stochastic gradient descent) for the
// dimensionality reduction in synopsis creation step 1.
//
// The paper uses Simon Funk's incremental SVD [5][17]: latent dimensions
// are trained one at a time, each for a fixed number of epochs over the
// observed entries, against the residual left by previously trained
// dimensions. The transformed dataset is the row-factor matrix P (u x j):
// each original data point's low-dimensional feature vector. Per-epoch
// cost is O(#entries), independent of the dense u x v size, which is what
// lets the paper finish the transform "within a few seconds".
//
// One layout optimization over the textbook loop: the residual left by
// the already-trained dimensions is cached per entry and updated once per
// dimension, so each SGD step costs O(1) instead of O(d) dot-product work.
// Epochs visit the entries in sequential row-major order, so the factors
// are bit-reproducible. Callers that build many components in parallel
// run one SVD per component (services/search/component_builder.h).
#pragma once

#include <cstddef>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/matrix.h"

namespace at::linalg {

struct SvdConfig {
  /// Target dimensionality j (the paper uses 3).
  std::size_t rank = 3;
  /// Training epochs per latent dimension (the paper uses 100).
  std::size_t epochs_per_dim = 100;
  /// SGD learning rate.
  double learning_rate = 0.01;
  /// L2 regularization strength.
  double regularization = 0.02;
  /// Initial factor value scale.
  double init_scale = 0.1;
  /// Seed for factor initialization and entry shuffling.
  std::uint64_t seed = 42;
  /// Stop a dimension's training early once the epoch RMSE improvement
  /// drops below this threshold (0 disables early stopping).
  double min_improvement = 0.0;
  /// Train a global mean plus per-row/per-column bias terms alongside the
  /// factors (Funk's full model). Biases absorb systematic offsets (e.g.
  /// generous raters, popular items) so the latent factors concentrate on
  /// interaction structure — usually a better reduction for grouping.
  bool use_biases = false;
};

/// Result of a factorization:
///   dataset ~= global_mean + row_bias + col_bias + row_factors *
///   col_factors^T
/// (bias terms are zero/empty unless trained with use_biases).
struct SvdModel {
  Matrix row_factors;  // u x j : the reduced representation of data points
  Matrix col_factors;  // v x j
  double global_mean = 0.0;
  std::vector<double> row_bias;  // empty when biases are unused
  std::vector<double> col_bias;
  double train_rmse = 0.0;

  bool has_biases() const { return !row_bias.empty(); }

  /// Predicted value of cell (r, c).
  double predict(std::size_t r, std::size_t c) const;
};

/// Artifact-store persistence of a model (kind "SVDM"): biases and both
/// factor matrices go through the chosen f64 codec, every chunk is
/// CRC-checked.
void save(std::ostream& os, const SvdModel& model,
          common::Codec codec = common::Codec::kShuffle);
SvdModel load_svd_model(std::istream& is);

/// Trains a rank-`config.rank` factorization of the observed entries, in
/// sequential entry order (bit-reproducible).
SvdModel incremental_svd(const SparseDataset& data, const SvdConfig& config);

/// Root-mean-square reconstruction error of the model over the entries.
double reconstruction_rmse(const SvdModel& model, const SparseDataset& data);

/// Incremental extension: given a model trained on `data`, folds in new rows
/// (appended after the existing ones) by training only the new rows' factors
/// against the frozen column factors. This is the "execution time independent
/// of the dataset size" property the paper relies on for synopsis updating.
/// Rows train independently, so pool-parallel execution is bit-identical to
/// the sequential order.
void fold_in_rows(SvdModel& model, const SparseDataset& new_rows,
                  const SvdConfig& config, common::ThreadPool* pool = nullptr);

/// Retrains the factors (and bias term) of an existing row against frozen
/// column factors from a warm start — the per-row kernel shared by fold-in
/// and the synopsis updater's changed-row path. `cols`/`vals` hold the
/// row's `n` observed entries sorted by column.
void retrain_row_factors(SvdModel& model, std::size_t row,
                         const std::uint32_t* cols, const double* vals,
                         std::size_t n, const SvdConfig& config);

}  // namespace at::linalg
