#include "linalg/svd.h"

#include <cmath>
#include <stdexcept>

#include "common/artifact.h"
#include "common/simd.h"

namespace at::linalg {

double SvdModel::predict(std::size_t r, std::size_t c) const {
  double pred = dot(row_factors.row(r), col_factors.row(c),
                    row_factors.cols());
  if (has_biases()) {
    pred += global_mean + row_bias[r] + col_bias[c];
  }
  return pred;
}

namespace {

/// SoA view of a dataset's entries in CSR (row-major) order. Borrows the
/// dataset's CSR arrays when present; otherwise owns a locally built copy.
struct EntryStream {
  const std::size_t* row_ptr = nullptr;
  const std::uint32_t* cols = nullptr;
  const double* vals = nullptr;
  std::size_t num_rows = 0;
  std::size_t count = 0;
  SparseDataset local;  // storage when the input had no CSR form

  explicit EntryStream(const SparseDataset& data) {
    const SparseDataset* d = &data;
    if (!data.has_csr()) {
      local.rows = data.rows;
      local.cols = data.cols;
      local.entries = data.entries;
      local.build_csr();
      d = &local;
    } else {
      for (std::size_t i = 0; i < d->col_idx.size(); ++i) {
        if (d->col_idx[i] >= d->cols)
          throw std::out_of_range("incremental_svd: entry outside dims");
      }
    }
    row_ptr = d->row_ptr.data();
    cols = d->col_idx.data();
    vals = d->values.data();
    num_rows = d->rows;
    count = d->col_idx.size();
  }
};

/// Everything one SGD sweep needs. Column c's factor for dimension d is
/// colf[c * rank] (colf points at the factor matrix's column d).
struct SweepCtx {
  const std::size_t* row_ptr = nullptr;
  const std::uint32_t* cols = nullptr;
  double* resid = nullptr;
  Matrix* row_factors = nullptr;
  double* colf = nullptr;
  std::size_t rank = 0;
  double* row_bias = nullptr;  // nullptr when biases are off
  double* col_bias = nullptr;  // nullptr when biases are off
  double global_mean = 0.0;
  double lr = 0.0;
  double reg = 0.0;
  std::size_t d = 0;
};

// One SGD sweep over every row for dimension ctx.d. Iterating
// row-by-row keeps the row factor (and row bias) in registers across the
// row's entries; the arithmetic sequence is bit-identical to the original
// per-entry formulation (each shared value is read once per entry,
// exactly where the reference formulation first read it).
double sweep_rows(const SweepCtx& ctx, std::size_t num_rows) {
  const bool biases = ctx.col_bias != nullptr;
  double sq_err = 0.0;
  for (std::size_t r = 0; r < num_rows; ++r) {
    double p = (*ctx.row_factors)(r, ctx.d);
    double br = biases ? ctx.row_bias[r] : 0.0;
    for (std::size_t i = ctx.row_ptr[r]; i < ctx.row_ptr[r + 1]; ++i) {
      const std::uint32_t c = ctx.cols[i];
      double& qref = ctx.colf[c * ctx.rank];
      const double q = qref;
      double err = ctx.resid[i] - p * q;
      double bc = 0.0;
      if (biases) {
        bc = ctx.col_bias[c];
        err -= ctx.global_mean + br + bc;
      }
      sq_err += err * err;
      if (biases) {
        br += ctx.lr * (err - ctx.reg * br);
        ctx.col_bias[c] = bc + ctx.lr * (err - ctx.reg * bc);
      }
      const double p_old = p;
      p += ctx.lr * (err * q - ctx.reg * p);
      qref = q + ctx.lr * (err * p_old - ctx.reg * q);
    }
    (*ctx.row_factors)(r, ctx.d) = p;
    if (biases) ctx.row_bias[r] = br;
  }
  return sq_err;
}

}  // namespace

SvdModel incremental_svd(const SparseDataset& data, const SvdConfig& config) {
  if (config.rank == 0)
    throw std::invalid_argument("incremental_svd: rank must be >= 1");
  if (data.rows == 0 || data.cols == 0)
    throw std::invalid_argument("incremental_svd: empty dataset dims");

  // Contiguous SoA entry arrays: one O(#entries) layout pass buys every
  // epoch a straight scan over three flat arrays.
  EntryStream es(data);

  common::Rng rng(config.seed);
  SvdModel model;
  model.row_factors = Matrix(data.rows, config.rank);
  model.col_factors = Matrix(data.cols, config.rank);
  for (std::size_t r = 0; r < data.rows; ++r)
    for (std::size_t d = 0; d < config.rank; ++d)
      model.row_factors(r, d) = config.init_scale * (rng.uniform() - 0.5);
  for (std::size_t c = 0; c < data.cols; ++c)
    for (std::size_t d = 0; d < config.rank; ++d)
      model.col_factors(c, d) = config.init_scale * (rng.uniform() - 0.5);

  if (es.count == 0) return model;

  if (config.use_biases) {
    double sum = 0.0;
    for (std::size_t i = 0; i < es.count; ++i) sum += es.vals[i];
    model.global_mean = sum / static_cast<double>(es.count);
    model.row_bias.assign(data.rows, 0.0);
    model.col_bias.assign(data.cols, 0.0);
  }

  const double lr = config.learning_rate;
  const double reg = config.regularization;
  const std::size_t rank = config.rank;
  const bool biases = config.use_biases;

  // Residual of each entry under the *finished* dimensions (biases
  // excluded — they keep moving). Updated once per dimension, so each SGD
  // step is O(1) instead of re-deriving a d-term dot product.
  std::vector<double> resid(es.vals, es.vals + es.count);

  auto make_ctx = [&](std::size_t d) {
    SweepCtx ctx;
    ctx.row_ptr = es.row_ptr;
    ctx.cols = es.cols;
    ctx.resid = resid.data();
    ctx.row_factors = &model.row_factors;
    ctx.colf = model.col_factors.row(0) + d;
    ctx.rank = rank;
    if (biases) {
      ctx.row_bias = model.row_bias.data();
      ctx.col_bias = model.col_bias.data();
    }
    ctx.global_mean = model.global_mean;
    ctx.lr = lr;
    ctx.reg = reg;
    ctx.d = d;
    return ctx;
  };

  // Funk-style training: one latent dimension at a time against the cached
  // residual of the previously trained dimensions (biases, when enabled,
  // keep adapting throughout).
  for (std::size_t d = 0; d < rank; ++d) {
    const SweepCtx ctx = make_ctx(d);
    double prev_rmse = -1.0;
    for (std::size_t epoch = 0; epoch < config.epochs_per_dim; ++epoch) {
      const double sq = sweep_rows(ctx, es.num_rows);
      const double rmse = std::sqrt(sq / static_cast<double>(es.count));
      if (config.min_improvement > 0.0 && prev_rmse >= 0.0 &&
          prev_rmse - rmse < config.min_improvement) {
        break;
      }
      prev_rmse = rmse;
    }
    // Retire dimension d into the cached residuals. Element-wise (no
    // reduction), so the SIMD gather kernel is bit-identical to the scalar
    // loop in every dispatch tier.
    const double* col_base = model.col_factors.row(0);
    for (std::size_t r = 0; r < es.num_rows; ++r) {
      const std::size_t lo = es.row_ptr[r];
      simd::retire_axpy(resid.data() + lo, es.cols + lo,
                        es.row_ptr[r + 1] - lo, col_base, rank, d,
                        model.row_factors(r, d));
    }
  }
  model.train_rmse = reconstruction_rmse(model, data);
  return model;
}

double reconstruction_rmse(const SvdModel& model, const SparseDataset& data) {
  if (data.has_csr()) {
    if (data.col_idx.empty()) return 0.0;
    double sq = 0.0;
    for (std::size_t r = 0; r < data.rows; ++r) {
      for (std::size_t i = data.row_ptr[r]; i < data.row_ptr[r + 1]; ++i) {
        const double err =
            data.values[i] - model.predict(r, data.col_idx[i]);
        sq += err * err;
      }
    }
    return std::sqrt(sq / static_cast<double>(data.col_idx.size()));
  }
  if (data.entries.empty()) return 0.0;
  double sq = 0.0;
  for (const auto& e : data.entries) {
    const double err = e.value - model.predict(e.row, e.col);
    sq += err * err;
  }
  return std::sqrt(sq / static_cast<double>(data.entries.size()));
}

void retrain_row_factors(SvdModel& model, std::size_t row,
                         const std::uint32_t* cols, const double* vals,
                         std::size_t n, const SvdConfig& config) {
  const std::size_t rank = model.row_factors.cols();
  if (rank == 0)
    throw std::invalid_argument("retrain_row_factors: untrained model");
  double* p = model.row_factors.row(row);
  const double lr = config.learning_rate;
  const double reg = config.regularization;
  const bool biases = model.has_biases();

  // Per-row residual cache (column factors are frozen, and dimensions
  // below d are frozen while d trains, so the residual moves only when a
  // dimension is retired). thread_local so pool-parallel fold-in does not
  // allocate per row.
  thread_local std::vector<double> resid;
  resid.assign(vals, vals + n);

  // The row factor for the training dimension (and the row bias) live in
  // registers across the entire epoch loop; column factors are frozen.
  double br = biases ? model.row_bias[row] : 0.0;
  for (std::size_t d = 0; d < rank; ++d) {
    double pd = p[d];
    for (std::size_t epoch = 0; epoch < config.epochs_per_dim; ++epoch) {
      for (std::size_t i = 0; i < n; ++i) {
        const double qd = model.col_factors(cols[i], d);
        double err = resid[i] - pd * qd;
        if (biases) {
          err -= model.global_mean + br + model.col_bias[cols[i]];
          br += lr * (err - reg * br);
        }
        pd += lr * (err * qd - reg * pd);
      }
    }
    p[d] = pd;
    simd::retire_axpy(resid.data(), cols, n, model.col_factors.row(0), rank,
                      d, pd);
  }
  if (biases) model.row_bias[row] = br;
}

void fold_in_rows(SvdModel& model, const SparseDataset& new_rows,
                  const SvdConfig& config, common::ThreadPool* pool) {
  const std::size_t rank = model.row_factors.cols();
  if (rank == 0) throw std::invalid_argument("fold_in_rows: untrained model");
  if (new_rows.cols != model.col_factors.rows())
    throw std::invalid_argument("fold_in_rows: column dimension mismatch");

  const std::size_t old_rows = model.row_factors.rows();
  common::Rng rng(config.seed ^ 0xf01dULL);

  if (model.has_biases()) {
    model.row_bias.resize(old_rows + new_rows.rows, 0.0);
  }

  Matrix grown(old_rows + new_rows.rows, rank);
  for (std::size_t r = 0; r < old_rows; ++r)
    for (std::size_t d = 0; d < rank; ++d)
      grown(r, d) = model.row_factors(r, d);
  for (std::size_t r = old_rows; r < grown.rows(); ++r)
    for (std::size_t d = 0; d < rank; ++d)
      grown(r, d) = config.init_scale * (rng.uniform() - 0.5);
  model.row_factors = std::move(grown);

  // Train only the new rows (and their bias terms); column factors and
  // column biases stay frozen so existing reduced coordinates remain
  // valid. Rows are mutually independent, so the pool-parallel path is
  // bit-identical to the sequential one.
  const SparseDataset* d = &new_rows;
  SparseDataset local;
  if (!new_rows.has_csr()) {
    local.rows = new_rows.rows;
    local.cols = new_rows.cols;
    local.entries = new_rows.entries;
    local.build_csr();
    d = &local;
  }
  auto train_row = [&](std::size_t r) {
    const std::size_t lo = d->row_ptr[r];
    const std::size_t hi = d->row_ptr[r + 1];
    retrain_row_factors(model, old_rows + r, d->col_idx.data() + lo,
                        d->values.data() + lo, hi - lo, config);
  };
  if (pool != nullptr && new_rows.rows > 1) {
    pool->parallel_for(new_rows.rows, train_row);
  } else {
    for (std::size_t r = 0; r < new_rows.rows; ++r) train_row(r);
  }
}

void save(std::ostream& os, const SvdModel& model, common::Codec codec) {
  common::ArtifactWriter w(os, "SVDM", 1);
  common::ChunkWriter meta;
  meta.f64(model.train_rmse);
  meta.f64(model.global_mean);
  meta.vec_f64(model.row_bias, codec);
  meta.vec_f64(model.col_bias, codec);
  w.chunk("META", meta);
  save(os, model.row_factors, codec);
  save(os, model.col_factors, codec);
  w.finish();
}

SvdModel load_svd_model(std::istream& is) {
  common::ArtifactReader r(is, "SVDM");
  if (r.version() != 1)
    throw common::ArtifactError("load_svd_model: unsupported version");
  common::ChunkReader meta = r.chunk("META");
  SvdModel model;
  model.train_rmse = meta.f64();
  model.global_mean = meta.f64();
  model.row_bias = meta.vec_f64();
  model.col_bias = meta.vec_f64();
  meta.expect_consumed();
  model.row_factors = load_matrix(is);
  model.col_factors = load_matrix(is);
  r.finish();
  return model;
}

}  // namespace at::linalg
