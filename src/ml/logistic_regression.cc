#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "la/blas.h"
#include "util/format.h"
#include "util/thread_pool.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

/// Numerically stable log(1 + e^z).
double Log1pExp(double z) {
  if (z > 0) {
    return z + std::log1p(std::exp(-z));
  }
  return std::log1p(std::exp(z));
}

/// Numerically stable sigmoid.
double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// The per-row kernels, chosen by the row type. A sparse row performs the
// dense row's additions minus its zero terms, into the same lanes.

double RowDot(la::ConstVectorView x, la::ConstVectorView w) {
  return la::Dot(x, w);
}

double RowDot(const la::SparseRowView& x, la::ConstVectorView w) {
  return la::SparseDot(x, w);
}

void RowAxpy(double alpha, la::ConstVectorView x, la::VectorView y) {
  la::Axpy(alpha, x, y);
}

void RowAxpy(double alpha, const la::SparseRowView& x, la::VectorView y) {
  la::SparseAxpy(alpha, x, y);
}

// The chunker, chosen by the row type. Chunk boundaries fix the merge
// grouping, and so the bits.

std::unique_ptr<la::Chunker> MakeRowsChunker(const la::ConstMatrixView& x,
                                             size_t chunk_rows,
                                             uint64_t /*chunk_nnz_bytes*/) {
  return std::make_unique<la::RowChunker>(
      x.rows(), la::AutoChunkRows(x.cols(), chunk_rows));
}

std::unique_ptr<la::Chunker> MakeRowsChunker(const la::CsrView& x,
                                             size_t chunk_rows,
                                             uint64_t chunk_nnz_bytes) {
  if (chunk_rows > 0) {
    // Uniform row chunks: boundaries (and therefore merge grouping and
    // bits) match a dense scan of the densified data.
    return std::make_unique<la::RowChunker>(x.rows(), chunk_rows);
  }
  const uint64_t budget = chunk_nnz_bytes > 0 ? chunk_nnz_bytes
                                              : la::kDefaultNnzBudgetBytes;
  return std::make_unique<la::SparseChunker>(x.row_ptr(), x.rows(), budget);
}

/// Input checks shared by every trainer and both row types: a non-empty
/// shape, one label per row, and labels that are class indices.
Status CheckInputs(size_t rows, size_t cols, la::ConstVectorView y,
                   size_t num_classes) {
  if (rows == 0 || cols == 0) {
    return Status::InvalidArgument("empty training data");
  }
  if (rows != y.size()) {
    return Status::InvalidArgument("labels size does not match rows");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  for (size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0 || y[i] >= static_cast<double>(num_classes) ||
        y[i] != std::floor(y[i])) {
      return Status::InvalidArgument(util::StrFormat(
          "labels must be integers in [0, %zu)", num_classes));
    }
  }
  return Status::OK();
}

/// Minimizes `objective` with L-BFGS from zero, its scans driven by
/// `pipeline`; returns the minimizer.
Result<la::Vector> FitFromZero(ChunkedObjective* objective,
                               exec::ChunkPipeline* pipeline,
                               const LbfgsOptions& lbfgs,
                               OptimizationResult* stats) {
  objective->set_pipeline(pipeline);
  la::Vector params(objective->Dimension());  // zero init
  Lbfgs optimizer(lbfgs);
  M3_ASSIGN_OR_RETURN(OptimizationResult result,
                      optimizer.Minimize(objective, params));
  if (stats != nullptr) {
    *stats = result;
  }
  return params;
}

/// The margin pass writes its rows in place, so its chunks have nothing to
/// merge.
struct NoPartial {};

/// EvalLine's window: the rows whose loss and slope terms it holds at once
/// (16 bytes each).
constexpr size_t kLineWindowRows = 32768;

bool SameBits(la::ConstVectorView a, la::ConstVectorView b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// LogisticObjective's parameters (weights, then intercept) as a model.
LogisticRegressionModel ToLogisticModel(const la::Vector& params) {
  const size_t d = params.size() - 1;
  LogisticRegressionModel model;
  model.weights = la::Vector(d);
  la::Copy(params.View().Slice(0, d), model.weights);
  model.intercept = params[d];
  return model;
}

}  // namespace

// ---------------------------------------------------------------------------
// Binary logistic regression
// ---------------------------------------------------------------------------

template <typename Rows>
std::unique_ptr<la::Chunker> LogisticObjective<Rows>::MakeChunker() const {
  return MakeRowsChunker(x_, chunk_rows_, chunk_nnz_bytes_);
}

template <typename Rows>
double LogisticObjective<Rows>::EvaluateChunk(size_t begin, size_t end,
                                              la::ConstVectorView w,
                                              la::VectorView grad) {
  return ChunkLoss(begin, end, w, grad, /*margins=*/false);
}

template <typename Rows>
double LogisticObjective<Rows>::ChunkLoss(size_t begin, size_t end,
                                          la::ConstVectorView w,
                                          la::VectorView grad, bool margins) {
  const size_t d = x_.cols();
  const double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, NumRows()));
  la::ConstVectorView weights = w.Slice(0, d);
  const double intercept = w[d];
  // The held line, read only with `margins`: the margin pass's operands.
  la::ConstVectorView w0_weights, d_weights;
  double b0 = 0, d_b = 0;
  if (margins) {
    w0_weights = line_w0_.View().Slice(0, d);
    d_weights = line_d_.View().Slice(0, d);
    b0 = line_w0_[d];
    d_b = line_d_[d];
  }

  // Per-chunk partials merged in chunk order (deterministic FP reduction).
  const auto ranges = util::PartitionRange(
      begin, end, 512, util::GlobalThreadPool().num_threads());
  std::vector<la::Vector> partials(ranges.size(), la::Vector(d + 1));
  std::vector<double> losses(ranges.size(), 0.0);
  util::ParallelForIndexed(begin, end, 512,
                           [&](size_t chunk, size_t lo, size_t hi) {
    la::Vector& partial = partials[chunk];
    double local_loss = 0;
    for (size_t r = lo; r < hi; ++r) {
      const auto xi = x_.Row(r);
      const double z = RowDot(xi, weights) + intercept;
      if (margins) {
        z0_[r] = RowDot(xi, w0_weights) + b0;
        u_[r] = RowDot(xi, d_weights) + d_b;
      }
      const double yi = y_[r];
      local_loss += Log1pExp(z) - yi * z;
      const double residual = (Sigmoid(z) - yi) * inv_n;
      RowAxpy(residual, xi, partial.View().Slice(0, d));
      partial[d] += residual;
    }
    losses[chunk] = local_loss;
  });
  double chunk_loss = 0;
  for (size_t c = 0; c < ranges.size(); ++c) {
    chunk_loss += losses[c];
    la::Axpy(1.0, partials[c], grad);
  }
  return chunk_loss * inv_n;
}

template <typename Rows>
double LogisticObjective<Rows>::ApplyRegularization(la::ConstVectorView w,
                                                    la::VectorView grad) {
  // Ridge penalty on the weights (not the intercept).
  const size_t d = x_.cols();
  if (l2_ <= 0) {
    return 0.0;
  }
  la::ConstVectorView weights = w.Slice(0, d);
  la::Axpy(l2_, weights, grad.Slice(0, d));
  return 0.5 * l2_ * la::Dot(weights, weights);
}

template <typename Rows>
void LogisticObjective<Rows>::HoldLine(la::ConstVectorView w0,
                                       la::ConstVectorView d) {
  if (line_w0_.size() == 0) {  // the first line that needs the margins
    line_w0_ = la::Vector(Dimension());
    line_d_ = la::Vector(Dimension());
    z0_ = la::Vector(NumRows());
    u_ = la::Vector(NumRows());
  }
  la::Copy(w0, line_w0_);
  la::Copy(d, line_d_);
  margins_held_ = false;
}

template <typename Rows>
double LogisticObjective<Rows>::EvaluateOpeningProbe(la::ConstVectorView w0,
                                                     la::ConstVectorView d,
                                                     la::ConstVectorView w,
                                                     la::VectorView grad) {
  HoldLine(w0, d);
  const double f = GradientPass(
      w, grad, [&](size_t begin, size_t end, la::VectorView partial) {
        return ChunkLoss(begin, end, w, partial, /*margins=*/true);
      });
  margins_held_ = true;
  return f;
}

template <typename Rows>
bool LogisticObjective<Rows>::PrepareLine(la::ConstVectorView w0,
                                          la::ConstVectorView d) {
  if (margins_held_ && SameBits(w0, line_w0_) && SameBits(d, line_d_)) {
    return true;  // an earlier pass wrote this line's margins
  }
  HoldLine(w0, d);
  const size_t cols = x_.cols();
  la::ConstVectorView w0_weights = w0.Slice(0, cols);
  la::ConstVectorView d_weights = d.Slice(0, cols);
  const double b0 = w0[cols];
  const double d_b = d[cols];
  // Each row's margins are its own, so splitting a chunk across the pool
  // does not reach the bits.
  MapReducePass<NoPartial>(
      [&](size_t, size_t begin, size_t end) {
        util::ParallelFor(begin, end, 512, [&](size_t lo, size_t hi) {
          for (size_t r = lo; r < hi; ++r) {
            const auto xi = x_.Row(r);
            z0_[r] = RowDot(xi, w0_weights) + b0;
            u_[r] = RowDot(xi, d_weights) + d_b;
          }
        });
        return NoPartial{};
      },
      [](size_t, NoPartial&&) {});
  margins_held_ = true;
  return true;
}

template <typename Rows>
double LogisticObjective<Rows>::EvalLine(double alpha, double* dphi) {
  M3_CHECK(margins_held_, "EvalLine before PrepareLine");
  const size_t n = NumRows();
  if (line_terms_.size() == 0) {
    line_terms_ = la::Vector(2 * std::min(n, kLineWindowRows));
  }
  // Each row's loss and slope terms are its own, so the pool computes them
  // a window at a time, and this thread sums them in row order: the bits
  // of one serial loop over the rows, at any pool size.
  double loss = 0;
  double slope = 0;
  double* terms = line_terms_.data();
  for (size_t window = 0; window < n; window += kLineWindowRows) {
    const size_t window_end = std::min(n, window + kLineWindowRows);
    util::ParallelFor(window, window_end, 512, [&](size_t lo, size_t hi) {
      for (size_t r = lo; r < hi; ++r) {
        const double z = z0_[r] + alpha * u_[r];
        double* row_terms = terms + 2 * (r - window);
        row_terms[0] = Log1pExp(z) - y_[r] * z;
        row_terms[1] = (Sigmoid(z) - y_[r]) * u_[r];
      }
    });
    for (size_t i = 0; i < 2 * (window_end - window); i += 2) {
      loss += terms[i];
      slope += terms[i + 1];
    }
  }
  const double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, n));
  loss *= inv_n;
  slope *= inv_n;
  if (l2_ > 0) {
    // The ridge term on the weights of w0 + alpha d, built by the same
    // Copy + Axpy that builds a line search's probe point.
    la::Vector w(Dimension());
    la::Copy(line_w0_, w);
    la::Axpy(alpha, line_d_, w);
    const size_t cols = x_.cols();
    la::ConstVectorView weights = w.View().Slice(0, cols);
    loss += 0.5 * l2_ * la::Dot(weights, weights);
    slope += l2_ * la::Dot(weights, line_d_.View().Slice(0, cols));
  }
  *dphi = slope;
  return loss;
}

template class LogisticObjective<la::ConstMatrixView>;
template class LogisticObjective<la::CsrView>;

double LogisticRegressionModel::PredictProbability(
    la::ConstVectorView x) const {
  return Sigmoid(la::Dot(x, weights) + intercept);
}

double LogisticRegressionModel::Predict(la::ConstVectorView x) const {
  return PredictProbability(x) >= 0.5 ? 1.0 : 0.0;
}

LogisticRegression::LogisticRegression(LogisticRegressionOptions options)
    : options_(std::move(options)) {}

Result<LogisticRegressionModel> LogisticRegression::Train(
    la::ConstMatrixView x, la::ConstVectorView y,
    OptimizationResult* stats) const {
  M3_RETURN_IF_ERROR(CheckInputs(x.rows(), x.cols(), y, 2));
  LogisticRegressionObjective objective(x, y, options_.l2,
                                        options_.chunk_rows, options_.hooks);
  M3_ASSIGN_OR_RETURN(la::Vector params,
                      FitFromZero(&objective, options_.pipeline,
                                  options_.lbfgs, stats));
  return ToLogisticModel(params);
}

SparseLogisticRegression::SparseLogisticRegression(
    SparseLogisticRegressionOptions options)
    : options_(std::move(options)) {}

Result<LogisticRegressionModel> SparseLogisticRegression::Train(
    const la::CsrView& x, la::ConstVectorView y,
    OptimizationResult* stats) const {
  M3_RETURN_IF_ERROR(CheckInputs(x.rows(), x.cols(), y, 2));
  SparseLogisticRegressionObjective objective(
      x, y, options_.l2, options_.chunk_rows, options_.chunk_nnz_bytes,
      options_.hooks);
  M3_ASSIGN_OR_RETURN(la::Vector params,
                      FitFromZero(&objective, options_.pipeline,
                                  options_.lbfgs, stats));
  return ToLogisticModel(params);
}

// ---------------------------------------------------------------------------
// Softmax regression
// ---------------------------------------------------------------------------

template <typename Rows>
std::unique_ptr<la::Chunker> SoftmaxObjective<Rows>::MakeChunker() const {
  return MakeRowsChunker(x_, chunk_rows_, /*chunk_nnz_bytes=*/0);
}

template <typename Rows>
double SoftmaxObjective<Rows>::EvaluateChunk(size_t begin, size_t end,
                                             la::ConstVectorView w,
                                             la::VectorView grad) {
  const size_t d = x_.cols();
  const size_t k = num_classes_;
  const size_t stride = d + 1;  // per-class weights + bias
  const double inv_n = 1.0 / static_cast<double>(std::max<size_t>(1, NumRows()));

  const auto ranges = util::PartitionRange(
      begin, end, 256, util::GlobalThreadPool().num_threads());
  std::vector<la::Vector> partials(ranges.size(), la::Vector(k * stride));
  std::vector<double> losses(ranges.size(), 0.0);
  util::ParallelForIndexed(begin, end, 256,
                           [&](size_t chunk, size_t lo, size_t hi) {
    la::Vector& partial = partials[chunk];
    std::vector<double> scores(k);
    double local_loss = 0;
    for (size_t r = lo; r < hi; ++r) {
      const auto xi = x_.Row(r);
      double max_score = -1e300;
      for (size_t c = 0; c < k; ++c) {
        la::ConstVectorView wc = w.Slice(c * stride, d);
        scores[c] = RowDot(xi, wc) + w[c * stride + d];
        max_score = std::max(max_score, scores[c]);
      }
      double sum_exp = 0;
      for (size_t c = 0; c < k; ++c) {
        scores[c] = std::exp(scores[c] - max_score);
        sum_exp += scores[c];
      }
      const size_t label = static_cast<size_t>(y_[r]);
      // loss_i = -log p_label = -(score_label - max - log sum_exp)
      local_loss += std::log(sum_exp) - std::log(scores[label]);
      for (size_t c = 0; c < k; ++c) {
        const double p = scores[c] / sum_exp;
        const double coeff = (p - (c == label ? 1.0 : 0.0)) * inv_n;
        RowAxpy(coeff, xi, partial.View().Slice(c * stride, d));
        partial[c * stride + d] += coeff;
      }
    }
    losses[chunk] = local_loss;
  });
  double chunk_loss = 0;
  for (size_t c = 0; c < ranges.size(); ++c) {
    chunk_loss += losses[c];
    la::Axpy(1.0, partials[c], grad);
  }
  return chunk_loss * inv_n;
}

template <typename Rows>
double SoftmaxObjective<Rows>::ApplyRegularization(la::ConstVectorView w,
                                                   la::VectorView grad) {
  if (l2_ <= 0) {
    return 0.0;
  }
  double loss = 0;
  const size_t d = x_.cols();
  const size_t stride = d + 1;
  for (size_t c = 0; c < num_classes_; ++c) {
    la::ConstVectorView wc = w.Slice(c * stride, d);
    loss += 0.5 * l2_ * la::Dot(wc, wc);
    la::Axpy(l2_, wc, grad.Slice(c * stride, d));
  }
  return loss;
}

template class SoftmaxObjective<la::ConstMatrixView>;
template class SoftmaxObjective<la::CsrView>;

size_t SoftmaxRegressionModel::Predict(la::ConstVectorView x) const {
  size_t best = 0;
  double best_score = -1e300;
  for (size_t c = 0; c < weights.rows(); ++c) {
    const double score = la::Dot(x, weights.Row(c)) + biases[c];
    if (score > best_score) {
      best_score = score;
      best = c;
    }
  }
  return best;
}

SoftmaxRegression::SoftmaxRegression(SoftmaxRegressionOptions options)
    : options_(std::move(options)) {}

Result<SoftmaxRegressionModel> SoftmaxRegression::Train(
    la::ConstMatrixView x, la::ConstVectorView y, size_t num_classes,
    OptimizationResult* stats) const {
  M3_RETURN_IF_ERROR(CheckInputs(x.rows(), x.cols(), y, num_classes));
  SoftmaxRegressionObjective objective(x, y, num_classes, options_.l2,
                                       options_.chunk_rows, options_.hooks);
  M3_ASSIGN_OR_RETURN(la::Vector params,
                      FitFromZero(&objective, options_.pipeline,
                                  options_.lbfgs, stats));
  const size_t d = x.cols();
  const size_t stride = d + 1;
  SoftmaxRegressionModel model;
  model.weights = la::Matrix(num_classes, d);
  model.biases = la::Vector(num_classes);
  for (size_t c = 0; c < num_classes; ++c) {
    la::Copy(params.View().Slice(c * stride, d), model.weights.Row(c));
    model.biases[c] = params[c * stride + d];
  }
  return model;
}

}  // namespace m3::ml
