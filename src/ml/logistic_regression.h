#ifndef M3_ML_LOGISTIC_REGRESSION_H_
#define M3_ML_LOGISTIC_REGRESSION_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "la/chunker.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "ml/lbfgs.h"
#include "ml/objective.h"
#include "util/logging.h"
#include "util/result.h"

namespace m3::ml {

/// \brief Binary logistic-regression objective over dense
/// (la::ConstMatrixView) or CSR (la::CsrView) feature rows.
///
/// loss(w, b) = (1/n) sum_i [ log(1 + e^{z_i}) - y_i z_i ]
///              + (lambda/2) ||w||^2,   z_i = w . x_i + b
///
/// The data is scanned in sequential row chunks driven by the base-class
/// engine pass (exec::ChunkPipeline when attached); within a chunk the
/// work is partitioned across the thread pool with per-worker partial
/// gradients. Because `x` is a view, the same objective runs on heap data
/// and on an mmap'd dataset — the M3 property under test. One
/// EvaluateWithGradient call performs exactly one full pass over `x`
/// (ScanHooks observe it).
///
/// The row type chooses only the per-row kernels and the chunker; the
/// loss, the partition grain and the merge order are one body for both.
/// - Dense rows use la::Dot / la::Axpy and uniform row chunks
///   (`chunk_rows`, 0 = ~8 MiB of rows).
/// - CSR rows use la::SparseDot / la::SparseAxpy, which perform the dense
///   row's additions minus its zero terms, into the same lanes. So on a
///   densified copy of the same data, chunked identically (`chunk_rows`
///   > 0), the two agree to the last ulp. With `chunk_rows` == 0 CSR rows
///   are chunked by the nnz-budget la::SparseChunker (`chunk_nnz_bytes`,
///   0 = ~8 MiB payload), so ragged rows still yield uniform-cost chunks.
/// Boundaries depend only on the data, so results stay bitwise identical
/// at any worker count and prefetch backend.
///
/// Along a line w0 + alpha * d the loss sees the rows only through their
/// margins z0_i = x_i . w0 + b0 and u_i = x_i . d + d_b, so a pass stores
/// those two (16 bytes a row of heap, allocated at the first line that
/// needs them) and EvalLine costs O(rows) arithmetic. The pass is either
/// PrepareLine's own or the opening probe's: EvaluateOpeningProbe's row
/// loop computes both margins beside the probe's own margin, two more row
/// dots a row, and PrepareLine of that line then performs no pass.
/// EvalLine computes its rows' terms across the thread pool, a bounded
/// window of rows at a time, and sums them in row order on the calling
/// thread.
template <typename Rows>
class LogisticObjective final : public ChunkedObjective {
 public:
  /// \param x n-by-d features (rows are samples; a CSR view must be valid)
  /// \param y n labels in {0, 1}
  /// \param l2 ridge penalty lambda (intercept not penalized)
  /// \param chunk_rows rows per sequential chunk (0 = auto, see above)
  LogisticObjective(Rows x, la::ConstVectorView y, double l2,
                    size_t chunk_rows = 0, ScanHooks hooks = ScanHooks())
      : ChunkedObjective(std::move(hooks)),
        x_(x),
        y_(y),
        l2_(l2),
        chunk_rows_(chunk_rows) {
    M3_CHECK(x_.rows() == y_.size(), "labels size %zu != rows %zu",
             y_.size(), x_.rows());
  }
  /// \param chunk_nnz_bytes payload bytes per chunk (0 = ~8 MiB); only
  ///        used when chunk_rows == 0
  LogisticObjective(Rows x, la::ConstVectorView y, double l2,
                    size_t chunk_rows, uint64_t chunk_nnz_bytes,
                    ScanHooks hooks = ScanHooks())
    requires std::same_as<Rows, la::CsrView>
      : LogisticObjective(x, y, l2, chunk_rows, std::move(hooks)) {
    chunk_nnz_bytes_ = chunk_nnz_bytes;
  }

  /// d + 1 parameters: weights then intercept (last element).
  size_t Dimension() const override { return x_.cols() + 1; }
  size_t NumRows() const override { return x_.rows(); }

  double EvaluateChunk(size_t begin, size_t end, la::ConstVectorView w,
                       la::VectorView grad) override;

  double EvaluateOpeningProbe(la::ConstVectorView w0, la::ConstVectorView d,
                              la::ConstVectorView w,
                              la::VectorView grad) override;
  bool PrepareLine(la::ConstVectorView w0, la::ConstVectorView d) override;
  double EvalLine(double alpha, double* dphi) override;

 protected:
  double ApplyRegularization(la::ConstVectorView w,
                             la::VectorView grad) override;
  std::unique_ptr<la::Chunker> MakeChunker() const override;

 private:
  /// EvaluateChunk's row loop; with `margins`, it also writes rows
  /// [begin, end)'s margins on the held line.
  double ChunkLoss(size_t begin, size_t end, la::ConstVectorView w,
                   la::VectorView grad, bool margins);
  /// Makes (w0, d) the held line, its margins not yet written.
  void HoldLine(la::ConstVectorView w0, la::ConstVectorView d);

  Rows x_;
  la::ConstVectorView y_;
  double l2_;
  size_t chunk_rows_;
  uint64_t chunk_nnz_bytes_ = 0;
  // The held line (origin and direction), its per-row margins at w0 (z0)
  // and along d (u), and whether the margins are written.
  la::Vector line_w0_, line_d_;
  la::Vector z0_, u_;
  bool margins_held_ = false;
  // EvalLine's per-row loss and slope terms, one window of rows at a time.
  la::Vector line_terms_;
};

/// \brief Multiclass softmax-regression objective (k classes) over dense
/// or CSR feature rows.
///
/// Parameters are a flattened k x (d+1) matrix (per-class weights + bias).
/// Same chunked sequential-scan structure, and the same row-type rules,
/// as LogisticObjective, except that CSR rows with `chunk_rows` == 0 are
/// always chunked by the default nnz budget.
template <typename Rows>
class SoftmaxObjective final : public ChunkedObjective {
 public:
  SoftmaxObjective(Rows x, la::ConstVectorView y, size_t num_classes,
                   double l2, size_t chunk_rows = 0,
                   ScanHooks hooks = ScanHooks())
      : ChunkedObjective(std::move(hooks)),
        x_(x),
        y_(y),
        num_classes_(num_classes),
        l2_(l2),
        chunk_rows_(chunk_rows) {
    M3_CHECK(x_.rows() == y_.size(), "labels size mismatch");
    M3_CHECK(num_classes_ >= 2, "need at least 2 classes");
  }

  size_t Dimension() const override {
    return num_classes_ * (x_.cols() + 1);
  }
  size_t NumRows() const override { return x_.rows(); }

  double EvaluateChunk(size_t begin, size_t end, la::ConstVectorView w,
                       la::VectorView grad) override;

  size_t num_classes() const { return num_classes_; }

 protected:
  double ApplyRegularization(la::ConstVectorView w,
                             la::VectorView grad) override;
  std::unique_ptr<la::Chunker> MakeChunker() const override;

 private:
  Rows x_;
  la::ConstVectorView y_;
  size_t num_classes_;
  double l2_;
  size_t chunk_rows_;
};

// Both row types are instantiated once, in logistic_regression.cc.
extern template class LogisticObjective<la::ConstMatrixView>;
extern template class LogisticObjective<la::CsrView>;
extern template class SoftmaxObjective<la::ConstMatrixView>;
extern template class SoftmaxObjective<la::CsrView>;

using LogisticRegressionObjective = LogisticObjective<la::ConstMatrixView>;
using SparseLogisticRegressionObjective = LogisticObjective<la::CsrView>;
using SoftmaxRegressionObjective = SoftmaxObjective<la::ConstMatrixView>;
using SparseSoftmaxRegressionObjective = SoftmaxObjective<la::CsrView>;

/// \brief Trained binary logistic-regression model.
struct LogisticRegressionModel {
  la::Vector weights;  ///< d feature weights
  double intercept = 0;

  /// P(y = 1 | x).
  double PredictProbability(la::ConstVectorView x) const;
  /// Hard 0/1 decision at threshold 0.5.
  double Predict(la::ConstVectorView x) const;
};

/// \brief Options for training logistic regression.
struct LogisticRegressionOptions {
  double l2 = 1e-6;
  size_t chunk_rows = 0;  ///< 0 = auto
  LbfgsOptions lbfgs;
  ScanHooks hooks;
  /// Execution engine driving the training scans (prefetch/evict overlap
  /// and parallel chunk map-reduce). Not owned; nullptr = inline serial.
  exec::ChunkPipeline* pipeline = nullptr;
};

/// \brief L-BFGS-trained logistic regression (the paper's classifier).
class LogisticRegression {
 public:
  explicit LogisticRegression(
      LogisticRegressionOptions options = LogisticRegressionOptions());

  /// Trains on (x, y); labels must be {0, 1}.
  util::Result<LogisticRegressionModel> Train(
      la::ConstMatrixView x, la::ConstVectorView y,
      OptimizationResult* stats = nullptr) const;

 private:
  LogisticRegressionOptions options_;
};

/// \brief Options for training sparse logistic regression.
struct SparseLogisticRegressionOptions {
  double l2 = 1e-6;
  size_t chunk_rows = 0;         ///< > 0: uniform row chunks
  uint64_t chunk_nnz_bytes = 0;  ///< payload budget per chunk (0 = auto)
  LbfgsOptions lbfgs;
  ScanHooks hooks;
  /// Execution engine driving the training scans. For mmap'd CSR data
  /// pass MappedSparseDataset::pipeline() so prefetch/evict follow the
  /// CSR sections. Not owned; nullptr = inline serial.
  exec::ChunkPipeline* pipeline = nullptr;
};

/// \brief L-BFGS-trained logistic regression on CSR features. Produces
/// the same LogisticRegressionModel as the dense trainer, through the same
/// input checks and fit.
class SparseLogisticRegression {
 public:
  explicit SparseLogisticRegression(SparseLogisticRegressionOptions options =
                                        SparseLogisticRegressionOptions());

  /// Trains on (x, y); labels must be {0, 1}.
  util::Result<LogisticRegressionModel> Train(
      const la::CsrView& x, la::ConstVectorView y,
      OptimizationResult* stats = nullptr) const;

 private:
  SparseLogisticRegressionOptions options_;
};

/// \brief Trained softmax model: class scores = W x + b.
struct SoftmaxRegressionModel {
  la::Matrix weights;   ///< k x d
  la::Vector biases;    ///< k
  size_t num_classes() const { return weights.rows(); }

  /// Most likely class for x.
  size_t Predict(la::ConstVectorView x) const;
};

/// \brief Options for softmax training.
struct SoftmaxRegressionOptions {
  double l2 = 1e-6;
  size_t chunk_rows = 0;
  LbfgsOptions lbfgs;
  ScanHooks hooks;
  /// Execution engine driving the training scans (see
  /// LogisticRegressionOptions::pipeline).
  exec::ChunkPipeline* pipeline = nullptr;
};

/// \brief L-BFGS-trained multiclass classifier (for the 10-digit example).
class SoftmaxRegression {
 public:
  explicit SoftmaxRegression(
      SoftmaxRegressionOptions options = SoftmaxRegressionOptions());

  util::Result<SoftmaxRegressionModel> Train(
      la::ConstMatrixView x, la::ConstVectorView y, size_t num_classes,
      OptimizationResult* stats = nullptr) const;

 private:
  SoftmaxRegressionOptions options_;
};

/// The chunk-size policy lives with the chunker; re-exported here for the
/// trainers and their callers.
using la::AutoChunkRows;

}  // namespace m3::ml

#endif  // M3_ML_LOGISTIC_REGRESSION_H_
