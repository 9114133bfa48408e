#ifndef M3_ML_SPARSE_LOGISTIC_REGRESSION_H_
#define M3_ML_SPARSE_LOGISTIC_REGRESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "la/chunker.h"
#include "la/sparse.h"
#include "ml/lbfgs.h"
#include "ml/logistic_regression.h"
#include "ml/objective.h"
#include "util/result.h"

namespace m3::ml {

/// \brief Binary logistic-regression objective over a CSR feature view.
///
/// Same loss, same chunked engine pass, same deterministic merge order as
/// the dense LogisticRegressionObjective — only the per-row kernels
/// change (la::SparseDot / la::SparseAxpy over stored nonzeros). The
/// per-row arithmetic performs the dense row's additions minus its zero
/// terms, into the same lanes, so on a densified copy of the same data the
/// two objectives agree to the last ulp *when chunked identically*
/// (pass `chunk_rows` > 0 for that mode; the conformance suite does).
///
/// Default chunking is the nnz-budget la::SparseChunker
/// (`chunk_nnz_bytes`, 0 = ~8 MiB payload per chunk): ragged rows still
/// yield uniform-cost chunks for the prefetch/evict engine. Boundaries
/// depend only on the data, so results stay bitwise identical at any
/// worker count and prefetch backend, as always.
class SparseLogisticRegressionObjective final : public ChunkedObjective {
 public:
  /// \param x n-by-d CSR view (validated; rows are samples)
  /// \param y n labels in {0, 1}
  /// \param l2 ridge penalty lambda (intercept not penalized)
  /// \param chunk_rows > 0 forces uniform row chunks (dense-conformance
  ///        mode); 0 chunks by nnz budget
  /// \param chunk_nnz_bytes payload bytes per chunk (0 = ~8 MiB); only
  ///        used when chunk_rows == 0
  SparseLogisticRegressionObjective(la::CsrView x, la::ConstVectorView y,
                                    double l2, size_t chunk_rows = 0,
                                    uint64_t chunk_nnz_bytes = 0,
                                    ScanHooks hooks = ScanHooks());

  /// d + 1 parameters: weights then intercept (last element).
  size_t Dimension() const override { return x_.cols() + 1; }
  size_t NumRows() const override { return x_.rows(); }

  double EvaluateChunk(size_t begin, size_t end, la::ConstVectorView w,
                       la::VectorView grad) override;

 protected:
  double ApplyRegularization(la::ConstVectorView w,
                             la::VectorView grad) override;
  std::unique_ptr<la::Chunker> MakeChunker() const override;

 private:
  la::CsrView x_;
  la::ConstVectorView y_;
  double l2_;
  uint64_t chunk_nnz_bytes_;
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
/// the same LogisticRegressionModel as the dense trainer.
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

/// \brief Multiclass softmax-regression objective over a CSR view.
///
/// The sparse twin of SoftmaxRegressionObjective (flattened k x (d+1)
/// parameters); shares ChunkedObjective's engine pass and the chunking
/// policy described on SparseLogisticRegressionObjective.
class SparseSoftmaxRegressionObjective final : public ChunkedObjective {
 public:
  SparseSoftmaxRegressionObjective(la::CsrView x, la::ConstVectorView y,
                                   size_t num_classes, double l2,
                                   size_t chunk_rows = 0,
                                   uint64_t chunk_nnz_bytes = 0,
                                   ScanHooks hooks = ScanHooks());

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
  la::CsrView x_;
  la::ConstVectorView y_;
  size_t num_classes_;
  double l2_;
  uint64_t chunk_nnz_bytes_;
};

/// \brief Options for sparse softmax training.
struct SparseSoftmaxRegressionOptions {
  double l2 = 1e-6;
  size_t chunk_rows = 0;
  uint64_t chunk_nnz_bytes = 0;
  LbfgsOptions lbfgs;
  ScanHooks hooks;
  exec::ChunkPipeline* pipeline = nullptr;
};

/// \brief L-BFGS-trained multiclass classifier on CSR features.
class SparseSoftmaxRegression {
 public:
  explicit SparseSoftmaxRegression(SparseSoftmaxRegressionOptions options =
                                       SparseSoftmaxRegressionOptions());

  util::Result<SoftmaxRegressionModel> Train(
      const la::CsrView& x, la::ConstVectorView y, size_t num_classes,
      OptimizationResult* stats = nullptr) const;

 private:
  SparseSoftmaxRegressionOptions options_;
};

}  // namespace m3::ml

#endif  // M3_ML_SPARSE_LOGISTIC_REGRESSION_H_
