#ifndef M3_ML_OBJECTIVE_H_
#define M3_ML_OBJECTIVE_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>

#include "exec/chunk_map_reduce.h"
#include "la/chunker.h"
#include "la/matrix.h"

namespace m3::ml {

/// \brief A differentiable objective f: R^d -> R to be minimized.
///
/// The optimizer (L-BFGS) knows only this interface; the data-backed
/// objectives below implement it with sequential chunked scans, so one
/// `EvaluateWithGradient` call equals one full pass over the dataset — the
/// unit of I/O the paper's runtime analysis counts.
class DifferentiableFunction {
 public:
  virtual ~DifferentiableFunction() = default;

  /// Number of parameters.
  virtual size_t Dimension() const = 0;

  /// Returns f(w) and writes the full gradient into `grad`.
  /// \pre w.size() == grad.size() == Dimension().
  virtual double EvaluateWithGradient(la::ConstVectorView w,
                                      la::VectorView grad) = 0;
};

/// \brief Instrumentation hooks for data-scanning objectives.
///
/// `after_chunk` fires after each contiguous block of rows has been
/// consumed during a pass, on the calling thread in ascending chunk order.
/// `before_pass` fires at the start of every full pass over the data (each
/// optimizer function evaluation is one pass). Hooks only observe: RAM
/// budget eviction is the pipeline's evict stage (exec::ChunkPipeline).
struct ScanHooks {
  std::function<void(size_t row_begin, size_t row_end)> after_chunk;
  std::function<void(size_t pass_index)> before_pass;
};

/// \brief A data-backed objective that can be evaluated on row subsets.
///
/// Extends DifferentiableFunction with per-chunk evaluation used by the
/// mini-batch SGD trainer (the paper's §4 online-learning extension).
///
/// The base class owns the sequential chunked scan: EvaluateWithGradient
/// drives EvaluateChunk over MakeChunker()'s chunks through the pipelined
/// execution engine (`exec::ChunkPipeline`, when one is attached) with
/// per-chunk partial gradients merged in ascending chunk order. The merge
/// order is independent of the engine's worker count, so a trained model
/// is bitwise identical in serial mode, at 1 worker, and at N workers.
///
/// A subclass may also restrict itself to a line (PrepareLine/EvalLine).
/// Lbfgs uses that once a line search's opening probe fails: what the
/// later probes of that line need is stored once, and they cost no pass.
/// On a line where the opening probe is likely to fail, Lbfgs opens with
/// EvaluateOpeningProbe, whose pass may store it too, so that the line
/// then costs no pass beyond its probe and its accepted step.
class ChunkedObjective : public DifferentiableFunction {
 public:
  /// Rows in the backing dataset.
  virtual size_t NumRows() const = 0;

  /// Adds the gradient contribution of rows [begin, end) (already divided
  /// by NumRows() so that summing all chunks yields the full data term) and
  /// returns those rows' loss contribution. Regularization is NOT included;
  /// it is applied once per full pass by ApplyRegularization. Must be
  /// deterministic and safe to call concurrently on disjoint row ranges.
  virtual double EvaluateChunk(size_t begin, size_t end,
                               la::ConstVectorView w,
                               la::VectorView grad) = 0;

  /// One full engine-driven pass: chunk partials via EvaluateChunk, merged
  /// in chunk order, plus the per-pass regularization term.
  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override;

  /// The opening probe of the line w0 + alpha * d: one full pass that
  /// returns EvaluateWithGradient(w, grad)'s bits at `w`, which the caller
  /// built as w0 + alpha * d. An objective with a line restriction also
  /// stores what EvalLine needs in the same pass, so that a following
  /// PrepareLine(w0, d) needs none. The default is EvaluateWithGradient.
  virtual double EvaluateOpeningProbe(la::ConstVectorView /*w0*/,
                                      la::ConstVectorView /*d*/,
                                      la::ConstVectorView w,
                                      la::VectorView grad) {
    return EvaluateWithGradient(w, grad);
  }

  /// Restricts the objective to the line w0 + alpha * d and returns true.
  /// If the objective already holds what EvalLine needs for this line
  /// (w0 and d equal bitwise to an earlier EvaluateOpeningProbe's or
  /// PrepareLine's), it performs no pass; otherwise one full pass (counted
  /// in passes()) stores it. Returns false without a pass when the
  /// objective has no line restriction, which is the default; a line
  /// search then spends a pass on every probe.
  virtual bool PrepareLine(la::ConstVectorView /*w0*/,
                           la::ConstVectorView /*d*/) {
    return false;
  }

  /// phi(alpha) = f(w0 + alpha * d), with phi'(alpha) in `dphi`, on the
  /// line of the latest PrepareLine that returned true, with no
  /// EvaluateOpeningProbe since (it may hold another line). Reads no
  /// data. The values agree with EvaluateWithGradient's f and grad . d to
  /// rounding, not bitwise; at any pool size they are the bits of one
  /// fixed row-order sum.
  virtual double EvalLine(double alpha, double* dphi);

  /// Full data passes performed so far.
  size_t passes() const { return passes_; }

  /// Attaches the execution engine driving this objective's scans (not
  /// owned; nullptr reverts to the inline serial scan).
  void set_pipeline(exec::ChunkPipeline* pipeline) { pipeline_ = pipeline; }
  exec::ChunkPipeline* pipeline() const { return pipeline_; }

 protected:
  explicit ChunkedObjective(ScanHooks hooks) : hooks_(std::move(hooks)) {}

  /// The chunker driving EvaluateWithGradient's pass. The loss templates
  /// (logistic_regression.h) build a la::RowChunker over dense rows, and
  /// over CSR rows an nnz-budget la::SparseChunker unless uniform row
  /// chunks are requested, so ragged rows still yield uniform-cost chunks.
  /// Must be deterministic: the chunk boundaries fix the FP merge
  /// grouping, so the same chunker means the same bits at every worker
  /// count.
  virtual std::unique_ptr<la::Chunker> MakeChunker() const = 0;

  /// Adds the per-pass regularization contribution (once per full pass,
  /// after all chunks merged) and returns its loss term.
  virtual double ApplyRegularization(la::ConstVectorView w,
                                     la::VectorView grad) = 0;

  /// One EvaluateWithGradient pass at `w` whose rows go through
  /// `chunk(begin, end, partial)`, which returns rows [begin, end)'s loss
  /// and adds their gradient into `partial` as EvaluateChunk does.
  /// Partials merge in chunk order, then the regularization is added.
  double GradientPass(
      la::ConstVectorView w, la::VectorView grad,
      const std::function<double(size_t, size_t, la::VectorView)>& chunk);

  /// One full pass over MakeChunker()'s chunks; every pass this class
  /// makes goes through here. Fires `before_pass`, counts the pass, and
  /// runs exec::MapReduceChunks through the attached pipeline: `map` may
  /// run on engine workers, while `reduce` and then `after_chunk` run on
  /// the calling thread in ascending chunk order.
  template <typename T, typename MapFn, typename ReduceFn>
  void MapReducePass(MapFn&& map, ReduceFn&& reduce) {
    if (hooks_.before_pass) {
      hooks_.before_pass(passes_);
    }
    ++passes_;
    const std::unique_ptr<la::Chunker> chunker = MakeChunker();
    exec::MapReduceChunks<T>(
        pipeline_, *chunker, std::forward<MapFn>(map),
        [&](size_t chunk, T&& partial) {
          reduce(chunk, std::move(partial));
          if (hooks_.after_chunk) {
            const la::Chunker::Range range = chunker->Chunk(chunk);
            hooks_.after_chunk(range.begin, range.end);
          }
        });
  }

  ScanHooks hooks_;
  exec::ChunkPipeline* pipeline_ = nullptr;
  size_t passes_ = 0;
};

}  // namespace m3::ml

#endif  // M3_ML_OBJECTIVE_H_
