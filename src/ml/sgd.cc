#include "ml/sgd.h"

#include <algorithm>
#include <cmath>

#include "exec/chunk_pipeline.h"
#include "exec/chunk_schedule.h"
#include "la/blas.h"
#include "la/chunker.h"
#include "util/random.h"

namespace m3::ml {

using util::Result;
using util::Status;

Sgd::Sgd(SgdOptions options) : options_(std::move(options)) {}

Result<OptimizationResult> Sgd::Minimize(ChunkedObjective* objective,
                                         la::VectorView w) const {
  if (objective == nullptr) {
    return Status::InvalidArgument("null objective");
  }
  if (w.size() != objective->Dimension()) {
    return Status::InvalidArgument("initial point has wrong dimension");
  }
  if (options_.batch_rows == 0 || options_.epochs == 0) {
    return Status::InvalidArgument("batch_rows and epochs must be positive");
  }
  const size_t n = objective->NumRows();
  if (n == 0) {
    return Status::InvalidArgument("objective has no data");
  }

  util::Rng rng(options_.seed);
  la::RowChunker chunker(n, options_.batch_rows);
  const size_t num_batches = chunker.NumChunks();
  exec::ChunkPipeline* pipeline = objective->pipeline();

  OptimizationResult result;
  la::Vector grad(w.size());
  size_t step_index = 0;
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    // One shuffle per epoch, drawn from the seed's stream: the visit order
    // depends only on (seed, epoch), never on the engine configuration.
    const exec::ChunkSchedule schedule =
        exec::ChunkSchedule::Shuffled(num_batches, rng.Next());
    double epoch_loss = 0;
    exec::RunPass(
        pipeline, chunker, schedule,
        // Each step reads the weights the previous step wrote, so gradient
        // work cannot fan out across map workers; the engine's value here
        // is prefetch running ahead along the shuffled schedule (and
        // budget eviction as chunks retire) while retire does the math.
        // Retire order is the schedule order at any worker count, which
        // keeps the trained weights bitwise identical across engine
        // configurations.
        [](size_t, size_t, size_t, size_t) {},
        [&](size_t, size_t, size_t row_begin, size_t row_end) {
          grad.SetZero();
          // EvaluateChunk returns loss/n and gradient/n contributions;
          // rescale to the batch mean so the step size is batch-size
          // independent.
          const double scale = static_cast<double>(n) /
                               static_cast<double>(row_end - row_begin);
          const double batch_loss =
              objective->EvaluateChunk(row_begin, row_end, w, grad) * scale;
          ++result.function_evaluations;
          const double lr =
              options_.learning_rate /
              (1.0 + options_.decay * static_cast<double>(step_index));
          la::Axpy(-lr * scale, grad, w);
          epoch_loss += batch_loss;
          ++step_index;
        },
        // Pages are touched by the retire-stage math above, so the
        // prefetch hit/stall race is judged at retire — trustworthy at
        // any pipeline_workers count.
        exec::RaceStage::kRetire);
    epoch_loss /= static_cast<double>(num_batches);
    result.objective_history.push_back(epoch_loss);
    ++result.iterations;
    if (options_.epoch_callback) {
      options_.epoch_callback(epoch, epoch_loss);
    }
  }
  // Final full-data evaluation for reporting. `objective` carries only
  // this value; the per-epoch mean batch losses stay in objective_history
  // so the two are never conflated.
  grad.SetZero();
  result.objective = objective->EvaluateWithGradient(w, grad);
  ++result.function_evaluations;
  result.gradient_norm = la::AbsMax(grad);
  result.converged = true;  // SGD runs a fixed budget
  return result;
}

}  // namespace m3::ml
