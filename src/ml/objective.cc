#include "ml/objective.h"

#include "la/blas.h"
#include "util/logging.h"

namespace m3::ml {

namespace {

/// One chunk's contribution to the pass: loss + partial gradient.
struct ChunkPartial {
  double loss = 0;
  la::Vector grad;
};

}  // namespace

double ChunkedObjective::EvaluateWithGradient(la::ConstVectorView w,
                                              la::VectorView grad) {
  return GradientPass(
      w, grad, [&](size_t begin, size_t end, la::VectorView partial) {
        return EvaluateChunk(begin, end, w, partial);
      });
}

double ChunkedObjective::GradientPass(
    la::ConstVectorView w, la::VectorView grad,
    const std::function<double(size_t, size_t, la::VectorView)>& chunk) {
  grad.SetZero();
  double loss = 0;
  const size_t dim = Dimension();
  MapReducePass<ChunkPartial>(
      [&](size_t, size_t row_begin, size_t row_end) {
        ChunkPartial partial;
        partial.grad = la::Vector(dim);
        partial.loss = chunk(row_begin, row_end, partial.grad.View());
        return partial;
      },
      [&](size_t, ChunkPartial&& partial) {
        loss += partial.loss;
        la::Axpy(1.0, partial.grad, grad);
      });
  loss += ApplyRegularization(w, grad);
  return loss;
}

double ChunkedObjective::EvalLine(double /*alpha*/, double* /*dphi*/) {
  M3_LOG_FATAL("EvalLine needs a line from a PrepareLine that returned true");
  return 0;
}

}  // namespace m3::ml
