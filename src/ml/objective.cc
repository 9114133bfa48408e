#include "ml/objective.h"

#include "exec/chunk_map_reduce.h"
#include "exec/chunk_pipeline.h"
#include "la/blas.h"
#include "la/chunker.h"

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
  if (hooks_.before_pass) {
    hooks_.before_pass(passes_);
  }
  ++passes_;
  grad.SetZero();
  double loss = 0;
  const std::unique_ptr<la::Chunker> chunker_ptr = MakeChunker();
  const la::Chunker& chunker = *chunker_ptr;
  const size_t dim = Dimension();
  exec::MapReduceChunks<ChunkPartial>(
      pipeline_, chunker,
      [&](size_t, size_t row_begin, size_t row_end) {
        ChunkPartial partial;
        partial.grad = la::Vector(dim);
        partial.loss =
            EvaluateChunk(row_begin, row_end, w, partial.grad.View());
        return partial;
      },
      [&](size_t chunk, ChunkPartial&& partial) {
        loss += partial.loss;
        la::Axpy(1.0, partial.grad, grad);
        if (hooks_.after_chunk) {
          const la::Chunker::Range range = chunker.Chunk(chunk);
          hooks_.after_chunk(range.begin, range.end);
        }
      });
  loss += ApplyRegularization(w, grad);
  return loss;
}

}  // namespace m3::ml
