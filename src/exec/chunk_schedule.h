#ifndef M3_EXEC_CHUNK_SCHEDULE_H_
#define M3_EXEC_CHUNK_SCHEDULE_H_

/// \file
/// \brief Visit orders for pipeline passes.
///
/// A ChunkSchedule maps pass *positions* to RowChunker *chunk indices*:
/// position p of a pass visits chunk At(p). Everything order-sensitive in
/// the engine — prefetch readahead, hit/stall classification, eviction at
/// retire — operates in position space, while the RAM budget's pinned
/// prefix is keyed by chunk index, so a shuffled SGD epoch or a strided
/// shard interleaving gets the same overlap and bounded residency as a
/// sequential scan. Schedules are immutable value
/// objects: construction (Fisher-Yates for Shuffled) is the only work,
/// At() is O(1), and a given (kind, num_chunks, seed/stride/offset) tuple
/// yields the same permutation on every platform — one half of the
/// engine's bitwise-determinism contract (the other half is the in-order
/// retire barrier, see chunk_pipeline.h). Thread-safety: const access
/// from any thread; typically built per pass and shared by reference.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace m3::exec {

/// \brief Which order a chunked scan visits a RowChunker's chunks in.
///
/// Exposed through core::M3Options so dataset-level scans can pick an
/// order without constructing schedules by hand.
enum class ScanOrder {
  kSequential,  ///< ascending chunk index (the readahead-friendly default)
  kShuffled,    ///< a seeded per-pass permutation (SGD minibatch order)
  kStrided,     ///< 0, s, 2s, ..., 1, 1+s, ... (interleaved shard order)
};

std::string ToString(ScanOrder order);

/// \brief The visit order of one pipeline pass over a chunker's chunks.
///
/// A schedule is a permutation of [0, num_chunks): position p of the pass
/// visits chunk At(p). The pipeline prefetches, classifies stalls, and
/// evicts along *positions*, so shuffled SGD minibatches and strided shard
/// scans get exactly the same readahead overlap and bounded residency as a
/// sequential scan — randomized access order becomes a first-class
/// scheduling concern instead of a caller-side loop.
///
///   auto schedule = exec::ChunkSchedule::Shuffled(chunker.NumChunks(), seed);
///   pipeline.Run(chunker, schedule, map, retire);
///
/// Sequential schedules carry no permutation vector (identity fast path).
class ChunkSchedule {
 public:
  /// Identity order: position p visits chunk p.
  static ChunkSchedule Sequential(size_t num_chunks);

  /// A Fisher-Yates permutation drawn from util::Rng(seed). The same
  /// (num_chunks, seed) always yields the same order, on every platform.
  static ChunkSchedule Shuffled(size_t num_chunks, uint64_t seed);

  /// Visits the lane starting at `offset % stride` first — offset,
  /// offset+stride, ... — then the following lanes in wrapping order until
  /// every chunk is covered once. With offset == 0 this is the classic
  /// interleaving 0, stride, 2*stride, ..., 1, 1+stride, ...; a nonzero
  /// offset rotates the lane order, which is how the cluster simulator
  /// starts instance k's scan at its own shard (stride = instance count,
  /// offset = instance id). stride == 0 or 1 degenerates to Sequential.
  static ChunkSchedule Strided(size_t num_chunks, size_t stride,
                               size_t offset = 0);

  /// Builds the order named by `order` (seed is used only for kShuffled,
  /// stride/offset only for kStrided).
  static ChunkSchedule Make(ScanOrder order, size_t num_chunks,
                            uint64_t seed = 0, size_t stride = 0,
                            size_t offset = 0);

  /// Number of chunks (== positions) in the pass.
  size_t num_chunks() const { return num_chunks_; }

  /// Chunk visited at position `pos`. \pre pos < num_chunks().
  size_t At(size_t pos) const {
    return order_.empty() ? pos : order_[pos];
  }

  /// True for the identity order (no permutation vector is stored).
  bool is_sequential() const { return order_.empty(); }

 private:
  ChunkSchedule(size_t num_chunks, std::vector<size_t> order)
      : num_chunks_(num_chunks), order_(std::move(order)) {}

  size_t num_chunks_ = 0;
  std::vector<size_t> order_;  ///< empty = identity
};

}  // namespace m3::exec

#endif  // M3_EXEC_CHUNK_SCHEDULE_H_
