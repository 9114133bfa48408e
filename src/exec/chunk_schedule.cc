#include "exec/chunk_schedule.h"

#include <numeric>
#include <utility>

#include "util/random.h"

namespace m3::exec {

std::string ToString(ScanOrder order) {
  switch (order) {
    case ScanOrder::kSequential:
      return "sequential";
    case ScanOrder::kShuffled:
      return "shuffled";
    case ScanOrder::kStrided:
      return "strided";
  }
  return "unknown";
}

ChunkSchedule ChunkSchedule::Sequential(size_t num_chunks) {
  return ChunkSchedule(num_chunks, {});
}

ChunkSchedule ChunkSchedule::Shuffled(size_t num_chunks, uint64_t seed) {
  std::vector<size_t> order(num_chunks);
  std::iota(order.begin(), order.end(), size_t{0});
  util::Rng rng(seed);
  rng.Shuffle(&order);
  return ChunkSchedule(num_chunks, std::move(order));
}

ChunkSchedule ChunkSchedule::Strided(size_t num_chunks, size_t stride,
                                     size_t offset) {
  if (stride <= 1 || num_chunks == 0) {
    return Sequential(num_chunks);
  }
  // Only lanes below min(stride, num_chunks) contain chunks, so the lane
  // walk is bounded by the chunk count, never by a huge stride. Starting
  // past the populated lanes wraps through empty ones straight to lane 0.
  const size_t lanes = std::min(stride, num_chunks);
  size_t start = offset % stride;
  if (start >= lanes) {
    start = 0;
  }
  // stride >= num_chunks with a leading lane of 0 puts every chunk in its
  // own lane — the identity order — so keep the sequential fast path
  // (kSequential madvise) instead of storing a pointless permutation. A
  // rotated start is no longer the identity and falls through to the
  // general construction.
  if (start == 0 && stride >= num_chunks) {
    return Sequential(num_chunks);
  }
  std::vector<size_t> order;
  order.reserve(num_chunks);
  for (size_t i = 0; i < lanes; ++i) {
    for (size_t c = (start + i) % lanes; c < num_chunks; c += stride) {
      order.push_back(c);
    }
  }
  return ChunkSchedule(num_chunks, std::move(order));
}

ChunkSchedule ChunkSchedule::Make(ScanOrder order, size_t num_chunks,
                                  uint64_t seed, size_t stride,
                                  size_t offset) {
  switch (order) {
    case ScanOrder::kShuffled:
      return Shuffled(num_chunks, seed);
    case ScanOrder::kStrided:
      return Strided(num_chunks, stride, offset);
    case ScanOrder::kSequential:
      break;
  }
  return Sequential(num_chunks);
}

}  // namespace m3::exec
