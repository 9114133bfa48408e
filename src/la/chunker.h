#ifndef M3_LA_CHUNKER_H_
#define M3_LA_CHUNKER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace m3::la {

/// \brief Picks a chunk size targeting ~8 MiB per chunk (min 256 rows)
/// for rows of `cols` doubles. A positive `requested` wins outright.
///
/// The shared chunk-size policy for every sequential scan consumer
/// (trainers, MappedDataset, the execution engine).
inline size_t AutoChunkRows(size_t cols, size_t requested) {
  if (requested > 0) {
    return requested;
  }
  const size_t row_bytes = std::max<size_t>(1, cols * sizeof(double));
  const size_t target = 8ull << 20;  // ~8 MiB per chunk
  return std::max<size_t>(256, target / row_bytes);
}

/// \brief Partitions a row space into contiguous half-open chunks.
///
/// The execution engine (ChunkPipeline, MapReduceChunks, schedules) is
/// written against this interface: a chunk is a row range, and how rows
/// map to bytes is the MappedRegion's business (uniform row stride or a
/// ChunkByteMap). Two policies implement it: RowChunker (fixed row
/// count, the dense layout where every row costs the same) and
/// SparseChunker (an nnz byte budget, so ragged CSR rows still yield
/// chunks of roughly uniform I/O and compute cost).
class Chunker {
 public:
  struct Range {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };

  virtual ~Chunker() = default;

  virtual size_t total_rows() const = 0;
  virtual size_t NumChunks() const = 0;

  /// Half-open row range of chunk `index`. \pre index < NumChunks().
  virtual Range Chunk(size_t index) const = 0;
};

/// \brief Partitions `total` rows into contiguous chunks of at most
/// `chunk_rows`.
///
/// Drives the sequential-scan structure shared by the ML algorithms: one
/// pass per iteration, chunk by chunk, which is what gives M3 its
/// sequential, readahead-friendly access pattern on mapped files.
class RowChunker : public Chunker {
 public:
  RowChunker(size_t total_rows, size_t chunk_rows)
      : total_rows_(total_rows),
        chunk_rows_(chunk_rows == 0 ? 1 : chunk_rows) {}

  size_t total_rows() const override { return total_rows_; }
  size_t chunk_rows() const { return chunk_rows_; }

  size_t NumChunks() const override {
    return total_rows_ == 0 ? 0
                            : (total_rows_ + chunk_rows_ - 1) / chunk_rows_;
  }

  Range Chunk(size_t index) const override {
    M3_CHECK(index < NumChunks(), "chunk index %zu out of %zu", index,
             NumChunks());
    const size_t begin = index * chunk_rows_;
    const size_t end =
        begin + chunk_rows_ < total_rows_ ? begin + chunk_rows_ : total_rows_;
    return Range{begin, end};
  }

 private:
  size_t total_rows_;
  size_t chunk_rows_;
};

/// \brief Default SparseChunker payload budget (~8 MiB per chunk), chosen
/// to match AutoChunkRows so sparse and dense scans present the prefetch
/// engine with similarly sized units.
inline constexpr uint64_t kDefaultNnzBudgetBytes = 8ull << 20;

/// \brief col_idx (uint32) + value (double) bytes per stored nonzero —
/// the payload a CSR scan actually touches per entry.
inline constexpr uint64_t kCsrBytesPerNnz =
    sizeof(uint32_t) + sizeof(double);

/// \brief Partitions CSR rows into contiguous chunks whose *payload* size
/// (nnz × bytes_per_nnz) stays under a byte budget.
///
/// Uniform row counts are the wrong unit for sparse data: a chunk of 4096
/// empty rows costs nothing while a chunk of 4096 dense-ish rows can blow
/// the RAM budget and stall the prefetch window. Chunking by nnz bytes
/// keeps per-chunk I/O and compute cost roughly uniform, which is what the
/// readahead/evict engine and the calibrated perf model assume.
///
/// Boundary policy (greedy, one forward scan at construction):
///   - rows are appended to the current chunk until adding the next row
///     would exceed the budget; then the chunk closes,
///   - a single row larger than the whole budget becomes its own chunk
///     (it has to live somewhere; splitting a row would break the
///     row-range contract),
///   - empty rows are free and merge into whatever chunk is open.
/// Boundaries depend only on (row_ptr, budget, bytes_per_nnz), so every
/// pass and every worker count sees identical chunks — the precondition
/// for the engine's bitwise-deterministic fold.
class SparseChunker : public Chunker {
 public:
  /// `row_ptr` must outlive the chunker and hold `rows + 1` monotone
  /// offsets (a validated CSR row_ptr section). A zero budget clamps to
  /// one byte: every nonzero row becomes its own chunk.
  SparseChunker(const uint64_t* row_ptr, size_t rows,
                uint64_t nnz_budget_bytes = kDefaultNnzBudgetBytes,
                uint64_t bytes_per_nnz = kCsrBytesPerNnz)
      : row_ptr_(row_ptr), total_rows_(rows) {
    const uint64_t budget = std::max<uint64_t>(1, nnz_budget_bytes);
    const uint64_t per_nnz = std::max<uint64_t>(1, bytes_per_nnz);
    bounds_.push_back(0);
    uint64_t open_bytes = 0;  // payload of the chunk under construction
    for (size_t r = 0; r < rows; ++r) {
      M3_CHECK(row_ptr_[r + 1] >= row_ptr_[r],
               "row_ptr not monotone at row %zu", r);
      const uint64_t row_bytes = (row_ptr_[r + 1] - row_ptr_[r]) * per_nnz;
      const bool chunk_open = bounds_.back() != r;
      if (chunk_open && open_bytes + row_bytes > budget) {
        bounds_.push_back(r);
        open_bytes = 0;
      }
      open_bytes += row_bytes;
    }
    if (bounds_.back() != rows) {
      bounds_.push_back(rows);
    }
  }

  size_t total_rows() const override { return total_rows_; }

  size_t NumChunks() const override { return bounds_.size() - 1; }

  Range Chunk(size_t index) const override {
    M3_CHECK(index < NumChunks(), "chunk index %zu out of %zu", index,
             NumChunks());
    return Range{bounds_[index], bounds_[index + 1]};
  }

  /// Stored nonzeros in chunk `index` (its payload is ChunkNnz × the
  /// bytes_per_nnz the chunker was built with).
  uint64_t ChunkNnz(size_t index) const {
    const Range range = Chunk(index);
    return row_ptr_[range.end] - row_ptr_[range.begin];
  }

 private:
  const uint64_t* row_ptr_;
  size_t total_rows_;
  std::vector<size_t> bounds_;  ///< chunk i spans [bounds_[i], bounds_[i+1])
};

}  // namespace m3::la

#endif  // M3_LA_CHUNKER_H_
