#ifndef M3_CORE_SPARSE_MAPPED_DATASET_H_
#define M3_CORE_SPARSE_MAPPED_DATASET_H_

#include <memory>
#include <string>
#include <vector>

#include "core/options.h"
#include "data/sparse_dataset.h"
#include "exec/chunk_pipeline.h"
#include "io/mmap_file.h"
#include "la/chunker.h"
#include "la/sparse.h"
#include "obs/residency_sampler.h"
#include "util/result.h"

namespace m3 {

/// \brief Translates CSR row ranges to the byte spans a scan touches.
///
/// A chunk of rows [b, e) reads three spans: its row_ptr slice (b..e
/// inclusive of the closing offset), its col_idx slice and its values
/// slice — the latter two located via row_ptr, so spans are a pure
/// function of the row range as exec::ChunkByteMap requires. This is the
/// whole sparse-specific surface the engine sees: prefetch backends,
/// schedules, eviction, counters and tracing consume spans and carry
/// over unchanged.
class CsrByteMap final : public exec::ChunkByteMap {
 public:
  /// `row_ptr` points into the mapping described by `meta` and must
  /// outlive the map.
  CsrByteMap(const data::SparseDatasetMeta& meta, const uint64_t* row_ptr)
      : meta_(meta), row_ptr_(row_ptr) {}

  void AppendSpans(size_t row_begin, size_t row_end,
                   std::vector<exec::ByteSpan>* out) const override;
  exec::ByteSpan Extent() const override;

 private:
  data::SparseDatasetMeta meta_;
  const uint64_t* row_ptr_;
};

/// \brief An M3 sparse (CSR) dataset file mapped into the address space.
///
/// The sparse twin of MappedDataset: open a CSR file of any size and
/// receive a la::CsrView indistinguishable from in-memory data, plus a
/// ChunkPipeline whose prefetch/evict stages follow the CSR sections via
/// CsrByteMap. Open() validates the structure end to end (monotone
/// row_ptr, header/section agreement, column bounds) before handing out
/// a view, so the kernels can trust their invariants — the price is one
/// O(rows + nnz) sequential pass over sections a training scan was about
/// to fault in anyway.
class MappedSparseDataset {
 public:
  static util::Result<MappedSparseDataset> Open(const std::string& path,
                                                M3Options options = M3Options());

  MappedSparseDataset(MappedSparseDataset&&) = default;
  MappedSparseDataset& operator=(MappedSparseDataset&&) = default;
  MappedSparseDataset(const MappedSparseDataset&) = delete;
  MappedSparseDataset& operator=(const MappedSparseDataset&) = delete;

  /// The validated CSR view over the mapping.
  la::CsrView csr() const;

  /// The n labels view over the mapping.
  la::ConstVectorView labels() const;

  /// Copies the labels out (they are small) — convenient for metrics.
  std::vector<double> CopyLabels() const;

  uint64_t rows() const { return meta_.rows; }
  uint64_t cols() const { return meta_.cols; }
  uint64_t nnz() const { return meta_.nnz; }
  uint32_t num_classes() const { return meta_.num_classes; }
  /// Feature bytes a full pass scans (col_idx + values sections).
  uint64_t payload_bytes() const { return meta_.PayloadBytes(); }
  const std::string& path() const { return mapping_->path(); }
  const data::SparseDatasetMeta& meta() const { return meta_; }

  io::MemoryMappedFile& mapping() { return *mapping_; }
  const io::MemoryMappedFile& mapping() const { return *mapping_; }

  /// The row→bytes translation bound to this mapping.
  const CsrByteMap& byte_map() const { return *byte_map_; }

  /// Target payload bytes per chunk from the open options (0 = auto).
  uint64_t ChunkNnzBytes() const;

  /// The nnz-budget chunker for this dataset's row_ptr. With
  /// `M3Options::chunk_rows` set the caller wants uniform row chunks;
  /// build a la::RowChunker instead (the CSR loss objectives of
  /// ml/logistic_regression.h do when chunk_rows > 0).
  la::SparseChunker MakeChunker() const;

  /// The pipelined execution engine bound to the CSR sections via
  /// byte_map(), created lazily from the open options.
  exec::ChunkPipeline& pipeline();

  /// Drops the CSR payload sections from RAM and page cache (cold-cache
  /// benchmark preamble).
  util::Status EvictAll();

 private:
  MappedSparseDataset(std::unique_ptr<io::MemoryMappedFile> mapping,
                      data::SparseDatasetMeta meta, M3Options options);

  // unique_ptrs keep addresses stable across moves: the pipeline holds
  // the byte map by pointer and views point into the mapping.
  std::unique_ptr<io::MemoryMappedFile> mapping_;
  data::SparseDatasetMeta meta_;
  M3Options options_;
  std::unique_ptr<CsrByteMap> byte_map_;
  std::unique_ptr<exec::ChunkPipeline> pipeline_;
  std::unique_ptr<obs::ScopedMappingRegistration> trace_registration_;
};

}  // namespace m3

#endif  // M3_CORE_SPARSE_MAPPED_DATASET_H_
