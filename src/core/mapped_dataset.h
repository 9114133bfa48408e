#ifndef M3_CORE_MAPPED_DATASET_H_
#define M3_CORE_MAPPED_DATASET_H_

#include <memory>
#include <string>

#include "core/options.h"
#include "data/dataset.h"
#include "exec/chunk_map_reduce.h"
#include "exec/chunk_pipeline.h"
#include "io/mmap_file.h"
#include "la/chunker.h"
#include "obs/residency_sampler.h"
#include "la/matrix.h"
#include "ml/objective.h"
#include "util/result.h"

namespace m3 {

/// \brief An M3 dataset file mapped into the address space.
///
/// The central M3 abstraction: open a dataset of any size and receive
/// matrix/vector *views* indistinguishable from in-memory data. Algorithms
/// take the views; the OS pages the file in and out. With
/// `M3Options::ram_budget_bytes` set, the dataset's pipeline keeps only
/// the first chunks that fit in the budget resident and evicts every other
/// chunk as it retires, which forces the out-of-core regime at laptop
/// scale.
///
///   auto ds = m3::MappedDataset::Open("digits.m3").ValueOrDie();
///   trainer.Train(ds.features(), ds.labels());   // unchanged ML code
class MappedDataset {
 public:
  /// Maps the dataset at `path` read-only.
  static util::Result<MappedDataset> Open(const std::string& path,
                                          M3Options options = M3Options());

  MappedDataset(MappedDataset&&) = default;
  MappedDataset& operator=(MappedDataset&&) = default;
  MappedDataset(const MappedDataset&) = delete;
  MappedDataset& operator=(const MappedDataset&) = delete;

  /// The n x d feature matrix view over the mapping.
  la::ConstMatrixView features() const;

  /// The n labels view over the mapping.
  la::ConstVectorView labels() const;

  /// Copies the labels out (they are small) — convenient for metrics.
  std::vector<double> CopyLabels() const;

  uint64_t rows() const { return meta_.rows; }
  uint64_t cols() const { return meta_.cols; }
  uint32_t num_classes() const { return meta_.num_classes; }
  uint64_t feature_bytes() const { return meta_.FeatureBytes(); }
  const std::string& path() const { return mapping_->path(); }
  const data::DatasetMeta& meta() const { return meta_; }

  /// The underlying mapping (residency inspection, manual advice, ...).
  io::MemoryMappedFile& mapping() { return *mapping_; }
  const io::MemoryMappedFile& mapping() const { return *mapping_; }

  /// Empty scan hooks. The RAM budget is enforced by pipeline(), not by
  /// hooks; this stays for instrumentation that wraps the dataset's hooks
  /// (the repository benchmark's scan probe).
  ml::ScanHooks MakeScanHooks() const { return ml::ScanHooks(); }

  /// The pipelined execution engine bound to the feature region, created
  /// lazily from the open options (readahead_chunks, pipeline_workers,
  /// advice, ram_budget_bytes). Its PipelineStats hold every eviction the
  /// budget causes, under every scan order.
  exec::ChunkPipeline& pipeline();

  /// \name Pipelined chunk scans over the feature rows.
  ///
  /// ForEachChunk drives `fn(chunk_index, row_begin, row_end)` over the
  /// whole feature matrix in `M3Options::scan_order` order (`chunk_rows()`
  /// rows per chunk) with prefetch ahead of the scan — along the
  /// schedule's permutation — and budget eviction as chunks retire.
  /// MapReduceChunks additionally collects one `T` partial per chunk and
  /// folds them in ascending *visit* order — deterministic at any engine
  /// worker count for a fixed schedule. Both perform exactly one full
  /// pass; shuffled order reshuffles every pass (scan_seed + pass).
  /// @{
  void ForEachChunk(const exec::ChunkFn& fn);

  template <typename T, typename MapFn, typename ReduceFn>
  void MapReduceChunks(MapFn&& map, ReduceFn&& reduce) {
    const la::RowChunker chunker(rows(), ScanChunkRows());
    const exec::ChunkSchedule schedule = MakeScanSchedule(chunker.NumChunks());
    ++scan_passes_;
    exec::MapReduceChunks<T>(
        &pipeline(), chunker, schedule,
        [&map](size_t chunk, size_t row_begin, size_t row_end) {
          return map(chunk, row_begin, row_end);
        },
        [&reduce](size_t chunk, T&& partial) {
          reduce(chunk, std::move(partial));
        });
  }
  /// @}

  /// The visit order for the next dataset-driven scan: pass index
  /// `scan_passes()` under the open options (sequential by default;
  /// shuffled reshuffles per pass with scan_seed + pass).
  exec::ChunkSchedule MakeScanSchedule(size_t num_chunks) const;

  /// Dataset-driven scan passes performed so far (ForEachChunk /
  /// MapReduceChunks; training objectives count their own passes).
  size_t scan_passes() const { return scan_passes_; }

  /// Chunk size (rows) the options request for training scans.
  uint64_t chunk_rows() const { return options_.chunk_rows; }

  /// Effective rows per chunk for dataset-driven scans (auto when the
  /// options leave chunk_rows at 0).
  uint64_t ScanChunkRows() const;

  /// Re-applies an madvise hint to the feature region.
  util::Status Advise(io::Advice advice);

  /// Drops the entire feature region from RAM and page cache (cold-cache
  /// benchmark preamble).
  util::Status EvictAll();

 private:
  MappedDataset(std::unique_ptr<io::MemoryMappedFile> mapping,
                data::DatasetMeta meta, M3Options options);

  // unique_ptr keeps the mapping address stable across moves so the
  // pipeline's region (and any outstanding views) remain valid.
  std::unique_ptr<io::MemoryMappedFile> mapping_;
  data::DatasetMeta meta_;
  M3Options options_;
  std::unique_ptr<exec::ChunkPipeline> pipeline_;
  /// Set while the global trace session is active: the residency sampler
  /// tracks this dataset's mincore-resident bytes for its lifetime.
  std::unique_ptr<obs::ScopedMappingRegistration> trace_registration_;
  size_t scan_passes_ = 0;  ///< ForEachChunk/MapReduceChunks passes
};

}  // namespace m3

#endif  // M3_CORE_MAPPED_DATASET_H_
