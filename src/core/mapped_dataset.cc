#include "core/mapped_dataset.h"

#include "obs/trace_session.h"

namespace m3 {

using util::Result;
using util::Status;

Result<MappedDataset> MappedDataset::Open(const std::string& path,
                                          M3Options options) {
  M3_ASSIGN_OR_RETURN(data::DatasetMeta meta, data::ReadDatasetMeta(path));
  io::MemoryMappedFile::Options map_options;
  map_options.mode = io::MemoryMappedFile::Mode::kReadOnly;
  map_options.populate = options.populate;
  M3_ASSIGN_OR_RETURN(io::MemoryMappedFile mapping,
                      io::MemoryMappedFile::Map(path, map_options));
  MappedDataset dataset(
      std::make_unique<io::MemoryMappedFile>(std::move(mapping)), meta,
      options);
  M3_RETURN_IF_ERROR(dataset.Advise(options.advice));
  // Tracing is process-global: the first dataset opened with a trace path
  // starts the session; any dataset opened while a session is active joins
  // the residency sampler so its resident-bytes show up as a counter track.
  if (!options.trace_path.empty()) {
    obs::StartGlobalTrace(options.trace_path);
  }
  if (obs::GlobalTraceActive()) {
    dataset.trace_registration_ =
        std::make_unique<obs::ScopedMappingRegistration>(
            dataset.mapping_.get());
  }
  return dataset;
}

MappedDataset::MappedDataset(std::unique_ptr<io::MemoryMappedFile> mapping,
                             data::DatasetMeta meta, M3Options options)
    : mapping_(std::move(mapping)), meta_(meta), options_(options) {
  // The emulator's linear trailing cursor only models ascending scans;
  // under a non-sequential scan order the engine's per-visited-chunk
  // window enforces the budget instead (see pipeline()).
  if (options_.ram_budget_bytes > 0 &&
      options_.scan_order == exec::ScanOrder::kSequential) {
    budget_ = std::make_unique<RamBudgetEmulator>(
        mapping_.get(), options_.ram_budget_bytes,
        meta_.cols * sizeof(double), meta_.features_offset);
  }
}

la::ConstMatrixView MappedDataset::features() const {
  // m3-aligned: ReadDatasetMeta rejects misaligned section offsets
  // (data/dataset.cc), and the mmap base is page-aligned.
  const double* base = reinterpret_cast<const double*>(
      mapping_->As<const char>() + meta_.features_offset);
  return la::ConstMatrixView(base, meta_.rows, meta_.cols);
}

la::ConstVectorView MappedDataset::labels() const {
  // m3-aligned: ReadDatasetMeta rejects misaligned section offsets.
  const double* base = reinterpret_cast<const double*>(
      mapping_->As<const char>() + meta_.labels_offset);
  return la::ConstVectorView(base, meta_.rows);
}

std::vector<double> MappedDataset::CopyLabels() const {
  la::ConstVectorView view = labels();
  return std::vector<double>(view.begin(), view.end());
}

ml::ScanHooks MappedDataset::MakeScanHooks() {
  if (budget_ != nullptr) {
    return budget_->MakeHooks();
  }
  return ml::ScanHooks();
}

uint64_t MappedDataset::ScanChunkRows() const {
  return la::AutoChunkRows(meta_.cols, options_.chunk_rows);
}

exec::ChunkPipeline& MappedDataset::pipeline() {
  if (pipeline_ == nullptr) {
    exec::MappedRegion region;
    region.mapping = mapping_.get();
    region.base_offset = meta_.features_offset;
    region.row_bytes = meta_.cols * sizeof(double);
    exec::PipelineOptions options;
    options.readahead_chunks = options_.readahead_chunks;
    options.num_workers = options_.pipeline_workers;
    options.advice = options_.advice;
    options.prefetch_backend = options_.prefetch_backend;
    // Under a sequential scan order, budget eviction stays with the
    // RamBudgetEmulator via ScanHooks so its counters keep accounting for
    // all eviction work. A permuted order has no linear cursor, so the
    // engine's trailing window over visited chunks enforces the budget.
    options.ram_budget_bytes =
        options_.scan_order == exec::ScanOrder::kSequential
            ? 0
            : options_.ram_budget_bytes;
    pipeline_ = std::make_unique<exec::ChunkPipeline>(region, options);
  }
  return *pipeline_;
}

exec::ChunkSchedule MappedDataset::MakeScanSchedule(size_t num_chunks) const {
  return exec::ChunkSchedule::Make(options_.scan_order, num_chunks,
                                   options_.scan_seed + scan_passes_,
                                   options_.scan_stride,
                                   options_.scan_stride_offset);
}

void MappedDataset::ForEachChunk(const exec::ChunkFn& fn) {
  ml::ScanHooks hooks = MakeScanHooks();
  if (hooks.before_pass) {
    hooks.before_pass(scan_passes_);
  }
  const la::RowChunker chunker(rows(), ScanChunkRows());
  const exec::ChunkSchedule schedule = MakeScanSchedule(chunker.NumChunks());
  ++scan_passes_;
  pipeline().Run(
      chunker, schedule,
      [&fn](size_t, size_t chunk, size_t row_begin, size_t row_end) {
        fn(chunk, row_begin, row_end);
      },
      [&](size_t, size_t, size_t row_begin, size_t row_end) {
        if (hooks.after_chunk) {
          hooks.after_chunk(row_begin, row_end);
        }
      });
}

Status MappedDataset::Advise(io::Advice advice) {
  return mapping_->AdviseRange(advice, meta_.features_offset,
                               meta_.FeatureBytes());
}

Status MappedDataset::EvictAll() {
  return mapping_->Evict(meta_.features_offset, meta_.FeatureBytes());
}

}  // namespace m3
