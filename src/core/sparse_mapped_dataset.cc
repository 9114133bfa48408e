#include "core/sparse_mapped_dataset.h"

#include <algorithm>

#include "obs/trace_session.h"
#include "util/format.h"

namespace m3 {

using util::Result;
using util::Status;

void CsrByteMap::AppendSpans(size_t row_begin, size_t row_end,
                             std::vector<exec::ByteSpan>* out) const {
  if (row_begin >= row_end) {
    return;
  }
  const uint64_t nnz_begin = row_ptr_[row_begin];
  const uint64_t nnz_end = row_ptr_[row_end];
  // The row_ptr slice includes the closing offset row_ptr[row_end]; a
  // chunk's compute needs it to find its last row's end.
  out->push_back(exec::ByteSpan{
      meta_.row_ptr_offset + row_begin * sizeof(uint64_t),
      (row_end - row_begin + 1) * sizeof(uint64_t)});
  if (nnz_end > nnz_begin) {
    out->push_back(exec::ByteSpan{
        meta_.col_idx_offset + nnz_begin * sizeof(uint32_t),
        (nnz_end - nnz_begin) * sizeof(uint32_t)});
    out->push_back(exec::ByteSpan{
        meta_.values_offset + nnz_begin * sizeof(double),
        (nnz_end - nnz_begin) * sizeof(double)});
  }
}

exec::ByteSpan CsrByteMap::Extent() const {
  // Enclosing range of the three scan sections (labels excluded: scans
  // read them through their own view, not the chunk engine).
  uint64_t lo = meta_.row_ptr_offset;
  uint64_t hi = meta_.row_ptr_offset + meta_.RowPtrBytes();
  lo = std::min(lo, meta_.col_idx_offset);
  hi = std::max(hi, meta_.col_idx_offset + meta_.ColIdxBytes());
  lo = std::min(lo, meta_.values_offset);
  hi = std::max(hi, meta_.values_offset + meta_.ValueBytes());
  return exec::ByteSpan{lo, hi - lo};
}

Result<MappedSparseDataset> MappedSparseDataset::Open(const std::string& path,
                                                      M3Options options) {
  M3_ASSIGN_OR_RETURN(data::SparseDatasetMeta meta,
                      data::ReadSparseDatasetMeta(path));
  io::MemoryMappedFile::Options map_options;
  map_options.mode = io::MemoryMappedFile::Mode::kReadOnly;
  map_options.populate = options.populate;
  M3_ASSIGN_OR_RETURN(io::MemoryMappedFile mapping,
                      io::MemoryMappedFile::Map(path, map_options));
  // Deep structural validation before any view exists. The header passed
  // ReadSparseDatasetMeta, so the sections are in-bounds and aligned;
  // what is left is the CSR structure itself, which the kernels (and the
  // SparseChunker) trust. All of it is untrusted input until proven here
  // — the format-fuzz suite drives exactly these paths.
  const char* base = mapping.As<const char>();
  // m3-aligned: ReadSparseDatasetMeta rejects misaligned section
  // offsets (data/sparse_dataset.cc); the mmap base is page-aligned.
  const uint64_t* row_ptr =
      reinterpret_cast<const uint64_t*>(base + meta.row_ptr_offset);
  // m3-aligned: col_idx_offset is 4-aligned by the same validation.
  const uint32_t* col_idx =
      reinterpret_cast<const uint32_t*>(base + meta.col_idx_offset);
  if (row_ptr[0] != 0) {
    return Status::InvalidArgument(util::StrFormat(
        "sparse dataset row_ptr[0] = %llu, want 0: %s",
        static_cast<unsigned long long>(row_ptr[0]), path.c_str()));
  }
  for (uint64_t r = 0; r < meta.rows; ++r) {
    if (row_ptr[r + 1] < row_ptr[r]) {
      return Status::InvalidArgument(util::StrFormat(
          "sparse dataset row_ptr not monotone at row %llu "
          "(%llu after %llu): %s",
          static_cast<unsigned long long>(r),
          static_cast<unsigned long long>(row_ptr[r + 1]),
          static_cast<unsigned long long>(row_ptr[r]), path.c_str()));
    }
  }
  if (row_ptr[meta.rows] != meta.nnz) {
    return Status::InvalidArgument(util::StrFormat(
        "sparse dataset row_ptr[rows] = %llu disagrees with header nnz "
        "%llu: %s",
        static_cast<unsigned long long>(row_ptr[meta.rows]),
        static_cast<unsigned long long>(meta.nnz), path.c_str()));
  }
  for (uint64_t k = 0; k < meta.nnz; ++k) {
    if (col_idx[k] >= meta.cols) {
      return Status::InvalidArgument(util::StrFormat(
          "sparse dataset col_idx[%llu] = %u out of %llu columns: %s",
          static_cast<unsigned long long>(k),
          static_cast<unsigned>(col_idx[k]),
          static_cast<unsigned long long>(meta.cols), path.c_str()));
    }
  }
  MappedSparseDataset dataset(
      std::make_unique<io::MemoryMappedFile>(std::move(mapping)), meta,
      options);
  M3_RETURN_IF_ERROR(dataset.mapping_->AdviseRange(
      options.advice, dataset.byte_map_->Extent().offset,
      dataset.byte_map_->Extent().length));
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

MappedSparseDataset::MappedSparseDataset(
    std::unique_ptr<io::MemoryMappedFile> mapping,
    data::SparseDatasetMeta meta, M3Options options)
    : mapping_(std::move(mapping)), meta_(meta), options_(options) {
  // m3-aligned: ReadSparseDatasetMeta rejects misaligned section
  // offsets; Open() validated this file before constructing us.
  const uint64_t* row_ptr = reinterpret_cast<const uint64_t*>(
      mapping_->As<const char>() + meta_.row_ptr_offset);
  byte_map_ = std::make_unique<CsrByteMap>(meta_, row_ptr);
}

la::CsrView MappedSparseDataset::csr() const {
  const char* base = mapping_->As<const char>();
  return la::CsrView(
      // m3-aligned: section offsets validated by ReadSparseDatasetMeta.
      reinterpret_cast<const uint64_t*>(base + meta_.row_ptr_offset),
      reinterpret_cast<const uint32_t*>(base + meta_.col_idx_offset),
      reinterpret_cast<const double*>(base + meta_.values_offset),
      meta_.rows, meta_.cols);
}

la::ConstVectorView MappedSparseDataset::labels() const {
  // m3-aligned: labels_offset validated by ReadSparseDatasetMeta.
  const double* base = reinterpret_cast<const double*>(
      mapping_->As<const char>() + meta_.labels_offset);
  return la::ConstVectorView(base, meta_.rows);
}

std::vector<double> MappedSparseDataset::CopyLabels() const {
  la::ConstVectorView view = labels();
  return std::vector<double>(view.begin(), view.end());
}

uint64_t MappedSparseDataset::ChunkNnzBytes() const {
  return options_.chunk_nnz_bytes > 0 ? options_.chunk_nnz_bytes
                                      : la::kDefaultNnzBudgetBytes;
}

la::SparseChunker MappedSparseDataset::MakeChunker() const {
  // m3-aligned: row_ptr_offset validated by ReadSparseDatasetMeta.
  const uint64_t* row_ptr = reinterpret_cast<const uint64_t*>(
      mapping_->As<const char>() + meta_.row_ptr_offset);
  return la::SparseChunker(row_ptr, meta_.rows, ChunkNnzBytes());
}

exec::ChunkPipeline& MappedSparseDataset::pipeline() {
  if (pipeline_ == nullptr) {
    exec::MappedRegion region;
    region.mapping = mapping_.get();
    region.byte_map = byte_map_.get();
    exec::PipelineOptions options;
    options.readahead_chunks = options_.readahead_chunks;
    options.num_workers = options_.pipeline_workers;
    options.advice = options_.advice;
    options.prefetch_backend = options_.prefetch_backend;
    options.ram_budget_bytes = options_.ram_budget_bytes;
    pipeline_ = std::make_unique<exec::ChunkPipeline>(region, options);
  }
  return *pipeline_;
}

Status MappedSparseDataset::EvictAll() {
  const exec::ByteSpan extent = byte_map_->Extent();
  return mapping_->Evict(extent.offset, extent.length);
}

}  // namespace m3
