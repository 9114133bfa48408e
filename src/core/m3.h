#ifndef M3_CORE_M3_H_
#define M3_CORE_M3_H_

/// \file
/// \brief Umbrella header for the M3 library: Machine Learning via Memory
/// Mapping (Fang & Chau, SIGMOD 2016).
///
/// Quickstart (the paper's Table 1 in working code):
///
///   // Original (in-memory):            // M3 (memory-mapped):
///   la::Matrix data(rows, cols);        auto m = m3::MmapAllocDoubles(
///                                           file, rows * cols).ValueOrDie();
///                                       la::MatrixView data(
///                                           m.As<double>(), rows, cols);
///
/// Or with the dataset layer:
///
///   auto ds = m3::MappedDataset::Open("digits.m3").ValueOrDie();
///   auto model = m3::TrainLogisticRegression(ds).ValueOrDie();
///
/// Pipelined out-of-core execution (src/exec/): every dataset scan runs on
/// an exec::ChunkPipeline that overlaps MADV_WILLNEED prefetch of chunk
/// i+1 with compute on chunk i and, when a RAM budget is set, keeps the
/// first chunks that fit in it resident and evicts every other chunk as it
/// retires — the disk streams while the CPU computes.
/// Tune it with M3Options::readahead_chunks / pipeline_workers, or drive
/// custom scans directly:
///
///   M3Options options;
///   options.ram_budget_bytes = 1ull << 30;   // out-of-core at 1 GiB
///   options.pipeline_workers = 4;            // parallel chunk map-reduce
///   auto ds = m3::MappedDataset::Open("big.m3", options).ValueOrDie();
///
///   ds.ForEachChunk([&](size_t chunk, size_t row_begin, size_t row_end) {
///     Consume(ds.features().RowRange(row_begin, row_end - row_begin));
///   });
///
///   double loss = 0;
///   ds.MapReduceChunks<double>(
///       [&](size_t, size_t lo, size_t hi) { return PartialLoss(lo, hi); },
///       [&](size_t, double&& partial) { loss += partial; });
///
/// Partials always merge in chunk order, so results are bitwise identical
/// at any worker count. Engine counters (prefetch/evict/stall) and stage
/// seconds accumulate in the pipeline's exec::PipelineStats
/// (`ds.pipeline().stats()`).

#include <string>

#include "core/access_pattern.h"
#include "core/mapped_dataset.h"
#include "core/options.h"
#include "core/perf_model.h"
#include "io/mmap_file.h"
#include "ml/kmeans.h"
#include "ml/logistic_regression.h"
#include "util/result.h"

namespace m3 {

/// \brief The paper's `mmapAlloc` helper: creates (or truncates) `file`,
/// sizes it to `count` doubles, and maps it read-write.
///
/// The returned mapping owns the region; take `As<double>()` for the raw
/// pointer of Table 1. Writes persist to the file.
util::Result<io::MemoryMappedFile> MmapAllocDoubles(const std::string& file,
                                                    uint64_t count);

/// \brief Trains binary logistic regression on a mapped dataset with the
/// paper's configuration (10 L-BFGS iterations by default). Every pass
/// runs on `dataset.pipeline()` unless `options.pipeline` names another,
/// so the dataset's RAM budget applies.
util::Result<ml::LogisticRegressionModel> TrainLogisticRegression(
    MappedDataset& dataset,
    ml::LogisticRegressionOptions options = ml::LogisticRegressionOptions(),
    ml::OptimizationResult* stats = nullptr);

/// \brief Runs k-means on a mapped dataset (paper configuration: k = 5,
/// 10 iterations) on the dataset's pipeline, like TrainLogisticRegression.
util::Result<ml::KMeansResult> TrainKMeans(
    MappedDataset& dataset, ml::KMeansOptions options = ml::KMeansOptions());

/// \brief The paper's benchmark defaults: exactly 10 optimizer iterations,
/// no early stopping.
ml::LbfgsOptions PaperLbfgsOptions();
ml::KMeansOptions PaperKMeansOptions();

}  // namespace m3

#endif  // M3_CORE_M3_H_
