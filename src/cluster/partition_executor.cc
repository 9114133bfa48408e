#include "cluster/partition_executor.h"

#include <algorithm>
#include <utility>

#include "core/perf_model.h"
#include "exec/chunk_map_reduce.h"
#include "la/chunker.h"
#include "obs/trace_recorder.h"
#include "util/sys_info.h"

namespace m3::cluster {

PartitionExecutor::PartitionExecutor(std::vector<Partition> partitions,
                                     const ClusterConfig& config,
                                     const exec::MappedRegion& data,
                                     la::ConstMatrixView x,
                                     la::ConstVectorView y)
    : partitions_(std::move(partitions)),
      config_(config),
      data_(data),
      x_(x),
      y_(y),
      task_order_(exec::ChunkSchedule::Strided(partitions_.size(),
                                               config.num_instances)),
      pipelines_(partitions_.size()) {
  instance_cached_rows_.reserve(config_.num_instances);
  for (size_t i = 0; i < config_.num_instances; ++i) {
    instance_cached_rows_.push_back(
        InstanceRows(partitions_, i, /*cached_only=*/true));
  }
  if (pipelined()) {
    if (bound()) {
      io_pool_ = std::make_unique<util::ThreadPool>(1);
      prefetch_backend_ =
          io::MakePrefetchBackend(config_.exec.prefetch_backend);
    }
    if (config_.exec.pipeline_workers >= 2) {
      compute_pool_ =
          std::make_unique<util::ThreadPool>(config_.exec.pipeline_workers);
    }
  }
}

size_t PartitionExecutor::ChunkRowsFor(const Partition& partition) const {
  return PartitionChunkRows(partition, config_.exec.chunk_rows);
}

uint64_t PartitionExecutor::BudgetFor(const Partition& partition) const {
  uint64_t instance_budget = config_.exec.instance_ram_budget_bytes;
  if (instance_budget == 0) {
    instance_budget = config_.InstanceCacheBytes();
  }
  const size_t cached_rows = partition.instance < instance_cached_rows_.size()
                                 ? instance_cached_rows_[partition.instance]
                                 : 0;
  // The RDD cache pins the cached partitions: they split the budget among
  // themselves (pro rata by rows), so a partition the simulated cache says
  // is resident really keeps its pages between jobs. Spilled scans are
  // transient and only get whatever the cached set leaves over.
  uint64_t share;
  if (partition.cached) {
    share = cached_rows == 0
                ? instance_budget
                : static_cast<uint64_t>(
                      static_cast<double>(instance_budget) *
                      (static_cast<double>(partition.rows()) /
                       static_cast<double>(cached_rows)));
  } else {
    const uint64_t cached_bytes = cached_rows * data_.row_bytes;
    share = instance_budget > cached_bytes ? instance_budget - cached_bytes
                                           : 0;
  }
  // A zero share would disable engine eviction entirely (the opposite of a
  // tight budget). A one-byte floor pins no chunk, so every chunk of the
  // partition is evicted as it retires.
  return std::max<uint64_t>(1, share);
}

exec::ChunkPipeline* PartitionExecutor::PreparePartition(size_t index,
                                                         JobStats* job) {
  if (!pipelined()) {
    return nullptr;
  }
  const Partition& partition = partitions_[index];
  std::unique_ptr<exec::ChunkPipeline>& slot = pipelines_[index];
  if (slot == nullptr) {
    exec::MappedRegion region;  // unbound unless the run is mmap-backed
    if (bound()) {
      region.mapping = data_.mapping;
      region.base_offset =
          data_.base_offset + partition.byte_begin(data_.row_bytes);
      region.row_bytes = data_.row_bytes;
    }
    exec::PipelineOptions options;
    options.readahead_chunks = config_.exec.readahead_chunks;
    options.num_workers = config_.exec.pipeline_workers;
    options.shared_io_pool = io_pool_.get();
    options.shared_compute_pool = compute_pool_.get();
    options.shared_prefetch_backend = prefetch_backend_.get();
    options.ram_budget_bytes = bound() ? BudgetFor(partition) : 0;
    // The instance interleaves many small partition scans; kernel-level
    // sequential readahead would race past the partition boundary, so let
    // the explicit WILLNEED stage own the readahead.
    options.advice = io::Advice::kNormal;
    slot = std::make_unique<exec::ChunkPipeline>(region, options);
  }
  if (bound() && !partition.cached) {
    // Spark does not admit spilled blocks to the RDD cache: drop the
    // partition's pages so this job's pass re-faults from storage. The
    // range is clamped *inward* to page boundaries — partitions are
    // row-aligned, not page-aligned, and an outward-rounding DONTNEED
    // would also drop the neighboring cached partition's edge page every
    // job, perturbing the cached-pages-survive-between-jobs measurement.
    // The sub-page edges that stay resident are noise, not signal.
    const uint64_t page = util::PageSize();
    const uint64_t begin =
        data_.base_offset + partition.byte_begin(data_.row_bytes);
    const uint64_t end = begin + partition.byte_size(data_.row_bytes);
    const uint64_t evict_begin = (begin + page - 1) / page * page;
    const uint64_t evict_end = end / page * page;
    if (evict_end > evict_begin) {
      data_.mapping->Evict(evict_begin, evict_end - evict_begin)
          .IgnoreError();
      if (job != nullptr && partition.instance < job->instance_exec.size()) {
        InstanceExecStats& instance = job->instance_exec[partition.instance];
        ++instance.spill_refaults;
        instance.spill_refault_bytes += evict_end - evict_begin;
      }
    }
  }
  return slot.get();
}

double PredictExecSeconds(const std::vector<Partition>& partitions,
                          const ClusterConfig& config, uint64_t row_bytes,
                          bool cold) {
  if (!config.exec.use_pipelines || !config.calibrated_from_measurement ||
      config.spill_read_bytes_per_sec <= 0) {
    return 0;
  }
  uint64_t total_bytes = 0;
  uint64_t storage_bytes = 0;
  for (const Partition& partition : partitions) {
    const uint64_t bytes = partition.rows() * row_bytes;
    total_bytes += bytes;
    // Cached partitions keep residency between jobs; spilled ones are
    // force-evicted before every job, so their bytes re-fault from
    // storage each time. A cold job faults everything.
    if (cold || !partition.cached) {
      storage_bytes += bytes;
    }
  }
  const double cpu =
      config.local_cpu_seconds_per_byte * static_cast<double>(total_bytes);
  const double io =
      static_cast<double>(storage_bytes) / config.spill_read_bytes_per_sec;
  return CombineOverlap(cpu, io, config.overlap_efficiency);
}

double PartitionExecutor::PredictExecSeconds(uint64_t row_bytes,
                                             bool cold) const {
  return bound() ? cluster::PredictExecSeconds(partitions_, config_,
                                               row_bytes, cold)
                 : 0;
}

template <typename T, typename MapFn, typename ConsumeFn>
void PartitionExecutor::RunTasks(size_t lane, MapFn&& map,
                                 ConsumeFn&& consume, JobStats* job) {
  obs::ScopedSpan job_span("cluster", "run_job");
  if (job_span.armed()) {
    job_span.AddArg("tasks", static_cast<uint64_t>(task_order_.num_chunks()));
    if (lane != kAllLanes) {
      job_span.AddArg("instance", static_cast<uint64_t>(lane));
    }
  }
  if (job != nullptr && pipelined()) {
    job->instance_exec.resize(config_.num_instances);
  }
  size_t lane_chunks = 0;
  for (size_t pos = 0; pos < task_order_.num_chunks(); ++pos) {
    const size_t index = task_order_.At(pos);
    const Partition& partition = partitions_[index];
    if (lane != kAllLanes && partition.instance != lane) {
      continue;
    }
    obs::ScopedSpan task_span("cluster", "partition_task");
    if (task_span.armed()) {
      task_span.AddArg("partition", static_cast<uint64_t>(index));
      task_span.AddArg("instance", static_cast<uint64_t>(partition.instance));
      task_span.AddArg("cached", partition.cached ? "true" : "false");
    }
    exec::ChunkPipeline* pipeline = PreparePartition(index, job);
    const la::RowChunker chunker(partition.rows(), ChunkRowsFor(partition));
    exec::MapReduceChunks<T>(
        pipeline, chunker,
        exec::ChunkSchedule::Sequential(chunker.NumChunks()),
        [&](size_t chunk, size_t row_begin, size_t row_end) {
          return map(lane_chunks + chunk, partition.row_begin + row_begin,
                     partition.row_begin + row_end);
        },
        [&](size_t, T&& partial) { consume(std::move(partial)); });
    lane_chunks += chunker.NumChunks();
    CollectStats(index, pipeline, job);
  }
  if (job != nullptr && pipelined()) {
    // The job's measured execution wall time: the drive seconds the
    // visited lanes' partition passes just recorded (this JobStats is per
    // job — the instance_exec entries hold exactly this job's deltas).
    for (size_t i = 0; i < job->instance_exec.size(); ++i) {
      if (lane == kAllLanes || i == lane) {
        const InstanceExecStats& instance = job->instance_exec[i];
        job->measured_exec_seconds += instance.cached.drive_seconds +
                                      instance.spilled.drive_seconds;
      }
    }
  }
}

util::Status PartitionExecutor::RunJob(const ChunkJob& job, const FoldFn& fold,
                                       JobStats* stats) {
  const size_t words = job.PartialBytes(x_.cols()) / sizeof(double);
  RunTasks<std::vector<double>>(
      kAllLanes,
      [&](size_t, size_t row_begin, size_t row_end) {
        std::vector<double> partial(words);
        RunChunkKernel(job, x_, y_, row_begin, row_end, partial.data());
        return partial;
      },
      [&](std::vector<double>&& partial) { fold(partial.data()); }, stats);
  return util::Status::OK();
}

void PartitionExecutor::RunLane(size_t instance, const ChunkJob& job,
                                double* out, JobStats* stats) {
  const size_t words = job.PartialBytes(x_.cols()) / sizeof(double);
  // The kernel writes straight into `out`; nothing is left to consume.
  struct Written {};
  RunTasks<Written>(
      instance,
      [&](size_t lane_chunk, size_t row_begin, size_t row_end) {
        RunChunkKernel(job, x_, y_, row_begin, row_end,
                       out + lane_chunk * words);
        return Written{};
      },
      [](Written&&) {}, stats);
}

void PartitionExecutor::CollectStats(size_t index,
                                     exec::ChunkPipeline* pipeline,
                                     JobStats* job) {
  if (pipeline == nullptr) {
    return;
  }
  const exec::PipelineStats stats = pipeline->ConsumeStats();
  const Partition& partition = partitions_[index];
  if (job == nullptr || partition.instance >= job->instance_exec.size()) {
    return;
  }
  InstanceExecStats& instance = job->instance_exec[partition.instance];
  (partition.cached ? instance.cached : instance.spilled) += stats;
}

}  // namespace m3::cluster
