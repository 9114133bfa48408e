#ifndef M3_CLUSTER_PARTITION_EXECUTOR_H_
#define M3_CLUSTER_PARTITION_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/driver.h"
#include "cluster/partition.h"
#include "exec/chunk_pipeline.h"
#include "exec/chunk_schedule.h"
#include "io/prefetch_backend.h"
#include "util/thread_pool.h"

namespace m3::cluster {

/// \brief Runs partition tasks in-process through real per-partition
/// execution pipelines: the simulator's JobExecutor, and the engine each
/// ProcessFleet worker drives its own instance's partitions with.
///
/// One executor lives for one distributed run (all of its jobs). Tasks are
/// visited in a `ChunkSchedule::Strided(partitions, num_instances)`
/// interleaving of the partition indices: with the round-robin assignment
/// of MakePartitions, lane k is exactly instance k's partition list, so a
/// job walks instance 0's partitions, then instance 1's, ... — each
/// instance scanning its own shard starting at its own offset (stride =
/// instance count, offset = instance id).
///
/// With `ClusterExecOptions::use_pipelines` on, each partition owns an
/// `exec::ChunkPipeline` (created lazily, persisting across jobs):
///   - bound to the partition's byte range of the dataset mapping when the
///     run is mmap-backed, so prefetch readahead and eviction at retire are
///     real madvise calls on real pages;
///   - cached partitions get a pro-rata share of the instance's RAM budget;
///     a share that covers the partition pins every chunk, so later jobs
///     find its pages resident (prefetch hits);
///   - spilled partitions are force-evicted before every pass (Spark's
///     per-iteration spill re-read, measured instead of only modeled).
///     Their pages re-fault from storage only when no other mapping holds
///     them: `Evict` cannot drop page-cache pages that another process
///     (a fleet coordinator that touched the file, say) still maps.
///
/// Fan-out: each instance runs up to `ClusterConfig::cores_per_instance`
/// chunk tasks at once, on one pool of that many threads that every
/// partition pipeline shares. LR chunk tasks still split each chunk over
/// the process's util::GlobalThreadPool.
///
/// Determinism: the chunk kernel runs once per chunk, in any order;
/// partials are consumed on the calling thread in ascending chunk order
/// within each partition, partitions in the fixed strided task order, and
/// a fleet worker's chunks each write their own result slot. The fold
/// sequence is therefore identical with pipelines off, on, and at any
/// instance core count while `ClusterConfig::TotalPartitions()` stays
/// fixed.
class PartitionExecutor final : public JobExecutor {
 public:
  /// `x`/`y` are the rows the chunk kernels read. `data.mapping ==
  /// nullptr` means in-memory execution (pipelines, when enabled, only
  /// orchestrate compute). When bound, `data.base_offset` is the byte
  /// offset of feature row 0 and `data.row_bytes` the stride of one row.
  PartitionExecutor(std::vector<Partition> partitions,
                    const ClusterConfig& config,
                    const exec::MappedRegion& data, la::ConstMatrixView x,
                    la::ConstVectorView y);

  PartitionExecutor(const PartitionExecutor&) = delete;
  PartitionExecutor& operator=(const PartitionExecutor&) = delete;

  const std::vector<Partition>& partitions() const override {
    return partitions_;
  }

  bool pipelined() const { return config_.exec.use_pipelines; }
  bool bound() const { return data_.mapping != nullptr; }

  /// Runs `job` over every partition and folds each chunk partial in the
  /// strided task order. Never fails. With pipelines on, the job's measured
  /// per-instance stats land in `stats->instance_exec`.
  util::Status RunJob(const ChunkJob& job, const FoldFn& fold,
                      JobStats* stats) override;

  /// The worker half of the ProcessFleet split: runs `job` over
  /// `instance`'s partitions only (lane `instance` of the task order —
  /// ascending partition index) and writes its i-th chunk partial to
  /// `out + i * job.PartialBytes(d) / 8`. Stats recording matches RunJob,
  /// but only `instance`'s slot is populated.
  void RunLane(size_t instance, const ChunkJob& job, double* out,
               JobStats* stats);

  /// 0 unless the run is mmap-bound; otherwise cluster::PredictExecSeconds
  /// over this run's partitions.
  double PredictExecSeconds(uint64_t row_bytes, bool cold) const override;

 private:
  static constexpr size_t kAllLanes = SIZE_MAX;

  /// The one job loop. Visits the partitions of `lane` (kAllLanes: every
  /// instance's) in task order. `map(lane_chunk, row_begin, row_end) -> T`
  /// computes the partial of the lane's `lane_chunk`-th chunk over global
  /// rows; `consume(T&&)` receives it on the calling thread in order.
  template <typename T, typename MapFn, typename ConsumeFn>
  void RunTasks(size_t lane, MapFn&& map, ConsumeFn&& consume,
                JobStats* job);

  /// Returns the partition's pipeline (lazily created) or nullptr when
  /// pipelines are off. For bound spilled partitions, force-evicts the
  /// partition's pages first and counts the re-fault into `job`.
  exec::ChunkPipeline* PreparePartition(size_t index, JobStats* job);

  /// Moves the pipeline's per-pass stats into the owning instance's slot.
  void CollectStats(size_t index, exec::ChunkPipeline* pipeline,
                    JobStats* job);

  /// Rows per pipeline chunk for `partition` (config override or the whole
  /// partition as one chunk).
  size_t ChunkRowsFor(const Partition& partition) const;

  /// The partition's share of its instance's measured RAM budget: cached
  /// partitions split the budget pro rata by rows (the pinned RDD cache);
  /// spilled partitions get whatever the cached set leaves over (transient
  /// scan working memory). Only meaningful when the run is mmap-backed.
  uint64_t BudgetFor(const Partition& partition) const;

  std::vector<Partition> partitions_;
  ClusterConfig config_;  ///< by value: the executor may outlive callers' copies
  exec::MappedRegion data_;
  la::ConstMatrixView x_;
  la::ConstVectorView y_;
  exec::ChunkSchedule task_order_;  ///< strided, shared by every job
  /// Cached rows per instance (budget proration denominator).
  std::vector<size_t> instance_cached_rows_;
  /// Pools shared by every partition pipeline: a job drives one partition
  /// at a time, so per-partition pools would only multiply idle threads
  /// (partitions x cores of them) without adding parallelism. No compute
  /// pool when `cores_per_instance` is 1.
  std::unique_ptr<util::ThreadPool> io_pool_;
  std::unique_ptr<util::ThreadPool> compute_pool_;
  /// One prefetch backend shared by every partition pipeline, for the same
  /// reason (ClusterExecOptions::prefetch_backend picks the kind).
  std::unique_ptr<io::PrefetchBackend> prefetch_backend_;
  std::vector<std::unique_ptr<exec::ChunkPipeline>> pipelines_;
};

/// \brief The calibrated model's prediction of one job's pipeline
/// execution wall seconds on THIS machine (the counterpart of
/// JobStats::measured_exec_seconds): fitted local CPU cost over every
/// partition's bytes, spread over the `cores_per_instance` chunk tasks an
/// instance runs at once, fitted re-read bandwidth over the bytes that
/// come from storage (all of them when `cold`, the spilled partitions
/// otherwise), combined under the fitted overlap efficiency. Returns 0
/// unless `config` turns pipelines on and carries a measured calibration
/// (ClusterConfig::CalibrateFromMeasured).
double PredictExecSeconds(const std::vector<Partition>& partitions,
                          const ClusterConfig& config, uint64_t row_bytes,
                          bool cold);

}  // namespace m3::cluster

#endif  // M3_CLUSTER_PARTITION_EXECUTOR_H_
