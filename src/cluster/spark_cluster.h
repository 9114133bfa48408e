#ifndef M3_CLUSTER_SPARK_CLUSTER_H_
#define M3_CLUSTER_SPARK_CLUSTER_H_

#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/driver.h"
#include "cluster/partition.h"
#include "exec/chunk_pipeline.h"
#include "la/matrix.h"
#include "ml/kmeans.h"
#include "ml/lbfgs.h"
#include "util/result.h"

namespace m3::cluster {

/// \brief The simulated Spark cluster (MLlib-style driver programs).
///
/// Runs the shared distributed drivers (cluster::DriveLogisticRegression,
/// cluster::DriveKMeans) over an in-process PartitionExecutor: per-partition
/// tasks compute actual gradients/assignments, the driver actually reduces
/// them, while wall time is charged from the calibrated ClusterConfig cost
/// model instead of EC2 (see the substitution note in cluster_config.h and
/// DESIGN.md §3). Numerical results therefore agree with the
/// single-machine implementations, and `stats.simulated_seconds` plays the
/// role of the paper's measured Spark runtimes. ProcessFleet runs the same
/// drivers over forked workers, so its results equal these by
/// construction.
///
/// TIME IN JobStats COMES FROM TWO PLACES — read them differently:
///
///   - `simulated_seconds` (and compute/io/network/overhead components) is
///     *modeled*: the StageCostModel's estimate of what the paper's EMR
///     cluster would have billed for the same jobs. It is unaffected by
///     how fast this machine executes the simulation.
///   - `instance_exec[k]` is *measured*: when `ClusterConfig::exec` turns
///     pipelines on, instance k's partition tasks run through real
///     `exec::ChunkPipeline`s (per-partition, persisting across jobs), and
///     their PipelineStats land here. `cached` counters come from passes
///     over cached partitions — with an mmap-backed run, prefetch hits
///     mean the partition's pages were still resident from earlier jobs
///     (the RDD cache working); `spilled` counters come from passes over
///     spilled partitions, which are force-evicted before every job, so
///     their `spill_refaults` grow each job and their stalls/hit-rate show
///     whether WILLNEED readahead hides the re-read. The invariant
///     `prefetches == prefetch_hits + stalls + prefetch_unclassified`
///     holds per instance and per cache class after every run.
///   - `measured_exec_seconds` / `predicted_exec_seconds` close the loop
///     between the two: once the config carries a measured calibration
///     (`ClusterConfig::CalibrateFromMeasured` — spill bandwidth, overlap
///     efficiency and CPU cost fitted from a previous run's
///     instance_exec), every job records the calibrated model's
///     prediction for its pipeline execution next to what was measured.
///     Their difference is the cost model's residual on real execution.
///
/// Passing a bound `exec::MappedRegion` (e.g. built from a MappedDataset)
/// makes the measured path page real memory; with in-memory matrices the
/// pipelines only orchestrate compute. Either way results are bitwise
/// identical with pipelines off, on, and at any `cores_per_instance`
/// (the chunk tasks an instance runs at once) while TotalPartitions()
/// stays fixed — partials merge on the driving thread in a fixed strided
/// task order (stride = instance count, offset = instance id).
class SparkCluster {
 public:
  explicit SparkCluster(ClusterConfig config);

  /// MLlib-style logistic regression: L-BFGS on the driver, one gradient
  /// job per function evaluation, tree-aggregated (d+1)-vector results.
  /// A cold HDFS load precedes the first evaluation. `data` optionally
  /// binds the feature rows' mapping for measured pipelined execution
  /// (`data.base_offset` = byte offset of row 0 of `x`).
  util::Result<DistributedLrResult> RunLogisticRegression(
      la::ConstMatrixView x, la::ConstVectorView y, double l2,
      ml::LbfgsOptions optimizer_options,
      const exec::MappedRegion& data = exec::MappedRegion()) const;

  /// MLlib-style k-means: one assignment/accumulation job per iteration,
  /// centers broadcast before each job.
  util::Result<DistributedKMeansResult> RunKMeans(
      la::ConstMatrixView x, ml::KMeansOptions options,
      const exec::MappedRegion& data = exec::MappedRegion()) const;

  /// The partitioning the cluster would use for an n-row dataset of
  /// `row_bytes`-byte rows (exposed for tests and benches).
  std::vector<Partition> PlanPartitions(size_t rows,
                                        uint64_t row_bytes) const;

  const ClusterConfig& config() const { return config_; }

 private:
  ClusterConfig config_;
};

}  // namespace m3::cluster

#endif  // M3_CLUSTER_SPARK_CLUSTER_H_
