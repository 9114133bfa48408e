#ifndef M3_CLUSTER_PROCESS_FLEET_H_
#define M3_CLUSTER_PROCESS_FLEET_H_

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/driver.h"
#include "cluster/partition.h"
#include "cluster/spark_cluster.h"
#include "core/mapped_dataset.h"
#include "exec/chunk_schedule.h"
#include "io/shm_channel.h"
#include "ml/kmeans.h"
#include "ml/lbfgs.h"
#include "util/result.h"

namespace m3::cluster {

/// \brief Knobs for a ProcessFleet run.
struct FleetOptions {
  FleetOptions() {}  // NOLINT: allows `= FleetOptions()` defaults

  /// Cluster shape + measured-execution knobs. `config.num_instances` is
  /// the fleet size (one worker process per simulated instance).
  ClusterConfig config;

  /// Per-phase deadline: the longest the parent waits for the whole fleet
  /// to finish one job (startup ack, gradient/assignment job, shutdown)
  /// before declaring the run failed and killing every worker.
  double phase_deadline_seconds = 30.0;

  /// When non-empty, each worker runs its own trace session and writes
  /// `<dir>/worker_<i>.json` at shutdown (a worker killed mid-run leaves
  /// no file). The parent's trace is `config.exec.trace_path`, as in
  /// SparkCluster.
  std::string worker_trace_dir;

  /// Fault injection for tests: this worker index ignores real jobs
  /// (sleeps forever), driving the parent's deadline path. -1 = off.
  int hang_worker = -1;

  /// Upper bound on ml::KMeansOptions::k accepted by RunKMeans — result
  /// slots are sized for this k at Spawn() time (shared memory cannot
  /// grow after the workers fork).
  size_t max_kmeans_k = 64;
};

/// \brief A real multi-process execution fleet: the shared distributed
/// drivers (cluster::DriveLogisticRegression, cluster::DriveKMeans) with
/// partition tasks running in forked worker processes.
///
/// Where SparkCluster runs the drivers over an in-process
/// PartitionExecutor (the fast tier-1 path), ProcessFleet is itself the
/// JobExecutor: it forks one worker per instance. Each worker mmaps the
/// dataset itself and drives its instance's partitions through its own
/// per-partition `exec::ChunkPipeline`s (PartitionExecutor::RunLane),
/// running up to `config.cores_per_instance` chunk tasks at once — so
/// the workers genuinely compete for the machine's page cache, which is
/// the contention the M3 paper's memory-mapping argument is about.
/// Coordination runs over an `io::ShmChannel` (fork-shared control block
/// + result slots + pipe doorbells) created before the fork.
///
/// DETERMINISM: the parent broadcasts each job's parameters; workers run
/// the same per-chunk kernel as the simulator (cluster::RunChunkKernel)
/// and write raw per-chunk partials — never pre-folded sums — straight
/// into their result slots; the parent folds them in the simulator's
/// order (partitions in the strided task order, chunks ascending within
/// each partition). The driver, kernel, partial layout and fold order
/// are the simulator's own, so LR weights and k-means centers are bitwise
/// identical to SparkCluster's at every fleet size by construction.
///
/// CRASHES: a worker death (any cause — the write end of its result pipe
/// closes with it) or a phase-deadline miss fails the run with a Status
/// error; the parent SIGKILLs and reaps the whole fleet (no zombies, no
/// parent hang), marks the dead workers' stats `incomplete` in
/// last_run_stats(), and every later Run* returns FailedPrecondition.
/// Spawn a fresh fleet to retry.
///
/// FORK SAFETY: Spawn() forks. util::GlobalThreadPool() rebuilds itself
/// in a forked child, so a parent that already ran parallel kernels can
/// spawn safely; other parent threads (trace sessions, pipelines, private
/// thread pools) must not be running at Spawn(). The parent's own
/// trace/pools start inside Run*, after the fork.
class ProcessFleet : private JobExecutor {
 public:
  /// Opens the dataset, plans partitions (identically to
  /// SparkCluster::PlanPartitions), sizes and maps the shm channel, forks
  /// `config.num_instances` workers, and waits for every worker's startup
  /// ack (each opens its own mapping and builds its executor first).
  static util::Result<std::unique_ptr<ProcessFleet>> Spawn(
      const std::string& dataset_path, const FleetOptions& options);

  ProcessFleet(const ProcessFleet&) = delete;
  ProcessFleet& operator=(const ProcessFleet&) = delete;
  ~ProcessFleet();

  /// The fleet analogue of SparkCluster::RunLogisticRegression: L-BFGS on
  /// the parent, one fleet-wide gradient job per function evaluation.
  util::Result<DistributedLrResult> RunLogisticRegression(
      double l2, ml::LbfgsOptions optimizer_options);

  /// The fleet analogue of SparkCluster::RunKMeans: seeding and center
  /// updates on the parent, one fleet-wide assignment job per iteration.
  /// `options.k` must not exceed FleetOptions::max_kmeans_k.
  util::Result<DistributedKMeansResult> RunKMeans(ml::KMeansOptions options);

  /// Asks every worker to exit, reaps them within the phase deadline, and
  /// SIGKILLs stragglers. Idempotent; the destructor calls it.
  util::Status Shutdown();

  /// Live worker pids, one per instance (for tests to SIGKILL). Empty
  /// after Shutdown() or a failed run.
  const std::vector<pid_t>& pids() const { return pids_; }

  const std::vector<Partition>& partitions() const override {
    return partitions_;
  }
  size_t num_workers() const { return options_.config.num_instances; }
  bool alive() const { return alive_; }

  /// The partial JobStats of the most recent FAILED run (dead/hung
  /// workers' instance slots and the job marked `incomplete`).
  const JobStats& last_run_stats() const { return last_run_stats_; }

 private:
  ProcessFleet(MappedDataset dataset, std::string dataset_path,
               const FleetOptions& options);

  /// Creates the shm channel, forks the workers, and runs the startup
  /// barrier.
  util::Status Start();

  /// Publishes one job (its payload already in the broadcast region),
  /// waits for the whole fleet under the shared phase deadline, and
  /// parses worker stats into `job`. On any death/timeout: kills the
  /// fleet, records `last_run_stats_`, returns the error.
  util::Status RunPhase(uint64_t kind, uint64_t payload_len, JobStats* job);

  /// JobExecutor: broadcasts `job`'s parameters, runs the phase, and folds
  /// the workers' slots in `fold_order_`.
  util::Status RunJob(const ChunkJob& job, const FoldFn& fold,
                      JobStats* stats) override;
  double PredictExecSeconds(uint64_t row_bytes, bool cold) const override;

  /// SIGKILLs and reaps every live worker; returns a per-worker exit
  /// description for error messages. Leaves the fleet not-alive.
  std::string KillAll();

  /// Parses worker `w`'s length-prefixed stats JSON into `job`.
  util::Status ParseWorkerStats(size_t worker, JobStats* job);

  /// The forked worker body; never returns.
  [[noreturn]] void WorkerMain(size_t worker);

  FleetOptions options_;
  std::string dataset_path_;
  MappedDataset dataset_;  ///< the parent's own mapping (seeding, folds)
  std::vector<Partition> partitions_;
  exec::ChunkSchedule fold_order_;  ///< the simulator's strided task order
  /// \name Result-slot layout, agreed by parent and workers by
  /// construction (computed before fork from the same partition plan).
  /// Worker w writes one partial per chunk, consecutively, in its lane
  /// order; partition p's first partial sits at chunk-slot
  /// `partition_chunk_base_[p]` of worker `partitions_[p].instance`.
  /// @{
  std::vector<size_t> partition_chunks_;      ///< chunks per partition
  std::vector<size_t> partition_chunk_base_;  ///< first chunk slot in lane
  std::vector<size_t> worker_chunks_;         ///< total chunk slots per worker
  size_t max_partial_bytes_ = 0;  ///< slot stride capacity (max over kinds)
  /// @}
  std::unique_ptr<io::ShmChannel> channel_;
  std::vector<pid_t> pids_;
  bool alive_ = false;
  JobStats last_run_stats_;
};

}  // namespace m3::cluster

#endif  // M3_CLUSTER_PROCESS_FLEET_H_
