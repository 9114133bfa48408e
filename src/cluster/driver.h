#ifndef M3_CLUSTER_DRIVER_H_
#define M3_CLUSTER_DRIVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/partition.h"
#include "la/matrix.h"
#include "ml/kmeans.h"
#include "ml/lbfgs.h"
#include "ml/logistic_regression.h"
#include "util/result.h"

namespace m3::cluster {

/// \brief Result of a distributed logistic-regression run.
struct DistributedLrResult {
  ml::LogisticRegressionModel model;
  ml::OptimizationResult optimization;
  JobStats stats;  ///< simulated cluster time breakdown
};

/// \brief Result of a distributed k-means run.
struct DistributedKMeansResult {
  ml::KMeansResult clustering;
  JobStats stats;
};

/// \brief One distributed job as plain data: which per-chunk kernel to run
/// and the parameters the driver broadcasts to it.
///
/// Plain data so a job can cross a process boundary: ProcessFleet copies
/// `params` into its broadcast region and its workers rebuild the job
/// from there. Each kind has exactly one kernel (RunChunkKernel) and one
/// encoded partial layout of 8-byte words:
///   - kJobLrGradient:      `[loss][d+1 gradient]`
///   - kJobKMeansIteration: `[inertia][k*d center sums][k u64 counts]`
struct ChunkJob {
  uint64_t kind = 0;  ///< io::ShmChannel::kJobLrGradient / kJobKMeansIteration
  /// LR: the d+1 parameters (weights, then intercept). k-means: the k x d
  /// centers, row-major. Not owned.
  const double* params = nullptr;
  size_t num_params = 0;
  size_t k = 0;  ///< k-means clusters (0 for LR)

  /// Bytes of one chunk's encoded partial over `d` features.
  size_t PartialBytes(size_t d) const;
};

/// \brief The per-chunk kernel of every job kind: writes the encoded
/// partial of rows [row_begin, row_end) of `x` (labels `y`, LR only) into
/// `out`, which holds job.PartialBytes(x.cols()) bytes. The simulator's
/// map and the fleet worker's map both call exactly this.
void RunChunkKernel(const ChunkJob& job, la::ConstMatrixView x,
                    la::ConstVectorView y, size_t row_begin, size_t row_end,
                    double* out);

/// \brief The execution API the distributed drivers run against.
///
/// PartitionExecutor runs jobs in-process (the simulator); ProcessFleet
/// runs them in forked workers and folds their shm result slots. Both
/// call `fold` in the same fixed order, so the drivers' results are
/// identical on either substrate by construction.
class JobExecutor {
 public:
  /// Receives one chunk's encoded partial (ChunkJob's layout).
  using FoldFn = std::function<void(const double* partial)>;

  virtual ~JobExecutor() = default;

  /// The partition plan every job covers.
  virtual const std::vector<Partition>& partitions() const = 0;

  /// Runs `job` over every partition chunk and calls `fold` once per
  /// chunk on the calling thread: partitions in the strided task order
  /// (stride = instance count, offset = instance id), chunks ascending
  /// within each. Measured per-instance stats land in `stats`. On error
  /// no partial has been folded.
  virtual util::Status RunJob(const ChunkJob& job, const FoldFn& fold,
                              JobStats* stats) = 0;

  /// The measured-calibrated model's prediction of one job's pipeline
  /// execution seconds (see cluster::PredictExecSeconds); 0 when the run
  /// is not measured.
  virtual double PredictExecSeconds(uint64_t row_bytes, bool cold) const = 0;
};

/// \brief MLlib-style logistic regression over `executor`: L-BFGS on the
/// driver, one gradient job per function evaluation, the ridge term added
/// by the driver, simulated time charged per job from `config`'s cost
/// model. `x` is the training features (the driver reads only its shape).
/// A failed job ends the run with that job's Status; no further job is
/// issued.
util::Result<DistributedLrResult> DriveLogisticRegression(
    JobExecutor* executor, const ClusterConfig& config, la::ConstMatrixView x,
    double l2, const ml::LbfgsOptions& optimizer_options);

/// \brief MLlib-style k-means over `executor`: the single-machine seeding
/// (ml::KMeans::SeedCenters on `x`), one assignment/accumulation job per
/// iteration with the centers broadcast, center updates and empty-cluster
/// reseeding on the driver.
util::Result<DistributedKMeansResult> DriveKMeans(
    JobExecutor* executor, const ClusterConfig& config, la::ConstMatrixView x,
    const ml::KMeansOptions& options);

}  // namespace m3::cluster

#endif  // M3_CLUSTER_DRIVER_H_
