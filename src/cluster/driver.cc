#include "cluster/driver.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "cluster/sim_clock.h"
#include "io/shm_channel.h"
#include "la/blas.h"
#include "obs/trace_recorder.h"
#include "obs/trace_session.h"
#include "util/random.h"

namespace m3::cluster {

using util::Result;
using util::Status;

size_t ChunkJob::PartialBytes(size_t d) const {
  if (kind == io::ShmChannel::kJobLrGradient) {
    return (d + 2) * sizeof(double);
  }
  return sizeof(double) * (1 + k * d) + sizeof(uint64_t) * k;
}

void RunChunkKernel(const ChunkJob& job, la::ConstMatrixView x,
                    la::ConstVectorView y, size_t row_begin, size_t row_end,
                    double* out) {
  const size_t d = x.cols();
  std::fill(out, out + job.PartialBytes(d) / sizeof(double), 0.0);
  if (job.kind == io::ShmChannel::kJobLrGradient) {
    ml::LogisticRegressionObjective objective(x, y, /*l2=*/0.0);
    out[0] = objective.EvaluateChunk(
        row_begin, row_end, la::ConstVectorView(job.params, job.num_params),
        la::VectorView(out + 1, job.num_params));
    return;
  }
  const la::ConstMatrixView centers(job.params, job.k, d);
  double* sums = out + 1;
  std::vector<uint64_t> counts(job.k, 0);
  for (size_t r = row_begin; r < row_end; ++r) {
    double dist2 = 0;
    const size_t c = ml::KMeans::NearestCenter(x.Row(r), centers, &dist2);
    out[0] += dist2;
    la::Axpy(1.0, x.Row(r), la::VectorView(sums + c * d, d));
    ++counts[c];
  }
  // Counts travel as u64 bit patterns in the partial's trailing words.
  std::memcpy(sums + job.k * d, counts.data(), job.k * sizeof(uint64_t));
}

namespace {

/// Starts the configured trace session (a no-op when one is running).
void StartTrace(const ClusterConfig& config) {
  if (!config.exec.trace_path.empty()) {
    obs::StartGlobalTrace(config.exec.trace_path);
  }
}

/// Charges one job's simulated time — broadcast the parameters, run the
/// stage, tree-aggregate the result — plus the calibrated model's
/// prediction of its measured execution, and adds it to `total`.
void ChargeJob(const JobExecutor& executor, const ClusterConfig& config,
               uint64_t row_bytes, uint64_t broadcast_bytes,
               uint64_t result_bytes, bool cold, JobStats* job,
               JobStats* total) {
  const StageCostModel model(config);
  job->predicted_exec_seconds = executor.PredictExecSeconds(row_bytes, cold);
  job->Accumulate(model.Broadcast(broadcast_bytes));
  job->Accumulate(model.StageCost(executor.partitions(), row_bytes, cold));
  job->Accumulate(model.TreeAggregate(result_bytes));
  // Accumulate() sums `jobs` from the parts; this is one job.
  job->jobs = 1;
  total->Accumulate(*job);
}

/// The driver-side L-BFGS objective: every gradient evaluation is one
/// job. ml::DifferentiableFunction cannot return a Status, so a failed job
/// latches into `failure_` (checked after Minimize) and later evaluations
/// short-circuit to zero without issuing a job — the optimizer then
/// converges at once on the zero gradient.
class LrObjective final : public ml::DifferentiableFunction {
 public:
  LrObjective(JobExecutor* executor, const ClusterConfig& config, size_t d,
              double l2, JobStats* stats)
      : executor_(executor), config_(config), d_(d), l2_(l2), stats_(stats) {}

  size_t Dimension() const override { return d_ + 1; }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    obs::ScopedSpan job_span("cluster", "lr_gradient_job");
    grad.SetZero();
    if (!failure_.ok()) {
      return 0;
    }
    ChunkJob job;
    job.kind = io::ShmChannel::kJobLrGradient;
    job.params = w.data();
    job.num_params = w.size();
    double loss = 0;
    JobStats stats;
    failure_ = executor_->RunJob(
        job,
        [&](const double* partial) {
          loss += partial[0];
          la::Axpy(1.0, la::ConstVectorView(partial + 1, w.size()), grad);
        },
        &stats);
    if (!failure_.ok()) {
      grad.SetZero();
      return 0;
    }
    // The driver adds the ridge term (as MLlib's updater does).
    if (l2_ > 0) {
      la::ConstVectorView weights = w.Slice(0, d_);
      loss += 0.5 * l2_ * la::Dot(weights, weights);
      la::Axpy(l2_, weights, grad.Slice(0, d_));
    }
    const uint64_t result_bytes = (Dimension() + 1) * sizeof(double);
    ChargeJob(*executor_, config_, d_ * sizeof(double), result_bytes,
              result_bytes, first_pass_, &stats, stats_);
    first_pass_ = false;
    return loss;
  }

  const Status& failure() const { return failure_; }

 private:
  JobExecutor* executor_;
  const ClusterConfig& config_;
  size_t d_;
  double l2_;
  JobStats* stats_;
  Status failure_ = Status::OK();
  bool first_pass_ = true;
};

}  // namespace

Result<DistributedLrResult> DriveLogisticRegression(
    JobExecutor* executor, const ClusterConfig& config, la::ConstMatrixView x,
    double l2, const ml::LbfgsOptions& optimizer_options) {
  StartTrace(config);
  obs::ScopedSpan run_span("cluster", "logistic_regression");
  if (run_span.armed()) {
    run_span.AddArg("rows", static_cast<uint64_t>(x.rows()));
    run_span.AddArg("instances", static_cast<uint64_t>(config.num_instances));
  }
  const size_t d = x.cols();
  DistributedLrResult result;
  LrObjective objective(executor, config, d, l2, &result.stats);
  la::Vector params(d + 1);
  ml::Lbfgs optimizer(optimizer_options);
  Result<ml::OptimizationResult> optimization =
      optimizer.Minimize(&objective, params.View());
  M3_RETURN_IF_ERROR(objective.failure());
  M3_RETURN_IF_ERROR(optimization.status());
  result.optimization = std::move(optimization).value();
  result.model.weights = la::Vector(d);
  la::Copy(params.View().Slice(0, d), result.model.weights);
  result.model.intercept = params[d];
  return result;
}

Result<DistributedKMeansResult> DriveKMeans(JobExecutor* executor,
                                            const ClusterConfig& config,
                                            la::ConstMatrixView x,
                                            const ml::KMeansOptions& options) {
  StartTrace(config);
  obs::ScopedSpan run_span("cluster", "kmeans");
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t k = options.k;
  if (run_span.armed()) {
    run_span.AddArg("rows", static_cast<uint64_t>(n));
    run_span.AddArg("k", static_cast<uint64_t>(k));
  }
  // The single-machine seeding (it also validates k and the data shape):
  // both sides of the Fig. 1b comparison start from the same centers.
  M3_ASSIGN_OR_RETURN(la::Matrix centers, ml::KMeans::SeedCenters(x, options));

  DistributedKMeansResult result;
  const uint64_t row_bytes = d * sizeof(double);
  const uint64_t centers_bytes = k * d * sizeof(double);
  const uint64_t result_bytes = centers_bytes + k * sizeof(uint64_t);
  la::Matrix sums(k, d);
  std::vector<uint64_t> counts(k);
  util::Rng rng(options.seed);
  double previous_inertia = std::numeric_limits<double>::max();

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    obs::ScopedSpan iter_span("cluster", "kmeans_iteration");
    if (iter_span.armed()) {
      iter_span.AddArg("iteration", static_cast<uint64_t>(iter));
    }
    sums.SetZero();
    std::fill(counts.begin(), counts.end(), 0);
    double inertia = 0;
    ChunkJob job;
    job.kind = io::ShmChannel::kJobKMeansIteration;
    job.params = centers.data();
    job.num_params = k * d;
    job.k = k;
    JobStats stats;
    // Centers are read-only for the whole job; partials fold in task order.
    M3_RETURN_IF_ERROR(executor->RunJob(
        job,
        [&](const double* partial) {
          inertia += partial[0];
          const double* chunk_counts = partial + 1 + k * d;
          for (size_t c = 0; c < k; ++c) {
            la::Axpy(1.0, la::ConstVectorView(partial + 1 + c * d, d),
                     sums.Row(c));
            uint64_t count = 0;
            std::memcpy(&count, chunk_counts + c, sizeof(count));
            counts[c] += count;
          }
        },
        &stats));
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        la::Copy(sums.Row(c), centers.Row(c));
        la::Scal(1.0 / static_cast<double>(counts[c]), centers.Row(c));
      } else {
        const size_t row = static_cast<size_t>(rng.UniformInt(uint64_t{n}));
        la::Copy(x.Row(row), centers.Row(c));
      }
    }
    ChargeJob(*executor, config, row_bytes, centers_bytes, result_bytes,
              iter == 0, &stats, &result.stats);

    result.clustering.inertia = inertia;
    result.clustering.inertia_history.push_back(inertia);
    ++result.clustering.iterations;
    const double improvement =
        (previous_inertia - inertia) / std::max(1.0, previous_inertia);
    if (iter > 0 && improvement >= 0 && improvement < options.tolerance) {
      result.clustering.converged = true;
      break;
    }
    previous_inertia = inertia;
  }
  result.clustering.centers = std::move(centers);
  return result;
}

}  // namespace m3::cluster
