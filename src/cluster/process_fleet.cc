#include "cluster/process_fleet.h"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "cluster/partition_executor.h"
#include "la/chunker.h"
#include "obs/trace_session.h"
#include "util/format.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace m3::cluster {

using util::Result;
using util::Status;

namespace {

/// Fixed tail of every result slot reserved for the worker's
/// length-prefixed stats JSON (two PipelineStats::ToJson objects plus
/// refault counters — comfortably under 4 KiB; the slack absorbs
/// append-only schema growth).
constexpr size_t kStatsBytes = 32 << 10;

/// The broadcast job header: [u64 k][u64 num_params], then the params.
constexpr size_t kJobHeaderBytes = 2 * sizeof(uint64_t);

/// Worker exit codes (surface in the parent's error message via waitpid).
constexpr int kWorkerExitDatasetFailed = 3;

std::string DescribeExit(int status) {
  if (WIFEXITED(status)) {
    return util::StrFormat("exit code %d", WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return util::StrFormat("killed by signal %d", WTERMSIG(status));
  }
  return "unknown wait status";
}

}  // namespace

Result<std::unique_ptr<ProcessFleet>> ProcessFleet::Spawn(
    const std::string& dataset_path, const FleetOptions& options) {
  M3_RETURN_IF_ERROR(options.config.Validate());
  if (options.phase_deadline_seconds <= 0) {
    return Status::InvalidArgument("phase_deadline_seconds must be positive");
  }
  if (options.max_kmeans_k == 0) {
    return Status::InvalidArgument("max_kmeans_k must be positive");
  }
  M3_ASSIGN_OR_RETURN(MappedDataset dataset, MappedDataset::Open(dataset_path));
  if (dataset.rows() == 0 || dataset.cols() == 0) {
    return Status::InvalidArgument("empty dataset");
  }
  std::unique_ptr<ProcessFleet> fleet(
      new ProcessFleet(std::move(dataset), dataset_path, options));
  M3_RETURN_IF_ERROR(fleet->Start());
  return fleet;
}

ProcessFleet::ProcessFleet(MappedDataset dataset, std::string dataset_path,
                           const FleetOptions& options)
    : options_(options),
      dataset_path_(std::move(dataset_path)),
      dataset_(std::move(dataset)),
      partitions_(SparkCluster(options.config)
                      .PlanPartitions(dataset_.rows(),
                                      dataset_.cols() * sizeof(double))),
      fold_order_(exec::ChunkSchedule::Strided(partitions_.size(),
                                               options.config.num_instances)) {
  const size_t workers = options_.config.num_instances;
  partition_chunks_.resize(partitions_.size());
  partition_chunk_base_.resize(partitions_.size());
  worker_chunks_.assign(workers, 0);
  // Ascending partition index IS each worker's emission order (lane k of
  // the strided schedule visits instance k's partitions in ascending
  // index), so a running per-worker count doubles as the chunk-slot base.
  for (size_t p = 0; p < partitions_.size(); ++p) {
    const Partition& partition = partitions_[p];
    const la::RowChunker chunker(
        partition.rows(),
        PartitionChunkRows(partition, options_.config.exec.chunk_rows));
    partition_chunks_[p] = chunker.NumChunks();
    partition_chunk_base_[p] = worker_chunks_[partition.instance];
    worker_chunks_[partition.instance] += chunker.NumChunks();
  }
  ChunkJob lr;
  lr.kind = io::ShmChannel::kJobLrGradient;
  ChunkJob kmeans;
  kmeans.kind = io::ShmChannel::kJobKMeansIteration;
  kmeans.k = options_.max_kmeans_k;
  max_partial_bytes_ = std::max(lr.PartialBytes(dataset_.cols()),
                                kmeans.PartialBytes(dataset_.cols()));
}

ProcessFleet::~ProcessFleet() { Shutdown().IgnoreError(); }

Status ProcessFleet::Start() {
  const size_t workers = options_.config.num_instances;
  const size_t d = dataset_.cols();
  io::ShmChannel::Options channel_options;
  channel_options.num_workers = workers;
  // Broadcast payload: [u64 k][u64 num_params][num_params doubles] — the
  // ChunkJob a worker rebuilds (LR: d+1 weights; k-means: k*d centers).
  channel_options.broadcast_bytes =
      kJobHeaderBytes +
      std::max(d + 1, options_.max_kmeans_k * d) * sizeof(double);
  channel_options.slot_bytes.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    channel_options.slot_bytes.push_back(
        worker_chunks_[w] * max_partial_bytes_ + kStatsBytes);
  }
  M3_ASSIGN_OR_RETURN(io::ShmChannel channel,
                      io::ShmChannel::Create(channel_options));
  channel_ = std::make_unique<io::ShmChannel>(std::move(channel));

  pids_.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int fork_errno = errno;
      alive_ = true;  // KillAll() reaps the already-forked workers
      KillAll();
      return Status::IoErrorFromErrno("fork fleet worker", fork_errno);
    }
    if (pid == 0) {
      WorkerMain(w);  // never returns
    }
    pids_.push_back(pid);
    channel_->OnParentAfterFork(w);
  }
  alive_ = true;

  // Startup barrier: every worker acks sequence 1 after opening its own
  // mapping and building its executor — so a worker that cannot even
  // start (bad path, mmap failure) surfaces here, not mid-run.
  util::Stopwatch stopwatch;
  for (size_t w = 0; w < workers; ++w) {
    const double remaining = std::max(
        0.01, options_.phase_deadline_seconds - stopwatch.ElapsedSeconds());
    const io::ShmChannel::Wait wait = channel_->WaitWorker(w, 1, remaining);
    if (wait == io::ShmChannel::Wait::kDone) {
      continue;
    }
    const char* why = wait == io::ShmChannel::Wait::kDead
                          ? "died during startup"
                          : "missed the startup deadline";
    const std::string what = util::StrFormat("fleet worker %zu %s", w, why);
    const std::string detail = KillAll();
    return Status::Internal(what + " (" + detail + ")");
  }
  return Status::OK();
}

std::string ProcessFleet::KillAll() {
  std::string detail;
  for (size_t w = 0; w < pids_.size(); ++w) {
    if (pids_[w] < 0) {
      continue;
    }
    ::kill(pids_[w], SIGKILL);
    int status = 0;
    pid_t reaped;
    do {
      reaped = ::waitpid(pids_[w], &status, 0);
    } while (reaped < 0 && errno == EINTR);
    // A worker that died before our SIGKILL was already a zombie: waitpid
    // reports its ORIGINAL death cause (e.g. SIGSEGV), not our kill.
    detail += util::StrFormat("%sworker %zu: %s", detail.empty() ? "" : ", ",
                              w, DescribeExit(status).c_str());
    pids_[w] = -1;
  }
  pids_.clear();
  alive_ = false;
  return detail;
}

Status ProcessFleet::ParseWorkerStats(size_t worker, JobStats* job) {
  if (job == nullptr || !options_.config.exec.use_pipelines) {
    return Status::OK();
  }
  const uint8_t* base =
      channel_->slot(worker) + worker_chunks_[worker] * max_partial_bytes_;
  uint64_t len = 0;
  std::memcpy(&len, base, sizeof(len));
  if (len == 0) {
    return Status::OK();  // worker had nothing to report
  }
  if (len > kStatsBytes - sizeof(uint64_t)) {
    return Status::Internal("fleet worker stats overran the stats region");
  }
  const std::string_view json(reinterpret_cast<const char*>(base + 8),
                              static_cast<size_t>(len));
  M3_ASSIGN_OR_RETURN(util::JsonValue value, util::JsonParse(json));
  const util::JsonValue* cached = value.Find("cached");
  const util::JsonValue* spilled = value.Find("spilled");
  if (cached == nullptr || spilled == nullptr) {
    return Status::Internal("fleet worker stats JSON missing cached/spilled");
  }
  if (job->instance_exec.size() < options_.config.num_instances) {
    job->instance_exec.resize(options_.config.num_instances);
  }
  InstanceExecStats& instance = job->instance_exec[worker];
  M3_ASSIGN_OR_RETURN(instance.cached, exec::PipelineStats::FromJson(*cached));
  M3_ASSIGN_OR_RETURN(instance.spilled,
                      exec::PipelineStats::FromJson(*spilled));
  instance.spill_refaults =
      static_cast<uint64_t>(value.NumberOr("spill_refaults", 0));
  instance.spill_refault_bytes =
      static_cast<uint64_t>(value.NumberOr("spill_refault_bytes", 0));
  // The same measured-wall-time definition as RunJob: the drive seconds
  // this job's partition passes recorded.
  job->measured_exec_seconds +=
      instance.cached.drive_seconds + instance.spilled.drive_seconds;
  return Status::OK();
}

Status ProcessFleet::RunPhase(uint64_t kind, uint64_t payload_len,
                              JobStats* job) {
  const uint64_t seq = channel_->PublishJob(kind, payload_len);
  // One shared deadline across the fleet: workers run concurrently, so
  // waiting for worker 0 also buys workers 1..N-1 time. A dead worker is
  // reported the moment its pipe closes; a hung worker costs at most the
  // remaining budget.
  util::Stopwatch stopwatch;
  std::vector<size_t> dead;
  std::vector<size_t> hung;
  for (size_t w = 0; w < num_workers(); ++w) {
    const double remaining = std::max(
        0.01, options_.phase_deadline_seconds - stopwatch.ElapsedSeconds());
    switch (channel_->WaitWorker(w, seq, remaining)) {
      case io::ShmChannel::Wait::kDone:
        break;
      case io::ShmChannel::Wait::kDead:
        dead.push_back(w);
        break;
      case io::ShmChannel::Wait::kTimeout:
        hung.push_back(w);
        break;
    }
  }
  if (dead.empty() && hung.empty()) {
    for (size_t w = 0; w < num_workers(); ++w) {
      M3_RETURN_IF_ERROR(ParseWorkerStats(w, job));
    }
    return Status::OK();
  }

  // Failure: record what is known, then tear the whole fleet down — a
  // half-dead fleet cannot produce a deterministic fold.
  std::string what;
  if (job != nullptr) {
    job->incomplete = true;
    if (job->instance_exec.size() < num_workers()) {
      job->instance_exec.resize(num_workers());
    }
  }
  for (const size_t w : dead) {
    what += util::StrFormat("worker %zu died mid-job; ", w);
    if (job != nullptr) {
      job->instance_exec[w].incomplete = true;
    }
  }
  for (const size_t w : hung) {
    what += util::StrFormat("worker %zu missed the %.1fs phase deadline; ", w,
                            options_.phase_deadline_seconds);
    if (job != nullptr) {
      job->instance_exec[w].incomplete = true;
    }
  }
  if (job != nullptr) {
    last_run_stats_ = *job;
  }
  const std::string detail = KillAll();
  return Status::Internal("process fleet job failed: " + what + "(" + detail +
                          ")");
}

Status ProcessFleet::RunJob(const ChunkJob& job, const FoldFn& fold,
                            JobStats* stats) {
  if (!alive_) {
    return Status::FailedPrecondition(
        "process fleet is not running (crashed or shut down)");
  }
  uint8_t* broadcast = channel_->broadcast();
  const uint64_t header[2] = {job.k, job.num_params};
  const size_t params_bytes = job.num_params * sizeof(double);
  std::memcpy(broadcast, header, kJobHeaderBytes);
  std::memcpy(broadcast + kJobHeaderBytes, job.params, params_bytes);
  M3_RETURN_IF_ERROR(
      RunPhase(job.kind, kJobHeaderBytes + params_bytes, stats));
  // Fold every chunk partial in the simulator's order: partitions in the
  // strided task order, chunks ascending within each — the reduce
  // sequence of PartitionExecutor::RunJob.
  const size_t words = job.PartialBytes(dataset_.cols()) / sizeof(double);
  for (size_t pos = 0; pos < fold_order_.num_chunks(); ++pos) {
    const size_t p = fold_order_.At(pos);
    // m3-aligned: slot() is page-aligned; partials are whole 8-byte words.
    const double* slot = reinterpret_cast<const double*>(
        channel_->slot(partitions_[p].instance));
    for (size_t c = 0; c < partition_chunks_[p]; ++c) {
      fold(slot + (partition_chunk_base_[p] + c) * words);
    }
  }
  return Status::OK();
}

double ProcessFleet::PredictExecSeconds(uint64_t row_bytes, bool cold) const {
  return cluster::PredictExecSeconds(partitions_, options_.config, row_bytes,
                                     cold);
}

Result<DistributedLrResult> ProcessFleet::RunLogisticRegression(
    double l2, ml::LbfgsOptions optimizer_options) {
  return DriveLogisticRegression(this, options_.config, dataset_.features(),
                                 l2, optimizer_options);
}

Result<DistributedKMeansResult> ProcessFleet::RunKMeans(
    ml::KMeansOptions options) {
  if (options.k > options_.max_kmeans_k) {
    return Status::InvalidArgument(
        "k exceeds FleetOptions::max_kmeans_k (result slots were sized at "
        "Spawn)");
  }
  return DriveKMeans(this, options_.config, dataset_.features(), options);
}

Status ProcessFleet::Shutdown() {
  if (!alive_) {
    return Status::OK();
  }
  alive_ = false;
  channel_->PublishJob(io::ShmChannel::kJobShutdown, 0);
  bool forced = false;
  util::Stopwatch stopwatch;
  for (size_t w = 0; w < pids_.size(); ++w) {
    if (pids_[w] < 0) {
      continue;
    }
    for (;;) {
      int status = 0;
      pid_t reaped;
      do {
        reaped = ::waitpid(pids_[w], &status, WNOHANG);
      } while (reaped < 0 && errno == EINTR);
      if (reaped == pids_[w]) {
        pids_[w] = -1;
        break;
      }
      if (stopwatch.ElapsedSeconds() > options_.phase_deadline_seconds) {
        ::kill(pids_[w], SIGKILL);
        do {
          reaped = ::waitpid(pids_[w], &status, 0);
        } while (reaped < 0 && errno == EINTR);
        pids_[w] = -1;
        forced = true;
        break;
      }
      ::usleep(1000);
    }
  }
  pids_.clear();
  if (forced) {
    return Status::Internal("fleet shutdown had to SIGKILL stragglers");
  }
  return Status::OK();
}

void ProcessFleet::WorkerMain(size_t worker) {
  channel_->OnWorkerAfterFork(worker);
  bool tracing = false;
  if (!options_.worker_trace_dir.empty()) {
    tracing = obs::StartGlobalTrace(util::StrFormat(
        "%s/worker_%zu.json", options_.worker_trace_dir.c_str(), worker));
  }
  // The worker's OWN mapping of the shard: separate virtual mappings that
  // share the one OS page cache — the contention the fleet measures.
  auto dataset_or = MappedDataset::Open(dataset_path_);
  if (!dataset_or.ok()) {
    ::_exit(kWorkerExitDatasetFailed);
  }
  MappedDataset dataset = std::move(dataset_or).value();
  const std::vector<double> labels = dataset.CopyLabels();
  exec::MappedRegion region;
  region.mapping = &dataset.mapping();
  region.base_offset = dataset.meta().features_offset;
  region.row_bytes = dataset.cols() * sizeof(double);
  PartitionExecutor executor(partitions_, options_.config, region,
                             dataset.features(),
                             la::ConstVectorView(labels.data(), labels.size()));
  const size_t stats_offset = worker_chunks_[worker] * max_partial_bytes_;

  // Serializes this job's InstanceExecStats into the slot's stats region
  // (length-prefixed JSON); len 0 = nothing to report (pipelines off).
  const auto write_stats = [&](const JobStats& job) {
    uint8_t* base = channel_->slot(worker) + stats_offset;
    uint64_t len = 0;
    if (worker < job.instance_exec.size()) {
      const InstanceExecStats& stats = job.instance_exec[worker];
      const std::string json = util::StrFormat(
          "{\"cached\": %s, \"spilled\": %s, \"spill_refaults\": %llu, "
          "\"spill_refault_bytes\": %llu}",
          stats.cached.ToJson().c_str(), stats.spilled.ToJson().c_str(),
          static_cast<unsigned long long>(stats.spill_refaults),
          static_cast<unsigned long long>(stats.spill_refault_bytes));
      if (json.size() <= kStatsBytes - sizeof(uint64_t)) {
        len = json.size();
        std::memcpy(base + sizeof(uint64_t), json.data(), json.size());
      }
    }
    std::memcpy(base, &len, sizeof(len));
  };

  channel_->CompleteJob(worker, 1, 0);  // startup ack
  uint64_t last_seen = 1;
  for (;;) {
    uint64_t seq = 0;
    uint64_t kind = 0;
    uint64_t payload_len = 0;
    if (!channel_->AwaitJob(worker, last_seen, &seq, &kind, &payload_len)) {
      break;  // parent died: orphan cleanup
    }
    last_seen = seq;
    if (kind == io::ShmChannel::kJobShutdown) {
      if (tracing) {
        obs::StopGlobalTraceAndWrite().IgnoreError();
      }
      channel_->CompleteJob(worker, seq, 0);
      ::_exit(0);
    }
    if (options_.hang_worker == static_cast<int>(worker)) {
      for (;;) {
        ::usleep(100000);  // fault injection: never complete
      }
    }
    const uint8_t* broadcast = channel_->broadcast();
    uint64_t header[2] = {0, 0};
    std::memcpy(header, broadcast, kJobHeaderBytes);
    ChunkJob job;
    job.kind = kind;
    job.k = header[0];
    job.num_params = header[1];
    // m3-aligned: broadcast() is page-aligned; the header is two u64s.
    job.params = reinterpret_cast<const double*>(broadcast + kJobHeaderBytes);
    JobStats stats;
    // m3-aligned: slot() is page-aligned; partials are whole 8-byte words.
    executor.RunLane(worker, job,
                     reinterpret_cast<double*>(channel_->slot(worker)), &stats);
    write_stats(stats);
    const uint64_t used =
        worker_chunks_[worker] * job.PartialBytes(dataset.cols());
    channel_->CompleteJob(worker, seq, used);
  }
  if (tracing) {
    obs::StopGlobalTraceAndWrite().IgnoreError();
  }
  ::_exit(0);
}

}  // namespace m3::cluster
