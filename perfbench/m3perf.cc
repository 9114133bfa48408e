// m3perf: the repository benchmark driver. One workload per process.
//
//   m3perf --workload lr_inram --seed 1 --seconds 10 --trace 0 --dir DIR
//
// A run generates the workload's inputs from --seed under --dir, sets up
// several times (set-up time is reported as the median), then repeats the
// workload's training call through the public API for --seconds, checks
// every result bitwise against the seed's reference, and prints its
// metrics by name with units. The last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 half
// of the calls run with the benchmark's own spans and hooks armed, the
// per-layer probes run after the timed loop, and the metrics are the
// per-layer ones (each printed with the end-to-end metric it should move).
// The spans are written to --trace_out as Chrome trace-event JSON.
// Workloads, metrics and caveats: perfbench/NOTES.md.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/process_fleet.h"
#include "core/m3.h"
#include "core/sparse_mapped_dataset.h"
#include "data/dataset.h"
#include "data/infimnist.h"
#include "data/sparse_dataset.h"
#include "io/file.h"
#include "la/blas.h"
#include "layer_probes.h"
#include "ml/sparse_logistic_regression.h"
#include "span_log.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/stopwatch.h"

namespace m3::perfbench {
namespace {

using util::Result;
using util::Status;

constexpr int kSetupRepeats = 3;
constexpr size_t kMinCalls = 2;
/// Untraced runs keep calling until this many iteration samples exist, so
/// at least ten lie beyond iter_ms_p90.
constexpr size_t kMinIterationSamples = 110;
/// ...but never beyond this multiple of --seconds.
constexpr double kMaxSecondsFactor = 2;
constexpr size_t kEngineWorkers = 2;
constexpr size_t kFleetWorkers = 2;
constexpr uint64_t kBudgetPercent = 25;
/// 128 MiB of features: past the 105 MiB L3 of the machine the sizes were
/// chosen on, yet small enough for an out-of-core call to take under 2 s.
constexpr uint64_t kDenseImages = 21400;
constexpr uint64_t kDenseFeatureBytes =
    kDenseImages * data::kImageFeatures * sizeof(double);
/// About 128 MiB of col_idx + values, like the dense file.
constexpr uint64_t kSparseRows = 350000;
constexpr uint64_t kSparseCols = 65536;
constexpr uint64_t kSparseNnzPerRow = 32;
constexpr size_t kKMeansIterations = 10;
constexpr double kMiB = 1024.0 * 1024.0;

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_out;
};

/// Component times of one set-up.
struct SetupTimes {
  double total_s = 0;
  double generate_s = 0;
  double open_s = 0;
  double spawn_s = 0;
  uint64_t bytes_written = 0;
};

/// What one training call reports to the driver.
struct CallTimes {
  double wall_s = 0;
  std::vector<double> iter_ms;  ///< one wall time per optimizer iteration
  size_t passes = 0;            ///< full data passes the call made
};

/// Per-layer values, keyed by metric name.
using LayerValues = std::map<std::string, double>;

/// The per-layer metrics, in report order, with the end-to-end metric and
/// workloads each should move and the ceiling it is judged against.
struct LayerMetricInfo {
  const char* name;
  const char* unit;
  const char* moves;
  const char* on;
  const char* ceiling;  ///< nullptr when the metric is not a rate
};

constexpr LayerMetricInfo kLayerMetrics[] = {
    {"io.disk_read_gbps", "GB/s", "ceiling", "all", nullptr},
    {"io.fault_us_per_page_cold", "us", "train_s", "out-of-core", nullptr},
    {"io.fault_us_per_page_warm", "us", "train_s", "lr_inram", nullptr},
    {"io.prefetch_gbps", "GB/s", "iter_ms_p90", "out-of-core",
     "io.disk_read_gbps"},
    {"io.minor_faults_per_pass", "count", "train_s", "out-of-core", nullptr},
    {"io.major_faults_per_pass", "count", "train_s", "out-of-core", nullptr},
    {"data.generate_s", "s", "setup_s", "all", nullptr},
    {"data.write_gbps", "GB/s", "setup_s", "all", nullptr},
    {"core.open_s", "s", "setup_s", "sparse_lr_outofcore", nullptr},
    {"core.budget_evict_ms_per_pass", "ms", "train_s", "lr_outofcore",
     nullptr},
    {"core.resident_peak_ratio", "ratio", "peak_rss_mib", "out-of-core",
     nullptr},
    {"core.cpu_util", "fraction", "train_s", "all", nullptr},
    {"core.sys_frac", "fraction", "train_s", "all", nullptr},
    {"la.dot_gbps", "GB/s", "train_s,iter_ms_p50", "lr_inram",
     "la.stream_gbps"},
    {"la.axpy_gbps", "GB/s", "train_s,iter_ms_p50", "lr_inram",
     "la.stream_gbps"},
    {"la.sqdist_gbps", "GB/s", "iter_ms_p50", "kmeans_fleet",
     "la.stream_gbps"},
    {"la.sparse_dot_gbps", "GB/s", "train_s", "sparse_lr_outofcore",
     "la.stream_gbps"},
    {"la.stream_gbps", "GB/s", "ceiling", "all", nullptr},
    {"exec.chunks_per_pass", "count", "iter_ms_p90", "out-of-core", nullptr},
    {"exec.hit_ratio", "fraction", "iter_ms_p90", "out-of-core", nullptr},
    {"exec.stalls", "count", "iter_ms_p90", "out-of-core", nullptr},
    {"exec.prefetch_claimed_gbps", "GB/s", "iter_ms_p90", "out-of-core",
     "io.disk_read_gbps"},
    {"exec.chunk_ms_p50", "ms", "iter_ms_p90", "single-process", nullptr},
    {"exec.chunk_ms_p99", "ms", "iter_ms_p90", "single-process", nullptr},
    {"exec.overhead_ms_per_pass", "ms", "train_s", "lr_inram", nullptr},
    {"ml.evals_per_train", "count", "train_s", "LR workloads", nullptr},
    {"ml.optimizer_ms_per_iter", "ms", "iter_ms_p50", "lr_inram", nullptr},
    {"cluster.spawn_s", "s", "setup_s", "kmeans_fleet", nullptr},
    {"cluster.coord_ms_per_iter", "ms", "iter_ms_p50", "kmeans_fleet",
     nullptr},
    {"cluster.spill_refaults_per_iter", "count", "iter_ms_p90",
     "kmeans_fleet", nullptr},
    {"cluster.shm_mib_per_iter", "MiB", "iter_ms_p90", "kmeans_fleet",
     nullptr},
    {"obs.trace_overhead", "fraction", "none", "all", nullptr},
};

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Runs `fn` in a forked child and waits for it. The data generators start
/// thread pools; running them in a child keeps this process
/// single-threaded until training, which ProcessFleet::Spawn requires (a
/// fork while other threads hold locks leaves the workers deadlocked).
Status RunInChild(const std::function<Status()>& fn) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    return Status::IoErrorFromErrno("fork", errno);
  }
  if (pid == 0) {
    const Status status = fn();
    if (!status.ok()) {
      std::fprintf(stderr, "child: %s\n", status.ToString().c_str());
    }
    std::fflush(stderr);
    _exit(status.ok() ? 0 : 1);
  }
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0) {
    if (errno != EINTR) {
      return Status::IoErrorFromErrno("waitpid", errno);
    }
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("data generation child failed");
  }
  return Status::OK();
}

/// Peak resident set (VmHWM) of a live process, MiB; 0 if unreadable.
double PeakRssMib(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0;
}

/// Flushes a freshly written file to storage, so later evictions really
/// drop its pages (dirty pages survive POSIX_FADV_DONTNEED).
Status SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoErrorFromErrno("open " + path, errno);
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  return rc == 0 ? Status::OK() : Status::IoErrorFromErrno("fsync", saved);
}

/// Generates `path` in a child (generator + fsync) and times it.
Status GenerateTimed(const std::string& path,
                     const std::function<Status()>& generate, SpanLog* log,
                     SetupTimes* times) {
  if (io::FileExists(path)) {
    // Unlink first: a mapping of the previous set-up's file keeps its own
    // inode, so regenerating never truncates pages someone has mapped.
    M3_RETURN_IF_ERROR(io::RemoveFile(path));
  }
  SpanLog::Scope span(log, "data", "generate");
  util::Stopwatch watch;
  M3_RETURN_IF_ERROR(RunInChild([&]() -> Status {
    M3_RETURN_IF_ERROR(generate());
    return SyncFile(path);
  }));
  times->generate_s = watch.ElapsedSeconds();
  M3_ASSIGN_OR_RETURN(times->bytes_written, io::FileSize(path));
  return Status::OK();
}

/// \brief Instrumentation a traced call wraps around the library's scan
/// hooks: pass and chunk boundaries, time inside the RAM-budget
/// emulator's eviction hook, and residency sampled at each pass start.
class ScanProbe {
 public:
  ScanProbe(SpanLog* log, const io::MemoryMappedFile* mapping,
            double budget_bytes)
      : log_(log), mapping_(mapping), budget_bytes_(budget_bytes) {}

  ScanProbe(const ScanProbe&) = delete;
  ScanProbe& operator=(const ScanProbe&) = delete;

  /// Hooks that record around `inner` (which may be empty). They capture
  /// `this`, so the probe must outlive the call they are installed on.
  ml::ScanHooks Wrap(ml::ScanHooks inner) {
    ml::ScanHooks hooks;
    hooks.before_pass = [this, inner](size_t pass) {
      ClosePass();
      if (auto resident = mapping_->ResidentFraction(); resident.ok()) {
        resident_peak_ = std::max(
            resident_peak_, resident.value() *
                               static_cast<double>(mapping_->size()) /
                               budget_bytes_);
      }
      pass_span_ = log_->Begin("exec", "pass");
      pass_start_ = last_mark_ = log_->Now();
      ++passes_;
      if (inner.before_pass) {
        inner.before_pass(pass);
      }
    };
    hooks.after_chunk = [this, inner](size_t row_begin, size_t row_end) {
      const double entry = log_->Now();
      chunk_ms_.push_back((entry - last_mark_) * 1e3);
      if (inner.after_chunk) {
        SpanLog::Scope evict(log_, "core", "budget_evict");
        inner.after_chunk(row_begin, row_end);
        evict_seconds_ += log_->Now() - entry;
      }
      last_mark_ = log_->Now();
    };
    return hooks;
  }

  /// Ends a traced call of `wall_s` seconds and `iterations` optimizer
  /// iterations: closes its last pass (at its last chunk) and books the
  /// time outside the passes as optimizer time.
  void FinishCall(double wall_s, size_t iterations) {
    ClosePass();
    optimizer_seconds_ += wall_s - call_pass_seconds_;
    call_pass_seconds_ = 0;
    iterations_ += iterations;
  }

  /// The scan-level layer metrics of the traced calls so far.
  void Report(LayerValues* values) const {
    const double passes = static_cast<double>(std::max<size_t>(1, passes_));
    (*values)["core.budget_evict_ms_per_pass"] =
        evict_seconds_ * 1e3 / passes;
    (*values)["core.resident_peak_ratio"] = resident_peak_;
    (*values)["exec.chunk_ms_p50"] = Quantile(chunk_ms_, 0.5);
    (*values)["exec.chunk_ms_p99"] = Quantile(chunk_ms_, 0.99);
    (*values)["ml.optimizer_ms_per_iter"] =
        optimizer_seconds_ * 1e3 /
        static_cast<double>(std::max<size_t>(1, iterations_));
  }

 private:
  void ClosePass() {
    if (pass_span_ < 0) {
      return;
    }
    log_->EndAt(pass_span_, last_mark_);
    call_pass_seconds_ += last_mark_ - pass_start_;
    pass_span_ = -1;
  }

  SpanLog* log_;
  const io::MemoryMappedFile* mapping_;
  double budget_bytes_;
  int pass_span_ = -1;
  double pass_start_ = 0;
  double last_mark_ = 0;
  double call_pass_seconds_ = 0;
  size_t passes_ = 0;
  size_t iterations_ = 0;
  double evict_seconds_ = 0;
  double optimizer_seconds_ = 0;
  double resident_peak_ = 0;
  std::vector<double> chunk_ms_;
};

/// \brief One workload: set-up, the timed training call, its reference
/// check and its workload-specific layer metrics.
class Workload {
 public:
  Workload(const Config& config, SpanLog* log) : config_(config), log_(log) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  virtual std::string Describe() const = 0;
  /// Generates the inputs from the seed and brings them into the state a
  /// call starts from. May run several times; each replaces the last.
  virtual Status Setup(SetupTimes* times) = 0;
  /// One training call, timed from outside. `traced` arms the hooks.
  virtual Status Call(bool traced, CallTimes* times) = 0;
  /// Ends the timed phase (stops child processes, snapshots counters).
  virtual Status Stop() = 0;
  /// Successful calls whose result differs bitwise from the reference.
  virtual Result<size_t> CountMismatches() = 0;
  /// Engine counters summed over the timed calls.
  virtual exec::PipelineStats ExecStats() const = 0;
  /// The workload's data file (the io probes fault it in).
  virtual const std::string& data_path() const = 0;
  /// Traced run: the metrics only this workload can measure.
  virtual Status MeasureLayers(LayerValues* values) = 0;
  /// Peak RSS of the worker processes the calls ran on (0 for none).
  virtual double WorkerPeakRssMib() const { return 0; }

 protected:
  const Config& config_;
  SpanLog* log_;
};

// ---------------------------------------------------------------------------
// lr_inram / lr_outofcore: dense L-BFGS logistic regression on a mapping.
// ---------------------------------------------------------------------------

struct LrResult {
  std::vector<double> weights;
  double intercept = 0;
  double objective = 0;

  bool operator==(const LrResult& other) const {
    return weights.size() == other.weights.size() &&
           SameBits(weights.data(), other.weights.data(), weights.size()) &&
           SameBits(&intercept, &other.intercept, 1) &&
           SameBits(&objective, &other.objective, 1);
  }
};

LrResult ToLrResult(const ml::LogisticRegressionModel& model,
                    const ml::OptimizationResult& stats) {
  LrResult result;
  result.weights = model.weights.values();
  result.intercept = model.intercept;
  result.objective = stats.objective;
  return result;
}

/// Appends one wall time per L-BFGS iteration to `times`.
std::function<void(size_t, double, double)> IterationTimer(
    const util::Stopwatch* watch, double* last, CallTimes* times) {
  return [watch, last, times](size_t, double, double) {
    const double now = watch->ElapsedSeconds();
    times->iter_ms.push_back((now - *last) * 1e3);
    *last = now;
  };
}

class DenseLrWorkload final : public Workload {
 public:
  DenseLrWorkload(const Config& config, SpanLog* log, bool out_of_core)
      : Workload(config, log),
        out_of_core_(out_of_core),
        path_(config.dir + "/dense.m3") {}

  std::string Describe() const override {
    return util::StrFormat(
        "%s: %llu x %zu dense InfiMNIST (%.1f MiB), RAM budget %s, %zu "
        "engine workers, 10 L-BFGS iterations per call",
        out_of_core_ ? "lr_outofcore" : "lr_inram",
        static_cast<unsigned long long>(kDenseImages),
        data::kImageFeatures, kDenseFeatureBytes / kMiB,
        out_of_core_ ? "25% of the features, EvictAll before each call"
                     : "none (pages warmed before timing)",
        kEngineWorkers);
  }

  Status Setup(SetupTimes* times) override {
    dataset_.reset();
    probe_.reset();
    M3_RETURN_IF_ERROR(GenerateTimed(
        path_,
        [this]() {
          return data::GenerateInfimnistDataset(path_, kDenseImages,
                                                config_.seed, true);
        },
        log_, times));
    M3Options options;
    options.pipeline_workers = kEngineWorkers;
    options.ram_budget_bytes = BudgetBytes();
    {
      SpanLog::Scope span(log_, "core", "open");
      util::Stopwatch watch;
      M3_ASSIGN_OR_RETURN(MappedDataset dataset,
                          MappedDataset::Open(path_, options));
      dataset_.emplace(std::move(dataset));
      times->open_s = watch.ElapsedSeconds();
    }
    if (out_of_core_) {
      SpanLog::Scope span(log_, "core", "evict_all");
      M3_RETURN_IF_ERROR(dataset_->EvictAll());
    } else {
      SpanLog::Scope span(log_, "io", "warm");
      // The reads go through a volatile pointer; the checksum is not needed.
      (void)dataset_->mapping().TouchAllPages();
    }
    probe_ = std::make_unique<ScanProbe>(
        log_, &dataset_->mapping(),
        static_cast<double>(out_of_core_ ? BudgetBytes()
                                         : dataset_->feature_bytes()));
    return Status::OK();
  }

  Status Call(bool traced, CallTimes* times) override {
    if (out_of_core_) {
      M3_RETURN_IF_ERROR(dataset_->EvictAll());
    }
    SpanLog::Scope span(log_, "ml", traced ? "train" : "train_untraced");
    ml::LogisticRegressionOptions options;
    options.lbfgs = PaperLbfgsOptions();
    util::Stopwatch watch;
    double last = 0;
    options.lbfgs.iteration_callback = IterationTimer(&watch, &last, times);
    if (traced) {
      options.hooks = probe_->Wrap(dataset_->MakeScanHooks());
    }
    ml::OptimizationResult stats;
    watch.Restart();
    Result<ml::LogisticRegressionModel> model =
        TrainLogisticRegression(*dataset_, options, &stats);
    times->wall_s = watch.ElapsedSeconds();
    times->passes = stats.function_evaluations;
    if (traced) {
      probe_->FinishCall(times->wall_s, times->iter_ms.size());
    }
    if (!model.ok()) {
      results_.push_back(std::nullopt);
      return model.status();
    }
    results_.push_back(ToLrResult(model.value(), stats));
    return Status::OK();
  }

  Status Stop() override {
    exec_stats_ = dataset_->pipeline().stats();
    return Status::OK();
  }

  Result<size_t> CountMismatches() override {
    // The reference is the serial, unbudgeted trainer on the same file:
    // the determinism contract says worker count and RAM budget never
    // change a bit, so lr_outofcore must equal lr_inram for the seed.
    SpanLog::Scope span(log_, "ml", "reference");
    M3_ASSIGN_OR_RETURN(MappedDataset plain, MappedDataset::Open(path_));
    ml::LogisticRegressionOptions options;
    options.lbfgs = PaperLbfgsOptions();
    ml::OptimizationResult stats;
    M3_ASSIGN_OR_RETURN(ml::LogisticRegressionModel model,
                        TrainLogisticRegression(plain, options, &stats));
    const LrResult reference = ToLrResult(model, stats);
    std::printf("reference: serial in-RAM objective %.17g\n",
                reference.objective);
    size_t mismatches = 0;
    for (const std::optional<LrResult>& result : results_) {
      if (result.has_value() && !(*result == reference)) {
        ++mismatches;
      }
    }
    return mismatches;
  }

  exec::PipelineStats ExecStats() const override { return exec_stats_; }
  const std::string& data_path() const override { return path_; }

  Status MeasureLayers(LayerValues* values) override {
    probe_->Report(values);

    SpanLog::Scope span(log_, "la", "kernels");
    const DenseKernelRates rates = MeasureDenseKernels(dataset_->features());
    (*values)["la.dot_gbps"] = rates.dot_gbps;
    (*values)["la.axpy_gbps"] = rates.axpy_gbps;
    (*values)["la.sqdist_gbps"] = rates.sqdist_gbps;
    (*values)["exec.overhead_ms_per_pass"] = EngineOverheadMs();
    return Status::OK();
  }

 private:
  uint64_t BudgetBytes() const {
    return out_of_core_ ? kDenseFeatureBytes * kBudgetPercent / 100 : 0;
  }

  /// One MapReduceChunks pass whose map functor (the benchmark's) runs
  /// la::Dot per row: the pass's wall time minus functor time spread over
  /// the engine workers is what the engine itself costs. Median of three.
  double EngineOverheadMs() {
    SpanLog::Scope span(log_, "exec", "overhead_pass");
    struct Partial {
      double dot = 0;
      double seconds = 0;
    };
    const la::ConstMatrixView x = dataset_->features();
    la::Vector w(x.cols());
    for (size_t j = 0; j < x.cols(); ++j) {
      w[j] = 1e-3 * static_cast<double>(j % 17);
    }
    std::vector<double> overheads;
    for (int rep = 0; rep < 3; ++rep) {
      double functor_seconds = 0;
      double dot = 0;
      util::Stopwatch watch;
      dataset_->MapReduceChunks<Partial>(
          [&](size_t, size_t row_begin, size_t row_end) {
            util::Stopwatch functor;
            Partial partial;
            for (size_t r = row_begin; r < row_end; ++r) {
              partial.dot += la::Dot(x.Row(r), w);
            }
            partial.seconds = functor.ElapsedSeconds();
            return partial;
          },
          [&](size_t, Partial&& partial) {
            dot += partial.dot;
            functor_seconds += partial.seconds;
          });
      const double wall = watch.ElapsedSeconds();
      overheads.push_back(
          (wall - functor_seconds / static_cast<double>(kEngineWorkers)) *
          1e3);
    }
    return Median(overheads);
  }

  bool out_of_core_;
  std::string path_;
  std::optional<MappedDataset> dataset_;
  std::unique_ptr<ScanProbe> probe_;
  std::vector<std::optional<LrResult>> results_;
  exec::PipelineStats exec_stats_;
};

// ---------------------------------------------------------------------------
// sparse_lr_outofcore: CSR L-BFGS logistic regression, engine-side budget.
// ---------------------------------------------------------------------------

class SparseLrWorkload final : public Workload {
 public:
  SparseLrWorkload(const Config& config, SpanLog* log)
      : Workload(config, log), path_(config.dir + "/sparse.m3s") {}

  std::string Describe() const override {
    return util::StrFormat(
        "sparse_lr_outofcore: %llu x %llu CSR, ~%llu nonzeros per row, "
        "nnz-budget chunks, RAM budget 25%% of col_idx+values (engine "
        "eviction window), EvictAll before each call, %zu engine workers, "
        "10 L-BFGS iterations per call",
        static_cast<unsigned long long>(kSparseRows),
        static_cast<unsigned long long>(kSparseCols),
        static_cast<unsigned long long>(kSparseNnzPerRow), kEngineWorkers);
  }

  Status Setup(SetupTimes* times) override {
    dataset_.reset();
    probe_.reset();
    data::SparseSyntheticOptions generator;
    generator.rows = kSparseRows;
    generator.cols = kSparseCols;
    generator.nnz_per_row = kSparseNnzPerRow;
    generator.seed = config_.seed;
    M3_RETURN_IF_ERROR(GenerateTimed(
        path_,
        [&]() { return data::GenerateSparseDataset(path_, generator); },
        log_, times));
    SpanLog::Scope span(log_, "core", "open");
    util::Stopwatch watch;
    M3_ASSIGN_OR_RETURN(data::SparseDatasetMeta meta,
                        data::ReadSparseDatasetMeta(path_));
    budget_bytes_ = meta.PayloadBytes() * kBudgetPercent / 100;
    M3Options options;
    options.pipeline_workers = kEngineWorkers;
    options.ram_budget_bytes = budget_bytes_;
    M3_ASSIGN_OR_RETURN(MappedSparseDataset dataset,
                        MappedSparseDataset::Open(path_, options));
    dataset_.emplace(std::move(dataset));
    times->open_s = watch.ElapsedSeconds();
    M3_RETURN_IF_ERROR(dataset_->EvictAll());
    probe_ = std::make_unique<ScanProbe>(log_, &dataset_->mapping(),
                                         static_cast<double>(budget_bytes_));
    return Status::OK();
  }

  Status Call(bool traced, CallTimes* times) override {
    M3_RETURN_IF_ERROR(dataset_->EvictAll());
    SpanLog::Scope span(log_, "ml", traced ? "train" : "train_untraced");
    ml::SparseLogisticRegressionOptions options;
    options.lbfgs = PaperLbfgsOptions();
    options.chunk_nnz_bytes = dataset_->ChunkNnzBytes();
    options.pipeline = &dataset_->pipeline();
    util::Stopwatch watch;
    double last = 0;
    options.lbfgs.iteration_callback = IterationTimer(&watch, &last, times);
    if (traced) {
      options.hooks = probe_->Wrap(ml::ScanHooks());
    }
    ml::OptimizationResult stats;
    watch.Restart();
    Result<ml::LogisticRegressionModel> model =
        ml::SparseLogisticRegression(options).Train(dataset_->csr(),
                                                    dataset_->labels(), &stats);
    times->wall_s = watch.ElapsedSeconds();
    times->passes = stats.function_evaluations;
    if (traced) {
      probe_->FinishCall(times->wall_s, times->iter_ms.size());
    }
    if (!model.ok()) {
      results_.push_back(std::nullopt);
      return model.status();
    }
    results_.push_back(ToLrResult(model.value(), stats));
    return Status::OK();
  }

  Status Stop() override {
    exec_stats_ = dataset_->pipeline().stats();
    return Status::OK();
  }

  Result<size_t> CountMismatches() override {
    // Every call must reproduce the first successful one bit for bit.
    const LrResult* reference = nullptr;
    size_t mismatches = 0;
    for (const std::optional<LrResult>& result : results_) {
      if (!result.has_value()) {
        continue;
      }
      if (reference == nullptr) {
        reference = &*result;
        std::printf("reference: first call's objective %.17g\n",
                    reference->objective);
      } else if (!(*result == *reference)) {
        ++mismatches;
      }
    }
    return mismatches;
  }

  exec::PipelineStats ExecStats() const override { return exec_stats_; }
  const std::string& data_path() const override { return path_; }

  Status MeasureLayers(LayerValues* values) override {
    probe_->Report(values);
    SpanLog::Scope span(log_, "la", "kernels");
    (*values)["la.sparse_dot_gbps"] = MeasureSparseKernelsGbps(dataset_->csr());
    return Status::OK();
  }

 private:
  std::string path_;
  uint64_t budget_bytes_ = 0;
  std::optional<MappedSparseDataset> dataset_;
  std::unique_ptr<ScanProbe> probe_;
  std::vector<std::optional<LrResult>> results_;
  exec::PipelineStats exec_stats_;
};

// ---------------------------------------------------------------------------
// kmeans_fleet: k-means on a 2-worker ProcessFleet, iterations chained.
// ---------------------------------------------------------------------------

struct KMeansOutcome {
  std::vector<double> centers;
  double inertia = 0;
};

KMeansOutcome ToKMeansOutcome(const ml::KMeansResult& result) {
  KMeansOutcome outcome;
  outcome.centers.assign(
      result.centers.data(),
      result.centers.data() + result.centers.rows() * result.centers.cols());
  outcome.inertia = result.inertia;
  return outcome;
}

class FleetKMeansWorkload final : public Workload {
 public:
  FleetKMeansWorkload(const Config& config, SpanLog* log)
      : Workload(config, log), path_(config.dir + "/dense.m3") {}

  ~FleetKMeansWorkload() override {
    if (fleet_ != nullptr) {
      M3_IGNORE_STATUS(fleet_->Shutdown(), "teardown on an error path");
    }
  }

  std::string Describe() const override {
    return util::StrFormat(
        "kmeans_fleet: %llu x %zu dense InfiMNIST (%.1f MiB), k=5, %zu "
        "single-iteration RunKMeans calls chained per train, %zu-worker "
        "ProcessFleet, each instance caches 25%% of the features",
        static_cast<unsigned long long>(kDenseImages),
        data::kImageFeatures, kDenseFeatureBytes / kMiB, kKMeansIterations,
        kFleetWorkers);
  }

  Status Setup(SetupTimes* times) override {
    if (fleet_ != nullptr) {
      M3_RETURN_IF_ERROR(fleet_->Shutdown());
      fleet_.reset();
    }
    own_.reset();
    M3_RETURN_IF_ERROR(GenerateTimed(
        path_,
        [this]() {
          return data::GenerateInfimnistDataset(path_, kDenseImages,
                                                config_.seed, true);
        },
        log_, times));
    cluster::FleetOptions options;
    options.config.num_instances = kFleetWorkers;
    options.config.cores_per_instance = 2;
    options.config.partitions_per_core = 2;
    options.config.cache_fraction = 1.0;
    options.config.instance_ram_bytes =
        kDenseFeatureBytes * kBudgetPercent / 100;
    options.config.exec.use_pipelines = true;
    options.config.exec.chunk_rows = std::max<uint64_t>(
        1, kDenseImages / (options.config.TotalPartitions() * 8));
    fleet_budget_bytes_ = static_cast<double>(
        options.config.instance_ram_bytes * kFleetWorkers);
    SpanLog::Scope span(log_, "cluster", "spawn");
    util::Stopwatch watch;
    M3_ASSIGN_OR_RETURN(fleet_, cluster::ProcessFleet::Spawn(path_, options));
    times->spawn_s = watch.ElapsedSeconds();
    return Status::OK();
  }

  Status Call(bool traced, CallTimes* times) override {
    if (traced && !own_.has_value()) {
      // The benchmark's own read-only mapping of the fleet's file: mincore
      // on it sees the page cache the workers share. Opened after Spawn.
      M3_ASSIGN_OR_RETURN(MappedDataset own, MappedDataset::Open(path_));
      own_.emplace(std::move(own));
    }
    SpanLog::Scope span(log_, "cluster", traced ? "train" : "train_untraced");
    la::Matrix centers;
    ml::KMeansResult last;
    util::Stopwatch call;
    for (size_t iter = 0; iter < kKMeansIterations; ++iter) {
      ml::KMeansOptions options = PaperKMeansOptions();
      options.max_iterations = 1;
      options.initial_centers = iter == 0 ? nullptr : &centers;
      SpanLog::Scope iteration(log_, "cluster", "run_kmeans");
      util::Stopwatch watch;
      Result<cluster::DistributedKMeansResult> run = fleet_->RunKMeans(options);
      const double wall = watch.ElapsedSeconds();
      if (!run.ok()) {
        times->wall_s = call.ElapsedSeconds();
        results_.push_back(std::nullopt);
        return run.status();
      }
      times->iter_ms.push_back(wall * 1e3);
      ++times->passes;
      AccountJob(run.value().stats, wall);
      if (traced) {
        if (auto resident = own_->mapping().ResidentFraction();
            resident.ok()) {
          resident_peak_ = std::max(
              resident_peak_,
              resident.value() * static_cast<double>(own_->mapping().size()) /
                  fleet_budget_bytes_);
        }
      }
      centers = run.value().clustering.centers;
      last = std::move(run.value().clustering);
    }
    times->wall_s = call.ElapsedSeconds();
    results_.push_back(ToKMeansOutcome(last));
    return Status::OK();
  }

  Status Stop() override {
    // Read while the workers are alive: RUSAGE_CHILDREN would also fold in
    // the data generators, whose peak says nothing about training.
    for (const pid_t pid : fleet_->pids()) {
      worker_peak_rss_mib_ = std::max(worker_peak_rss_mib_, PeakRssMib(pid));
    }
    const Status status = fleet_->Shutdown();
    fleet_.reset();
    return status;
  }

  double WorkerPeakRssMib() const override { return worker_peak_rss_mib_; }

  Result<size_t> CountMismatches() override {
    // The reference is single-process ml::KMeans from the same seed (the
    // same kmeans++ start), run for all ten iterations in one call. The
    // centers must match it bit for bit. Inertia is a sum the fleet folds
    // in partition order, so it must repeat exactly across fleet calls
    // but may differ from the single-process sum in the last bits.
    SpanLog::Scope span(log_, "ml", "reference");
    M3_ASSIGN_OR_RETURN(MappedDataset plain, MappedDataset::Open(path_));
    M3_ASSIGN_OR_RETURN(ml::KMeansResult result,
                        TrainKMeans(plain, PaperKMeansOptions()));
    const KMeansOutcome reference = ToKMeansOutcome(result);
    const KMeansOutcome* first = nullptr;
    size_t mismatches = 0;
    for (const std::optional<KMeansOutcome>& outcome : results_) {
      if (!outcome.has_value()) {
        continue;
      }
      if (first == nullptr) {
        first = &*outcome;
        std::printf("reference: single-process k-means inertia %.17g, "
                    "fleet %.17g\n",
                    reference.inertia, first->inertia);
      }
      const bool same_centers =
          outcome->centers.size() == reference.centers.size() &&
          SameBits(outcome->centers.data(), reference.centers.data(),
                   reference.centers.size());
      const bool inertia_close =
          std::abs(outcome->inertia - reference.inertia) <=
          1e-12 * std::abs(reference.inertia);
      if (!same_centers || !inertia_close ||
          !SameBits(&outcome->inertia, &first->inertia, 1)) {
        ++mismatches;
      }
    }
    return mismatches;
  }

  exec::PipelineStats ExecStats() const override { return exec_stats_; }
  const std::string& data_path() const override { return path_; }

  Status MeasureLayers(LayerValues* values) override {
    const double iterations = std::max<double>(1, iterations_);
    (*values)["core.resident_peak_ratio"] = resident_peak_;
    (*values)["cluster.coord_ms_per_iter"] = coord_seconds_ * 1e3 / iterations;
    (*values)["cluster.spill_refaults_per_iter"] =
        static_cast<double>(spill_refaults_) / iterations;
    (*values)["cluster.shm_mib_per_iter"] = shm_bytes_ / kMiB / iterations;
    if (!own_.has_value()) {
      M3_ASSIGN_OR_RETURN(MappedDataset own, MappedDataset::Open(path_));
      own_.emplace(std::move(own));
    }
    SpanLog::Scope span(log_, "la", "kernels");
    const DenseKernelRates rates = MeasureDenseKernels(own_->features());
    (*values)["la.dot_gbps"] = rates.dot_gbps;
    (*values)["la.axpy_gbps"] = rates.axpy_gbps;
    (*values)["la.sqdist_gbps"] = rates.sqdist_gbps;
    return Status::OK();
  }

 private:
  /// Folds one RunKMeans job's measured worker stats into the totals.
  void AccountJob(const cluster::JobStats& job, double wall_s) {
    double slowest_drive = 0;
    uint64_t chunks = 0;
    for (const cluster::InstanceExecStats& instance : job.instance_exec) {
      slowest_drive =
          std::max(slowest_drive, instance.cached.drive_seconds +
                                      instance.spilled.drive_seconds);
      spill_refaults_ += instance.spill_refaults;
      chunks += instance.cached.chunks + instance.spilled.chunks;
      exec_stats_ += instance.cached;
      exec_stats_ += instance.spilled;
    }
    coord_seconds_ += wall_s - slowest_drive;
    // Per chunk a worker ships [inertia][k x d sums][k counts]; the parent
    // broadcasts [k][d][k x d centers] once per job.
    const double k = 5;
    const double d = data::kImageFeatures;
    shm_bytes_ += static_cast<double>(chunks) * (8 * (1 + k * d) + 8 * k) +
                  16 + 8 * k * d;
    ++iterations_;
  }

  std::string path_;
  std::unique_ptr<cluster::ProcessFleet> fleet_;
  std::optional<MappedDataset> own_;
  double fleet_budget_bytes_ = 1;
  std::vector<std::optional<KMeansOutcome>> results_;
  exec::PipelineStats exec_stats_;
  double coord_seconds_ = 0;
  uint64_t spill_refaults_ = 0;
  double shm_bytes_ = 0;
  size_t iterations_ = 0;
  double resident_peak_ = 0;
  double worker_peak_rss_mib_ = 0;
};

// ---------------------------------------------------------------------------
// The driver.
// ---------------------------------------------------------------------------

std::unique_ptr<Workload> MakeWorkload(const Config& config, SpanLog* log) {
  if (config.workload == "lr_inram") {
    return std::make_unique<DenseLrWorkload>(config, log, false);
  }
  if (config.workload == "lr_outofcore") {
    return std::make_unique<DenseLrWorkload>(config, log, true);
  }
  if (config.workload == "sparse_lr_outofcore") {
    return std::make_unique<SparseLrWorkload>(config, log);
  }
  if (config.workload == "kmeans_fleet") {
    return std::make_unique<FleetKMeansWorkload>(config, log);
  }
  return nullptr;
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string ResultJson(bool correct, size_t attempted, size_t failed,
                       const std::vector<Metric>& metrics) {
  std::string json = util::StrFormat(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
      correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a metric with no samples reads 0.
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    json += util::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                            i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                            metrics[i].unit.c_str());
  }
  return json + "}}";
}

int Run(const Config& config) {
  SpanLog log(config.trace);
  std::unique_ptr<Workload> workload = MakeWorkload(config, &log);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  if (Status st = io::MakeDirs(config.dir); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("workload %s\nseed %llu, %.0f s timed, trace %d\n",
              workload->Describe().c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);

  // Set-up, several times: the median is the reported set-up time.
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    SetupTimes times;
    util::Stopwatch watch;
    const Status status = workload->Setup(&times);
    times.total_s = watch.ElapsedSeconds();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setups.push_back(times);
  }
  auto setup_median = [&setups](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& s : setups) {
      values.push_back(s.*field);
    }
    return Median(values);
  };

  // The timed loop. A traced run alternates untraced and traced calls so
  // the two share the machine's state, and their ratio is the overhead.
  const Usage self_before = Usage::Self();
  const Usage children_before = Usage::Children();
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> iter_ms;
  size_t attempted = 0;
  size_t failed = 0;
  size_t passes = 0;
  util::Stopwatch loop;
  auto more = [&]() {
    const double elapsed = loop.ElapsedSeconds();
    if (attempted < kMinCalls) {
      return true;
    }
    if (elapsed >= kMaxSecondsFactor * config.seconds) {
      return false;
    }
    return elapsed < config.seconds ||
           (!config.trace && iter_ms.size() < kMinIterationSamples);
  };
  while (more()) {
    const bool traced = config.trace && attempted % 2 == 1;
    CallTimes times;
    const Status status = workload->Call(traced, &times);
    ++attempted;
    if (!status.ok()) {
      ++failed;
      std::fprintf(stderr, "call %zu failed: %s\n", attempted,
                   status.ToString().c_str());
      continue;
    }
    (traced ? traced_s : untraced_s).push_back(times.wall_s);
    if (!traced) {
      iter_ms.insert(iter_ms.end(), times.iter_ms.begin(),
                     times.iter_ms.end());
    }
    passes += times.passes;
  }
  const double loop_s = loop.ElapsedSeconds();
  if (Status st = workload->Stop(); !st.ok()) {
    std::fprintf(stderr, "stop: %s\n", st.ToString().c_str());
    ++failed;
  }
  const Usage self_delta = Usage::Self() - self_before;
  const Usage children_delta = Usage::Children() - children_before;
  const double peak_rss_mib =
      std::max(Usage::Self().max_rss_mib, workload->WorkerPeakRssMib());

  // Correctness gate: every successful call against the seed's reference.
  Result<size_t> mismatches = workload->CountMismatches();
  bool correct = mismatches.ok();
  if (!mismatches.ok()) {
    std::fprintf(stderr, "reference failed: %s\n",
                 mismatches.status().ToString().c_str());
  } else if (mismatches.value() > 0) {
    std::fprintf(stderr, "RESULT MISMATCH: %zu calls differ from the "
                 "reference\n", mismatches.value());
    failed += mismatches.value();
  }
  correct = correct && failed == 0;

  const double p90 = Quantile(iter_ms, 0.9);
  std::printf("\nend-to-end (untraced calls: %zu, iteration samples: %zu, "
              "%zu above p90)\n",
              untraced_s.size(), iter_ms.size(), CountAbove(iter_ms, p90));
  std::vector<Metric> end_to_end = {
      {"setup_s", setup_median(&SetupTimes::total_s), "s"},
      {"train_s", Median(untraced_s), "s"},
      {"iter_ms_p50", Quantile(iter_ms, 0.5), "ms"},
      {"iter_ms_p90", p90, "ms"},
      {"peak_rss_mib", peak_rss_mib, "MiB"},
  };
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(attempted);
  for (const Metric& metric : end_to_end) {
    std::printf("  %-14s %12.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-14s %12.4f fraction (%zu failed / %zu attempted)\n",
              "fail_ratio", fail_ratio, failed, attempted);

  if (!config.trace) {
    std::printf("%s\n", ResultJson(correct, attempted, failed, end_to_end)
                            .c_str());
    return correct ? 0 : 1;
  }

  // Traced run: per-layer metrics, the run's own spans, then the probes.
  LayerValues values;
  for (const LayerMetricInfo& info : kLayerMetrics) {
    values[info.name] = 0;
  }
  const double calls =
      std::max<double>(1, untraced_s.size() + traced_s.size());
  const double all_passes = std::max<double>(1, passes);
  const Usage usage = self_delta + children_delta;
  const double cpu_s = usage.user_s + usage.sys_s;
  values["io.minor_faults_per_pass"] =
      static_cast<double>(usage.minor_faults) / all_passes;
  values["io.major_faults_per_pass"] =
      static_cast<double>(usage.major_faults) / all_passes;
  values["core.cpu_util"] =
      cpu_s / (loop_s * std::max(1u, std::thread::hardware_concurrency()));
  values["core.sys_frac"] = cpu_s > 0 ? usage.sys_s / cpu_s : 0;
  values["data.generate_s"] = setup_median(&SetupTimes::generate_s);
  values["data.write_gbps"] =
      values["data.generate_s"] > 0
          ? static_cast<double>(setups.back().bytes_written) /
                values["data.generate_s"] / 1e9
          : 0;
  values["core.open_s"] = setup_median(&SetupTimes::open_s);
  values["cluster.spawn_s"] = setup_median(&SetupTimes::spawn_s);
  values["ml.evals_per_train"] = all_passes / calls;
  if (!traced_s.empty() && !untraced_s.empty()) {
    values["obs.trace_overhead"] = Median(traced_s) / Median(untraced_s) - 1;
  }
  const exec::PipelineStats exec_stats = workload->ExecStats();
  values["exec.chunks_per_pass"] =
      static_cast<double>(exec_stats.chunks) / all_passes;
  values["exec.hit_ratio"] = exec_stats.PrefetchHitRate();
  values["exec.stalls"] = static_cast<double>(exec_stats.stalls) / all_passes;
  values["exec.prefetch_claimed_gbps"] =
      exec_stats.prefetch_seconds > 0
          ? static_cast<double>(exec_stats.prefetch_bytes) /
                exec_stats.prefetch_seconds / 1e9
          : 0;

  // A probe that fails leaves its metric at 0 and says so; it does not
  // make the workload's results incorrect.
  auto record = [](const char* name, Result<double> value, LayerValues* out) {
    if (value.ok()) {
      (*out)[name] = value.value();
    } else {
      std::fprintf(stderr, "probe %s failed: %s\n", name,
                   value.status().ToString().c_str());
    }
  };
  if (Status st = workload->MeasureLayers(&values); !st.ok()) {
    std::fprintf(stderr, "layer metrics: %s\n", st.ToString().c_str());
  }
  // The io probes fault the data file in through mappings of their own, so
  // the workload's mappings (which would keep its pages) go first.
  const std::string data_path = workload->data_path();
  workload.reset();
  {
    SpanLog::Scope span(&log, "io", "probes");
    record("io.disk_read_gbps", DiskReadGbps(config.dir), &values);
    record("io.fault_us_per_page_cold", FaultMicrosPerPage(data_path, true),
           &values);
    record("io.fault_us_per_page_warm", FaultMicrosPerPage(data_path, false),
           &values);
    record("io.prefetch_gbps", PrefetchGbps(data_path), &values);
  }
  {
    SpanLog::Scope span(&log, "la", "stream");
    values["la.stream_gbps"] = StreamGbps();
  }
  if (!config.trace_out.empty()) {
    if (Status st = log.WriteChromeTrace(config.trace_out); !st.ok()) {
      std::fprintf(stderr, "trace not written: %s\n", st.ToString().c_str());
    } else {
      std::printf("\nspans: %zu written to %s\n", log.spans().size(),
                  config.trace_out.c_str());
    }
  }

  std::printf("\nper-layer (traced calls: %zu, untraced: %zu; hit ratio "
              "1.0 does not mean the reads were hidden: compare "
              "io.prefetch_gbps and the fault counts)\n",
              traced_s.size(), untraced_s.size());
  std::printf("  %-32s %12s %-8s  %-20s %-20s %s\n", "metric", "value",
              "unit", "moves", "on", "vs ceiling");
  std::vector<Metric> per_layer;
  for (const LayerMetricInfo& info : kLayerMetrics) {
    const double value = values[info.name];
    std::string ceiling;
    if (info.ceiling != nullptr && values[info.ceiling] > 0) {
      ceiling = util::StrFormat("%.1f%% of %s %.3f",
                                100.0 * value / values[info.ceiling],
                                info.ceiling, values[info.ceiling]);
    }
    std::printf("  %-32s %12.4f %-8s  %-20s %-20s %s\n", info.name, value,
                info.unit, info.moves, info.on, ceiling.c_str());
    per_layer.push_back({info.name, value, info.unit});
  }
  std::printf("%s\n",
              ResultJson(correct, attempted, failed, per_layer).c_str());
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Config config;
  int64_t seed = 1;
  int64_t trace = 0;
  util::FlagParser flags(
      "repository benchmark driver: one workload per process "
      "(lr_inram | lr_outofcore | sparse_lr_outofcore | kmeans_fleet)");
  flags.AddString("workload", &config.workload, "workload name");
  flags.AddInt64("seed", &seed, "input generator seed");
  flags.AddDouble("seconds", &config.seconds, "timed seconds");
  flags.AddInt64("trace", &trace, "1 = traced run (per-layer metrics)");
  flags.AddString("dir", &config.dir, "scratch directory for the inputs");
  flags.AddString("trace_out", &config.trace_out,
                  "traced run: write the spans here (Chrome trace JSON)");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    if (flags.help_requested()) {
      return 0;
    }
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (config.workload.empty() || config.dir.empty() || seed < 0 ||
      config.seconds <= 0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr, "invalid arguments\n%s",
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  config.seed = static_cast<uint64_t>(seed);
  config.trace = trace == 1;
  return Run(config);
}

}  // namespace
}  // namespace m3::perfbench

int main(int argc, char** argv) { return m3::perfbench::Main(argc, argv); }
