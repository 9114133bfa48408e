#ifndef M3_BENCH_BENCH_COMMON_H_
#define M3_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/m3.h"
#include "data/dataset.h"
#include "data/infimnist.h"
#include "exec/pipeline_stats.h"
#include "io/disk_probe.h"
#include "io/file.h"
#include "io/platform.h"
#include "obs/trace_session.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/sys_info.h"

namespace m3::bench {

/// \brief Prints the standard bench preamble (host + platform caps).
inline void PrintPreamble(const char* title) {
  std::printf("=== %s ===\n", title);
  std::printf("host: %s\n", util::SysInfoString().c_str());
  std::printf("platform: %s\n",
              io::GetPlatformCapabilities().ToString().c_str());
}

/// \brief Prints `message` plus the full usage text to stderr and returns
/// the nonzero exit code, so a bench main can `return UsageError(...)` on a
/// malformed command line instead of running a half-configured sweep.
inline int UsageError(const util::FlagParser& flags, const char* argv0,
                      const std::string& message) {
  std::fprintf(stderr, "error: %s\n\n%s", message.c_str(),
               flags.Usage(argv0).c_str());
  return 1;
}

/// \brief Post-Parse() validation every bench main runs.
///
/// The value parsers already reject non-numeric text ("--workers=abc");
/// this enforces the invariants they cannot see:
///   - each (name, value) in `positive` parsed to > 0 — a zero-MiB
///     dataset or zero-iteration sweep would "succeed" while measuring
///     nothing,
///   - each (name, value) in `non_negative` parsed to >= 0,
///   - an explicitly passed --trace has a non-empty path (`--trace=`
///     would silently run untraced and CI would miss the artifact).
/// On violation prints the offending flag plus usage and returns false;
/// the caller exits nonzero.
inline bool ValidateBenchFlags(
    const util::FlagParser& flags, const char* argv0,
    std::initializer_list<std::pair<const char*, int64_t>> positive,
    std::initializer_list<std::pair<const char*, int64_t>> non_negative = {},
    const std::string* trace = nullptr) {
  for (const auto& [name, value] : positive) {
    if (value <= 0) {
      UsageError(flags, argv0,
                 util::StrFormat("--%s must be positive (got %lld)", name,
                                 static_cast<long long>(value)));
      return false;
    }
  }
  for (const auto& [name, value] : non_negative) {
    if (value < 0) {
      UsageError(flags, argv0,
                 util::StrFormat("--%s must be >= 0 (got %lld)", name,
                                 static_cast<long long>(value)));
      return false;
    }
  }
  if (trace != nullptr && flags.was_set("trace") && trace->empty()) {
    UsageError(flags, argv0, "--trace needs a non-empty path");
    return false;
  }
  return true;
}

/// \brief Generates (or reuses) a binary-label InfiMNIST-style dataset of
/// `images` images at `path`; prints progress.
inline util::Status EnsureDataset(const std::string& path, uint64_t images,
                                  bool binary_labels = true,
                                  uint64_t seed = 2016) {
  const uint64_t want_bytes =
      data::kImageFeatures * sizeof(double) * images;
  if (io::FileExists(path)) {
    auto meta = data::ReadDatasetMeta(path);
    if (meta.ok() && meta.value().rows == images &&
        meta.value().FeatureBytes() == want_bytes) {
      std::printf("reusing dataset %s (%s)\n", path.c_str(),
                  util::HumanBytes(want_bytes).c_str());
      return util::Status::OK();
    }
  }
  std::printf("generating %llu images (%s) -> %s\n",
              static_cast<unsigned long long>(images),
              util::HumanBytes(want_bytes).c_str(), path.c_str());
  util::Stopwatch watch;
  M3_RETURN_IF_ERROR(
      data::GenerateInfimnistDataset(path, images, seed, binary_labels));
  std::printf("  generated in %s\n",
              util::HumanDuration(watch.ElapsedSeconds()).c_str());
  return util::Status::OK();
}

/// \brief Number of images whose dense double matrix occupies `mb` MiB.
inline uint64_t ImagesForMb(uint64_t mb) {
  return (mb << 20) / (data::kImageFeatures * sizeof(double));
}

/// \brief The engine stats of everything `dataset` has scanned since it
/// was opened: its pipeline's PipelineStats with the RAM-budget
/// emulator's evictions added, since under a sequential scan the emulator,
/// not the pipeline, evicts behind the scan.
inline exec::PipelineStats DatasetStats(MappedDataset& dataset) {
  exec::PipelineStats stats = dataset.pipeline().stats();
  if (const RamBudgetEmulator* budget = dataset.ram_budget();
      budget != nullptr) {
    stats.evictions += budget->evictions();
    stats.bytes_evicted += budget->bytes_evicted();
  }
  return stats;
}

/// \brief Machine-readable bench output: one BENCH_<name>.json per bench.
///
/// Every measured configuration is recorded with its wall seconds and the
/// PipelineStats of the pipelines it ran, then written as a single JSON
/// document so CI can track the perf trajectory across PRs without
/// scraping tables:
///
///   {"bench": "sgd_overlap", "cases": [
///     {"name": "pipelined", "seconds": 1.234,
///      "exec": {"passes": 3, ..., "prefetch_hits": 40, "stalls": 2}}]}
class JsonReporter {
 public:
  explicit JsonReporter(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Records one measured configuration. Case names are escaped, so any
  /// string is safe; `extra` appends bench-specific integer fields and
  /// `extra_doubles` real-valued ones (fit residuals, calibrated
  /// constants) to the case object. A non-finite `seconds` or extra
  /// double poisons the reporter: Write() refuses to emit an unparseable
  /// file and returns the error instead. The "exec" object is
  /// exec::PipelineStats::ToJson(), the one serialization of pipeline
  /// stats; a case that ran no pipeline passes `exec::PipelineStats()`.
  void Add(const std::string& case_name, double seconds,
           const exec::PipelineStats& stats,
           const std::vector<std::pair<std::string, uint64_t>>& extra = {},
           const std::vector<std::pair<std::string, double>>& extra_doubles =
               {}) {
    auto number = util::JsonNumber(seconds);
    if (!number.ok()) {
      if (first_error_.ok()) {
        first_error_ =
            number.status().WithContext("case '" + case_name + "'");
      }
      return;
    }
    std::string body = util::StrFormat(
        "{\"name\": \"%s\", \"seconds\": %s, \"exec\": %s",
        util::JsonEscape(case_name).c_str(), number.value().c_str(),
        stats.ToJson().c_str());
    for (const auto& [key, value] : extra) {
      body += util::StrFormat(", \"%s\": %llu",
                              util::JsonEscape(key).c_str(),
                              static_cast<unsigned long long>(value));
    }
    for (const auto& [key, value] : extra_doubles) {
      auto rendered = util::JsonNumber(value);
      if (!rendered.ok()) {
        if (first_error_.ok()) {
          first_error_ = rendered.status().WithContext(
              "case '" + case_name + "' field '" + key + "'");
        }
        return;
      }
      body += util::StrFormat(", \"%s\": %s",
                              util::JsonEscape(key).c_str(),
                              rendered.value().c_str());
    }
    body += "}";
    cases_.push_back(std::move(body));
  }

  /// Writes BENCH_<bench_name>.json under `dir` and prints the path.
  /// Fails without writing if any recorded case was invalid.
  util::Status Write(const std::string& dir = ".") {
    M3_RETURN_IF_ERROR(first_error_);
    std::string body =
        util::StrFormat("{\"bench\": \"%s\", \"cases\": [",
                        util::JsonEscape(bench_name_).c_str());
    for (size_t i = 0; i < cases_.size(); ++i) {
      if (i > 0) {
        body += ", ";
      }
      body += cases_[i];
    }
    body += "]}\n";
    const std::string path = dir + "/BENCH_" + bench_name_ + ".json";
    M3_RETURN_IF_ERROR(io::WriteStringToFile(path, body));
    std::printf("wrote %s\n", path.c_str());
    return util::Status::OK();
  }

 private:
  std::string bench_name_;
  std::vector<std::string> cases_;  ///< rendered JSON objects, add order
  util::Status first_error_ = util::Status::OK();
};

/// \brief RAII wrapper for a bench's --trace flag: starts the global
/// trace session when `path` is non-empty, writes the trace on scope
/// exit. Construct it before the measured work; an empty path makes it a
/// complete no-op.
class TraceSession {
 public:
  explicit TraceSession(std::string path) : path_(std::move(path)) {
    if (!path_.empty()) {
      obs::StartGlobalTrace(path_);
    }
  }

  ~TraceSession() {
    if (path_.empty()) {
      return;
    }
    const util::Status status = obs::StopGlobalTraceAndWrite();
    if (status.ok()) {
      std::printf("wrote trace %s\n", path_.c_str());
    } else {
      std::printf("trace write failed: %s\n", status.ToString().c_str());
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
};

/// \brief Probes the disk under `dir` once and prints the result.
inline io::DiskProbeResult ProbeAndPrint(const std::string& dir,
                                         uint64_t probe_bytes = 64ull << 20) {
  auto probe = io::ProbeDisk(dir, probe_bytes);
  if (!probe.ok()) {
    std::printf("disk probe failed (%s); assuming 1 GB/s\n",
                probe.status().ToString().c_str());
    io::DiskProbeResult fallback;
    fallback.sequential_read_bytes_per_sec = 1e9;
    fallback.sequential_write_bytes_per_sec = 1e9;
    fallback.random_read_latency_sec = 1e-4;
    return fallback;
  }
  std::printf("disk: seq read %s/s, seq write %s/s, rand 4K %.0f us\n",
              util::HumanBytes(static_cast<uint64_t>(
                                   probe.value().sequential_read_bytes_per_sec))
                  .c_str(),
              util::HumanBytes(
                  static_cast<uint64_t>(
                      probe.value().sequential_write_bytes_per_sec))
                  .c_str(),
              probe.value().random_read_latency_sec * 1e6);
  return probe.value();
}

}  // namespace m3::bench

#endif  // M3_BENCH_BENCH_COMMON_H_
