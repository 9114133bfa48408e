// Serial vs pipelined logistic-regression epochs under a constrained RAM
// budget. The serial configuration faults every chunk in synchronously
// (readahead disabled, kRandom advice so the kernel does not prefetch
// either); the pipelined configurations overlap readahead of chunk i+1
// with compute on chunk i — one row per prefetch backend (madvise WILLNEED
// / pread page-cache warming), since on filesystems where WILLNEED is a
// silent no-op only the explicit-read backend actually overlaps. All
// configurations evict behind the scan under the same budget, so each pass
// re-reads the evicted bytes from storage — the out-of-core regime where
// overlap pays — and all must produce bitwise-identical weights: backends
// move bytes, never values.

#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "io/io_stats.h"
#include "io/prefetch_backend.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

struct EpochResult {
  double seconds = 0;
  exec::PipelineStats stats;
  io::ResourceSample usage;
  std::vector<double> weights;  ///< trained weights (bitwise comparison)
  bool trained = false;         ///< training succeeded; weights are valid
};

EpochResult RunConfig(const std::string& path, const M3Options& options,
                      size_t iterations) {
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();
  // cold start: first pass reads from storage
  M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
  ml::LogisticRegressionOptions train_options;
  train_options.lbfgs = PaperLbfgsOptions();
  train_options.lbfgs.max_iterations = iterations;
  const io::ResourceSample before = io::ResourceSample::Now();
  util::Stopwatch watch;
  auto model = TrainLogisticRegression(dataset, train_options);
  EpochResult result;
  result.seconds = watch.ElapsedSeconds();
  result.usage = io::ResourceSample::Now() - before;
  result.stats = dataset.pipeline().stats();
  if (!model.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 model.status().ToString().c_str());
  } else {
    result.trained = true;
    result.weights = model.value().weights.values();
    result.weights.push_back(model.value().intercept);
  }
  return result;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

int Run(int argc, char** argv) {
  int64_t size_mb = 96;
  int64_t budget_percent = 25;
  int64_t iterations = 3;
  int64_t readahead = 4;
  int64_t workers = 2;
  std::string dir = "/tmp";
  std::string backend = "all";
  std::string trace;
  bool csv = false;
  util::FlagParser flags(
      "serial vs pipelined out-of-core logistic-regression epochs");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB");
  flags.AddInt64("budget_percent", &budget_percent,
                 "RAM budget as percent of the dataset");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations per config");
  flags.AddInt64("readahead", &readahead,
                 "pipelined configuration readahead chunks");
  flags.AddInt64("workers", &workers,
                 "pipelined configuration engine workers");
  flags.AddString("dir", &dir, "scratch directory");
  flags.AddString("backend", &backend,
                  "prefetch backend to compare: all|madvise|pread");
  flags.AddString("trace", &trace,
                  "write a Chrome trace-event JSON of the run to this path");
  flags.AddBool("csv", &csv, "emit CSV");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0], {{"size_mb", size_mb}, {"budget_percent", budget_percent}, {"iterations", iterations}, {"readahead", readahead}},
                          {{"workers", workers}}, &trace)) {
    return 1;
  }

  PrintPreamble("pipeline overlap: serial vs prefetch/evict-overlapped");
  // The trace session wraps every configuration below; each dataset also
  // carries the path in its options so MappedDataset::Open registers its
  // mapping with the residency sampler.
  TraceSession trace_session(trace);
  const std::string path = dir + "/m3_pipeline_overlap.m3";
  if (auto st =
          EnsureDataset(path, ImagesForMb(static_cast<uint64_t>(size_mb)));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  const uint64_t budget_bytes =
      (static_cast<uint64_t>(size_mb) << 20) *
      static_cast<uint64_t>(budget_percent) / 100;
  std::printf("budget: %s (%lld%% of data) — every pass re-reads the "
              "evicted remainder\n\n",
              util::HumanBytes(budget_bytes).c_str(),
              static_cast<long long>(budget_percent));

  // Serial: no readahead, kRandom defeats kernel readahead so chunk
  // faults are truly synchronous — disk idles while we compute.
  M3Options serial_options;
  serial_options.ram_budget_bytes = budget_bytes;
  serial_options.readahead_chunks = 0;
  serial_options.pipeline_workers = 0;
  serial_options.advice = io::Advice::kRandom;
  serial_options.trace_path = trace;

  // One pipelined configuration per prefetch backend; identical except for
  // how the readahead I/O is issued.
  std::vector<io::PrefetchBackendKind> backends;
  if (backend == "all") {
    backends = {io::PrefetchBackendKind::kMadvise,
                io::PrefetchBackendKind::kPread};
  } else {
    auto parsed = io::ParsePrefetchBackendKind(backend);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
      return 1;
    }
    backends.push_back(parsed.value());
  }

  const EpochResult serial =
      RunConfig(path, serial_options, static_cast<size_t>(iterations));

  util::TablePrinter table({"config", "epochs_s", "read", "major_faults",
                            "prefetches", "stalls", "submits", "fallbacks",
                            "evicted"});
  auto add_row = [&](const std::string& name, const EpochResult& r) {
    table.AddRow({name, util::StrFormat("%.3f", r.seconds),
                  util::HumanBytes(r.usage.io.read_bytes),
                  util::StrFormat("%lld",
                                  static_cast<long long>(r.usage.faults.major)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              r.stats.prefetches)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              r.stats.stalls)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              r.stats.backend_submits)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              r.stats.backend_fallbacks)),
                  util::HumanBytes(r.stats.bytes_evicted)});
  };
  add_row("serial", serial);

  JsonReporter reporter("pipeline_overlap");
  reporter.Add("serial", serial.seconds, serial.stats);

  double best_seconds = 0;
  std::string best_name;
  bool all_bitwise_identical = true;
  bool any_training_failed = !serial.trained;
  for (const io::PrefetchBackendKind kind : backends) {
    M3Options pipelined_options;
    pipelined_options.ram_budget_bytes = budget_bytes;
    pipelined_options.readahead_chunks = static_cast<uint64_t>(readahead);
    pipelined_options.pipeline_workers = static_cast<uint64_t>(workers);
    pipelined_options.advice = io::Advice::kSequential;
    pipelined_options.prefetch_backend = kind;
    pipelined_options.trace_path = trace;
    const EpochResult result =
        RunConfig(path, pipelined_options, static_cast<size_t>(iterations));
    const std::string name =
        "pipelined_" + std::string(io::PrefetchBackendKindToString(kind));
    add_row(name, result);
    reporter.Add(name, result.seconds, result.stats);
    // A failed run is an I/O/training error, not a determinism verdict:
    // only runs that actually trained get their bits compared.
    if (!result.trained) {
      any_training_failed = true;
    } else if (serial.trained &&
               !BitwiseEqual(result.weights, serial.weights)) {
      all_bitwise_identical = false;
      std::fprintf(stderr,
                   "DETERMINISM VIOLATION: %s weights differ from serial\n",
                   name.c_str());
    }
    if (best_name.empty() || result.seconds < best_seconds) {
      best_seconds = result.seconds;
      best_name = name;
    }
  }
  table.Print(stdout, csv);
  if (any_training_failed) {
    std::printf("weights comparison INCOMPLETE: some configs failed to "
                "train (see stderr)\n");
  } else {
    std::printf("weights bitwise identical across all configs: %s\n",
                all_bitwise_identical ? "yes" : "NO");
  }
  if (util::Status json = reporter.Write(dir); !json.ok()) {
    std::fprintf(stderr, "bench JSON not written: %s\n",
                 json.ToString().c_str());
  }

  const double improvement =
      serial.seconds > 0
          ? (serial.seconds - best_seconds) / serial.seconds * 100.0
          : 0.0;
  std::printf("\nbest pipelined config (%s) is %.1f%% %s than serial "
              "(target: >= 15%% faster when the budget forces "
              "out-of-core behavior)\n",
              best_name.c_str(), std::abs(improvement),
              improvement >= 0 ? "faster" : "slower");
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  return (all_bitwise_identical && !any_training_failed) ? 0 : 1;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
