// Ablation: runtime as the emulated RAM budget shrinks relative to the
// dataset — the Fig. 1a mechanism viewed from the other axis. A fixed
// dataset is trained under budgets from 2x the data (no eviction at all)
// down to 1/8th (evicting almost everything each pass).

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t size_mb = 48;
  int64_t iterations = 5;
  std::string dir = "/tmp";
  bool csv = false;
  std::string trace;
  util::FlagParser flags("RAM-budget sweep over a fixed dataset");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations");
  flags.AddString("dir", &dir, "scratch directory");
  flags.AddBool("csv", &csv, "emit CSV");
  flags.AddString("trace", &trace,
                  "write a Chrome trace-event JSON of the run to this path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0], {{"size_mb", size_mb}, {"iterations", iterations}},
                          {}, &trace)) {
    return 1;
  }

  PrintPreamble("RAM-budget sweep (Fig. 1a mechanism, other axis)");
  TraceSession trace_session(trace);
  const std::string path = dir + "/m3_budget_sweep.m3";
  if (auto st =
          EnsureDataset(path, ImagesForMb(static_cast<uint64_t>(size_mb)));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  ml::LogisticRegressionOptions train_options;
  train_options.lbfgs = PaperLbfgsOptions();
  train_options.lbfgs.max_iterations = static_cast<size_t>(iterations);

  const uint64_t data_bytes = static_cast<uint64_t>(size_mb) << 20;
  util::TablePrinter table({"budget", "budget/data", "runtime_s",
                            "evicted_per_pass", "slowdown"});
  double baseline = 0;
  // 0 = unlimited, then 2x, 1x, 1/2, 1/4, 1/8 of the dataset.
  const double fractions[] = {0.0, 2.0, 1.0, 0.5, 0.25, 0.125};
  for (double fraction : fractions) {
    M3Options options;
    options.ram_budget_bytes =
        fraction == 0.0
            ? 0
            : static_cast<uint64_t>(fraction *
                                    static_cast<double>(data_bytes));
    auto dataset = MappedDataset::Open(path, options).ValueOrDie();
    M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
    util::Stopwatch watch;
    ml::OptimizationResult stats;
    auto model = TrainLogisticRegression(dataset, train_options, &stats);
    const double seconds = watch.ElapsedSeconds();
    if (!model.ok()) {
      std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
      return 1;
    }
    if (baseline == 0) {
      baseline = seconds;
    }
    uint64_t evicted_per_pass = 0;
    if (auto* budget = dataset.ram_budget();
        budget != nullptr && budget->passes() > 0) {
      evicted_per_pass = budget->bytes_evicted() / budget->passes();
    }
    table.AddRow(
        {fraction == 0.0 ? "unlimited"
                         : util::HumanBytes(options.ram_budget_bytes),
         fraction == 0.0 ? "-" : util::StrFormat("%.3f", fraction),
         util::StrFormat("%.3f", seconds),
         util::HumanBytes(evicted_per_pass),
         util::StrFormat("%.2fx", seconds / baseline)});
  }
  table.Print(stdout, csv);
  std::printf("\nexpectation: runtime is flat while budget >= data (zero "
              "eviction), then grows as the budget shrinks — the emulated "
              "version of crossing the paper's 32 GB boundary.\n");
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  return 0;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
