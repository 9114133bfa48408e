// Figure 1a: "M3 runtime scales linearly with data size, when data fits in
// or exceeds RAM" — logistic regression, 10 iterations of L-BFGS.
//
// Two views are produced:
//   1. MEASURED at laptop scale: a sweep of dataset sizes trained under an
//      emulated RAM budget (madvise/fadvise eviction behind the scan).
//      The paper's 32 GB boundary becomes --budget_mb.
//   2. PROJECTED at paper scale: the PerfModel calibrated from the
//      measured in-budget runs and the probed disk bandwidth, evaluated at
//      10..190 GB with 32 GB RAM (the paper's x-axis).
//
// Success criterion (EXPERIMENTS.md): both segments linear; slope break at
// the budget; out-of-core slope steeper; low CPU utilization out-of-core.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "io/io_stats.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

struct MeasuredPoint {
  uint64_t size_mb = 0;
  double seconds = 0;
  double cpu_utilization = 0;
  uint64_t passes = 0;
  uint64_t evicted_bytes = 0;
  bool out_of_core = false;
};

int Run(int argc, char** argv) {
  std::string sizes_csv = "16,32,48,64,80,96";
  int64_t budget_mb = 48;
  int64_t iterations = 10;
  std::string dir = "/tmp";
  bool csv = false;
  std::string trace;
  util::FlagParser flags(
      "Fig. 1a: L-BFGS logistic regression runtime vs dataset size");
  flags.AddString("sizes_mb", &sizes_csv, "comma-separated sizes in MiB");
  flags.AddInt64("budget_mb", &budget_mb, "emulated RAM budget (MiB)");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations");
  flags.AddString("dir", &dir, "scratch directory");
  flags.AddBool("csv", &csv, "emit CSV instead of aligned tables");
  flags.AddString("trace", &trace,
                  "write a Chrome trace-event JSON of the run to this path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0], {{"budget_mb", budget_mb}, {"iterations", iterations}},
                          {}, &trace)) {
    return 1;
  }

  PrintPreamble("Figure 1a: runtime vs dataset size (L-BFGS LR)");
  TraceSession trace_session(trace);
  const io::DiskProbeResult disk = ProbeAndPrint(dir, 32ull << 20);

  std::vector<uint64_t> sizes_mb;
  for (const auto& token : util::StrSplit(sizes_csv, ',')) {
    auto parsed = util::ParseInt64(token);
    if (!parsed.ok() || parsed.value() <= 0) {
      std::fprintf(stderr, "bad size '%s'\n", token.c_str());
      return 1;
    }
    sizes_mb.push_back(static_cast<uint64_t>(parsed.value()));
  }

  ml::LogisticRegressionOptions train_options;
  train_options.lbfgs = PaperLbfgsOptions();
  train_options.lbfgs.max_iterations = static_cast<size_t>(iterations);

  std::vector<MeasuredPoint> points;
  const std::string path = dir + "/m3_fig1a.m3";
  for (uint64_t size_mb : sizes_mb) {
    const uint64_t images = ImagesForMb(size_mb);
    if (auto st = EnsureDataset(path, images); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    M3Options options;
    options.ram_budget_bytes = static_cast<uint64_t>(budget_mb) << 20;
    auto dataset = MappedDataset::Open(path, options);
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    // cold cache, like the paper
    M3_IGNORE_STATUS(dataset.value().EvictAll(),
                     "best-effort cold-start evict");

    io::ResourceSample before = io::ResourceSample::Now();
    util::Stopwatch watch;
    ml::OptimizationResult stats;
    auto model =
        TrainLogisticRegression(dataset.value(), train_options, &stats);
    const double seconds = watch.ElapsedSeconds();
    io::ResourceSample delta = io::ResourceSample::Now() - before;
    if (!model.ok()) {
      std::fprintf(stderr, "train: %s\n", model.status().ToString().c_str());
      return 1;
    }
    MeasuredPoint point;
    point.size_mb = size_mb;
    point.seconds = seconds;
    point.cpu_utilization = delta.CpuUtilization(util::NumCpus());
    point.passes = stats.function_evaluations;
    point.out_of_core =
        (size_mb << 20) > static_cast<uint64_t>(budget_mb) << 20;
    point.evicted_bytes = dataset.value().pipeline().stats().bytes_evicted;
    points.push_back(point);
    std::printf("  %4llu MiB: %8.2fs  (%llu passes, cpu %.0f%%, %s)\n",
                static_cast<unsigned long long>(size_mb), seconds,
                static_cast<unsigned long long>(point.passes),
                point.cpu_utilization * 100,
                point.out_of_core ? "out-of-core" : "in-budget");
  }
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");

  // ---- Measured table -----------------------------------------------------
  std::printf("\n-- measured (budget = %lld MiB) --\n",
              static_cast<long long>(budget_mb));
  util::TablePrinter table({"size_mib", "runtime_s", "s_per_mib", "passes",
                            "cpu_util", "evicted", "regime"});
  for (const MeasuredPoint& p : points) {
    table.AddRow({util::StrFormat("%llu",
                                  static_cast<unsigned long long>(p.size_mb)),
                  util::StrFormat("%.3f", p.seconds),
                  util::StrFormat("%.4f",
                                  p.seconds / static_cast<double>(p.size_mb)),
                  util::StrFormat("%llu",
                                  static_cast<unsigned long long>(p.passes)),
                  util::StrFormat("%.0f%%", p.cpu_utilization * 100),
                  util::HumanBytes(p.evicted_bytes),
                  p.out_of_core ? "out-of-core" : "in-budget"});
  }
  table.Print(stdout, csv);

  // Linearity check within each regime (paper: both segments linear).
  auto slope = [&](bool out_of_core) -> double {
    const MeasuredPoint* first = nullptr;
    const MeasuredPoint* last = nullptr;
    for (const MeasuredPoint& p : points) {
      if (p.out_of_core == out_of_core) {
        if (first == nullptr) {
          first = &p;
        }
        last = &p;
      }
    }
    if (first == nullptr || last == first) {
      return 0.0;
    }
    return (last->seconds - first->seconds) /
           static_cast<double>(last->size_mb - first->size_mb);
  };
  const double in_slope = slope(false);
  const double out_slope = slope(true);
  std::printf("\nslopes: in-budget %.4f s/MiB, out-of-core %.4f s/MiB "
              "(ratio %.2fx; paper expects > 1 out-of-core)\n",
              in_slope, out_slope,
              in_slope > 0 ? out_slope / in_slope : 0.0);

  // ---- Paper-scale projection --------------------------------------------
  // Calibrate CPU cost from the largest in-budget run (warm steady state).
  double cpu_seconds_per_byte = 0;
  for (const MeasuredPoint& p : points) {
    if (!p.out_of_core) {
      cpu_seconds_per_byte = PerfModel::FitCpuSecondsPerByte(
          p.seconds, p.size_mb << 20, p.passes);
    }
  }
  if (cpu_seconds_per_byte == 0 && !points.empty()) {
    cpu_seconds_per_byte = PerfModel::FitCpuSecondsPerByte(
        points[0].seconds, points[0].size_mb << 20, points[0].passes);
  }
  PerfModelParams params;
  params.cpu_seconds_per_byte = cpu_seconds_per_byte;
  params.disk_read_bytes_per_sec = 1e9;  // the paper's RevoDrive 350
  params.ram_bytes = 32ull << 30;        // the paper's machine
  PerfModel model(params);
  std::printf("\n-- projected to the paper's machine (32 GB RAM, 1 GB/s "
              "SSD; cpu fit %.3g s/B; local disk measured %s/s) --\n",
              cpu_seconds_per_byte,
              util::HumanBytes(static_cast<uint64_t>(
                                   disk.sequential_read_bytes_per_sec))
                  .c_str());
  std::vector<uint64_t> paper_sizes;
  for (uint64_t gb : {10ull, 40ull, 70ull, 100ull, 130ull, 160ull, 190ull}) {
    paper_sizes.push_back(gb << 30);
  }
  // The paper plots 10 iterations of L-BFGS; use the measured pass count
  // per iteration from the laptop runs for a like-for-like projection.
  const size_t passes =
      points.empty() ? 10 : static_cast<size_t>(points.back().passes);
  util::TablePrinter projection(
      {"size_gb", "predicted_s", "regime", "pred_cpu_util"});
  for (const SweepPoint& p : PredictSweep(model, paper_sizes, passes)) {
    projection.AddRow(
        {util::StrFormat("%llu", static_cast<unsigned long long>(
                                     p.dataset_bytes >> 30)),
         util::StrFormat("%.0f", p.predicted_seconds),
         p.out_of_core ? "out-of-core" : "in-RAM",
         util::StrFormat("%.0f%%", p.cpu_utilization * 100)});
  }
  projection.Print(stdout, csv);
  std::printf("(paper Fig. 1a anchors: ~10G in-RAM near the origin; 190G "
              "out-of-core ~2000s with ~13%% CPU)\n");
  return 0;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
