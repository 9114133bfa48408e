// §4 future work: "develop mathematical models and systematic approaches
// to profile and predict algorithm performance".
//
// Validates the measurement-calibrated PerfModel: train at the first size
// with the execution engine (repeating the training call until its passes
// hold at least kMinCalibrationDriveSeconds of drive time), fit every
// model parameter from the measured exec::PipelineStats
// (core/model_fit::FitFromStats — CPU cost, disk bandwidth, overlap
// efficiency), then predict the measured engine drive time of the
// remaining sizes and report the residuals. The fitted
// parameters and per-size residuals land in BENCH_perf_model.json; the
// run exits nonzero when the worst relative residual exceeds
// --max_residual, which is what lets the nightly job catch silent
// model/engine drift.
//
// Also prints the model's out-of-core knee for this machine's measured
// disk bandwidth (the analytic Fig. 1a).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "core/model_fit.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

/// The calibration size repeats whole training calls until its pipeline
/// has driven at least this much wall time, so the fit rests on a
/// measurable interval however few passes one call costs.
constexpr double kMinCalibrationDriveSeconds = 0.25;

int Run(int argc, char** argv) {
  std::string sizes_csv = "8,16,32,64";
  int64_t iterations = 5;
  std::string dir = "/tmp";
  bool csv = false;
  double max_residual = 0.75;
  std::string trace;
  util::FlagParser flags(
      "PerfModel calibration from measured PipelineStats: fitted "
      "parameters, predicted vs measured drive time, residual gate");
  flags.AddString("sizes_mb", &sizes_csv,
                  "comma-separated sizes in MiB (first = calibration "
                  "workload)");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations");
  flags.AddString("dir", &dir, "scratch directory (JSON lands here too)");
  flags.AddBool("csv", &csv, "emit CSV");
  flags.AddString("trace", &trace,
                  "write a Chrome trace-event JSON of the run to this path");
  flags.AddDouble("max_residual", &max_residual,
                  "fail (exit 1) when the worst relative residual "
                  "exceeds this fraction");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0], {{"iterations", iterations}},
                          {}, &trace)) {
    return 1;
  }
  if (max_residual <= 0) {
    return UsageError(flags, argv[0], "--max_residual must be positive");
  }

  PrintPreamble("Performance model calibration (measured PipelineStats)");
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

  ml::LogisticRegressionOptions options;
  options.lbfgs = PaperLbfgsOptions();
  options.lbfgs.max_iterations = static_cast<size_t>(iterations);

  // Measure warm, in-RAM engine runs: every training pass is driven by
  // the dataset's ChunkPipeline, so the per-stage seconds the fit needs
  // accumulate in its PipelineStats. Warm isolates the CPU term — on a
  // cold run stalled chunks serve page faults inside the compute functor.
  struct Measurement {
    uint64_t size_mb = 0;
    uint64_t bytes = 0;
    exec::PipelineStats stats;
  };
  std::vector<Measurement> measured;
  const std::string path = dir + "/m3_perfmodel.m3";
  for (uint64_t size_mb : sizes_mb) {
    if (auto st = EnsureDataset(path, ImagesForMb(size_mb)); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    auto dataset = MappedDataset::Open(path).ValueOrDie();
    dataset.mapping().TouchAllPages();  // warm: isolate the CPU term
    const bool calibrating = measured.empty();
    size_t calls = 0;
    do {
      auto model = TrainLogisticRegression(dataset, options);
      if (!model.ok()) {
        std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
        return 1;
      }
      ++calls;
    } while (calibrating && dataset.pipeline().stats().drive_seconds <
                                kMinCalibrationDriveSeconds);
    Measurement m;
    m.size_mb = size_mb;
    m.bytes = dataset.feature_bytes();
    m.stats = dataset.pipeline().stats();
    if (calibrating) {
      std::printf("calibration: %zu training calls, %llu passes, %.3f s "
                  "drive (at least %.2f s)\n",
                  calls, static_cast<unsigned long long>(m.stats.passes),
                  m.stats.drive_seconds, kMinCalibrationDriveSeconds);
    }
    measured.push_back(m);
  }
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");

  // Calibrate on the smallest size only; predict the rest.
  FitOptions fit_options;
  fit_options.fallback_disk_bytes_per_sec =
      disk.sequential_read_bytes_per_sec;
  fit_options.ram_bytes = util::TotalRamBytes();
  fit_options.fit_pass_overhead = true;
  auto fit = FitFromStats(
      measured[0].stats,
      measured[0].stats.passes * measured[0].bytes, fit_options);
  if (!fit.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }
  const ModelFitResult& calibration = fit.value();
  const PerfModel model(calibration.params);
  std::printf("calibrated: %s\n", calibration.ToString().c_str());

  JsonReporter reporter("perf_model");
  reporter.Add(
      "fit", calibration.measured_seconds, measured[0].stats, {},
      {{"cpu_seconds_per_byte", calibration.params.cpu_seconds_per_byte},
       {"disk_read_bytes_per_sec",
        calibration.params.disk_read_bytes_per_sec},
       {"overlap_efficiency", calibration.params.overlap_efficiency},
       {"pass_overhead_seconds",
        calibration.params.pass_overhead_seconds},
       {"overlap_raw", calibration.overlap_raw},
       {"stall_byte_fraction", calibration.stall_byte_fraction},
       {"self_residual_seconds", calibration.residual_seconds},
       {"self_relative_residual", calibration.relative_residual}});

  // Predicted vs measured engine drive time per size. Warm in-RAM runs:
  // the model charges the CPU term plus per-pass overhead (no misses).
  util::TablePrinter table(
      {"size_mib", "passes", "measured_s", "predicted_s", "residual"});
  double worst_residual = 0;
  for (const Measurement& m : measured) {
    const double measured_seconds = m.stats.drive_seconds;
    const double predicted =
        model.PredictPass(m.bytes).seconds *
        static_cast<double>(m.stats.passes);
    const double residual =
        std::fabs(predicted - measured_seconds) / measured_seconds;
    worst_residual = std::max(worst_residual, residual);
    table.AddRow(
        {util::StrFormat("%llu",
                         static_cast<unsigned long long>(m.size_mb)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(m.stats.passes)),
         util::StrFormat("%.3f", measured_seconds),
         util::StrFormat("%.3f", predicted),
         util::StrFormat("%.0f%%", residual * 100)});
    reporter.Add(util::StrFormat(
                     "size_%llu_mb",
                     static_cast<unsigned long long>(m.size_mb)),
                 measured_seconds, m.stats, {},
                 {{"predicted_seconds", predicted},
                  {"residual_seconds", predicted - measured_seconds},
                  {"relative_residual", residual}});
  }
  table.Print(stdout, csv);
  std::printf(
      "worst relative residual: %.0f%% (gate: %.0f%%) — calibrated on "
      "the %llu MiB workload, extrapolated to the rest\n",
      worst_residual * 100, max_residual * 100,
      static_cast<unsigned long long>(measured[0].size_mb));

  // Analytic knee for this machine, under the fitted parameters.
  std::printf("\n-- analytic Fig. 1a for THIS machine (RAM %s, fitted "
              "model) --\n",
              util::HumanBytes(calibration.params.ram_bytes).c_str());
  std::vector<uint64_t> sweep_sizes;
  for (uint64_t fraction = 1; fraction <= 16; fraction *= 2) {
    sweep_sizes.push_back(calibration.params.ram_bytes / 8 * fraction);
  }
  util::TablePrinter knee({"size", "predicted_s", "regime", "cpu_util"});
  for (const SweepPoint& p :
       PredictSweep(model, sweep_sizes, measured[0].stats.passes)) {
    knee.AddRow({util::HumanBytes(p.dataset_bytes),
                 util::StrFormat("%.1f", p.predicted_seconds),
                 p.out_of_core ? "out-of-core" : "in-RAM",
                 util::StrFormat("%.0f%%", p.cpu_utilization * 100)});
  }
  knee.Print(stdout, csv);

  const util::Status json = reporter.Write(dir);
  if (!json.ok()) {
    std::fprintf(stderr, "bench JSON not written: %s\n",
                 json.ToString().c_str());
  }
  if (worst_residual > max_residual) {
    std::fprintf(stderr,
                 "FAIL: residual %.0f%% exceeds --max_residual %.0f%% — "
                 "the calibrated model no longer predicts the engine\n",
                 worst_residual * 100, max_residual * 100);
    return 1;
  }
  return json.ok() ? 0 : 1;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
