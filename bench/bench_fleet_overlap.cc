// The real process fleet against the calibrated cost model. Where
// bench_cluster_overlap measures per-partition pipelines inside ONE
// process, this bench forks cluster::ProcessFleet workers — each with its
// own mmap of the shard, genuinely competing for the machine's page cache
// — and checks three things:
//
//   1. DETERMINISM: the fleet's trained weights are bitwise identical to
//      the in-process simulator's under the same config (the fold order
//      and kernels are shared; only the process boundary differs).
//   2. MODEL FIT: the cost model is first CALIBRATED from a measured
//      simulator run (ClusterConfig::CalibrateFromMeasured), then the
//      fleet runs under the calibrated config and its measured execution
//      seconds are compared against the model's prediction — the
//      predicted-vs-measured residual per job lands in
//      BENCH_fleet_overlap.json.
//   3. RESIDENCY + STALLS: per-worker prefetch hit/stall counts cross the
//      shm boundary (PipelineStats::ToJson) and are reported next to the
//      dataset's page residency after the fleet run.
//
// Fork safety: the fleet is spawned BEFORE the parent's TraceSession — the
// session starts a sampler thread, and ProcessFleet::Spawn must fork a
// single-threaded parent. Worker traces go to --worker_trace_dir.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"
#include "cluster/process_fleet.h"
#include "cluster/spark_cluster.h"
#include "core/m3.h"
#include "la/blas.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

ml::LbfgsOptions FleetLbfgs(size_t iterations) {
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = iterations;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;
  return lbfgs;
}

int Run(int argc, char** argv) {
  int64_t size_mb = 64;
  int64_t budget_percent = 50;
  int64_t fleet = 2;
  int64_t iterations = 3;
  int64_t readahead = 4;
  double deadline_seconds = 120;
  std::string dir = "/tmp";
  std::string worker_trace_dir;
  bool csv = false;
  std::string trace;
  util::FlagParser flags(
      "forked process-fleet workers vs the in-process simulator: bitwise "
      "determinism, calibrated cost-model residual, residency and stalls");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB");
  flags.AddInt64("budget_percent", &budget_percent,
                 "aggregate simulated cache as percent of the dataset");
  flags.AddInt64("fleet", &fleet, "fleet size (worker processes)");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations (jobs)");
  flags.AddInt64("readahead", &readahead, "pipeline readahead chunks");
  flags.AddDouble("deadline_seconds", &deadline_seconds,
                  "fleet per-phase deadline");
  flags.AddString("dir", &dir, "scratch directory");
  flags.AddString("worker_trace_dir", &worker_trace_dir,
                  "write per-worker Chrome traces (worker_<i>.json) here");
  flags.AddBool("csv", &csv, "emit CSV");
  flags.AddString("trace", &trace,
                  "write the parent's Chrome trace-event JSON to this path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0],
                          {{"size_mb", size_mb},
                           {"budget_percent", budget_percent},
                           {"fleet", fleet},
                           {"iterations", iterations},
                           {"readahead", readahead}},
                          {}, &trace)) {
    return 1;
  }
  if (deadline_seconds <= 0) {
    return UsageError(flags, argv[0], "--deadline_seconds must be positive");
  }

  PrintPreamble("fleet overlap: forked workers vs the simulator");
  const std::string path = dir + "/m3_fleet_overlap.m3";
  if (auto st =
          EnsureDataset(path, ImagesForMb(static_cast<uint64_t>(size_mb)));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());

  cluster::ClusterConfig config;
  config.num_instances = static_cast<size_t>(fleet);
  config.cores_per_instance = 2;
  config.partitions_per_core = 2;
  config.cache_fraction = 1.0;
  config.instance_ram_bytes = dataset.feature_bytes() *
                              static_cast<uint64_t>(budget_percent) / 100 /
                              static_cast<uint64_t>(fleet);
  config.exec.use_pipelines = true;
  config.exec.readahead_chunks = static_cast<size_t>(readahead);
  const size_t total_partitions = config.TotalPartitions();
  config.exec.chunk_rows =
      std::max<uint64_t>(1, dataset.rows() / (total_partitions * 8));

  // Phase 1: measured simulator run — the determinism baseline AND the
  // calibration input for the cost model the fleet is judged against.
  cluster::SparkCluster simulator(config);
  exec::MappedRegion region;
  region.mapping = &dataset.mapping();
  region.base_offset = dataset.meta().features_offset;
  region.row_bytes = dataset.cols() * sizeof(double);
  M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
  util::Stopwatch sim_watch;
  auto sim = simulator.RunLogisticRegression(
      dataset.features(), y, 1e-4,
      FleetLbfgs(static_cast<size_t>(iterations)), region);
  if (!sim.ok()) {
    std::fprintf(stderr, "simulator LR failed: %s\n",
                 sim.status().ToString().c_str());
    return 1;
  }
  const double sim_seconds = sim_watch.ElapsedSeconds();

  cluster::ClusterConfig calibrated = config;
  const util::Status calibration =
      calibrated.CalibrateFromMeasured(sim.value().stats);
  if (!calibration.ok()) {
    std::fprintf(stderr, "calibration failed: %s\n",
                 calibration.ToString().c_str());
  }

  // Phase 2: the real fleet under the calibrated config. Spawn forks, so
  // it happens while this process is still single-threaded — the
  // simulator's pipeline pools are joined, and the parent's TraceSession
  // (sampler thread) starts strictly after.
  if (!worker_trace_dir.empty()) {
    if (auto st = io::MakeDirs(worker_trace_dir); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  cluster::FleetOptions fleet_options;
  fleet_options.config = calibrated;
  fleet_options.phase_deadline_seconds = deadline_seconds;
  fleet_options.worker_trace_dir = worker_trace_dir;
  auto fleet_or = cluster::ProcessFleet::Spawn(path, fleet_options);
  if (!fleet_or.ok()) {
    std::fprintf(stderr, "fleet spawn failed: %s\n",
                 fleet_or.status().ToString().c_str());
    return 1;
  }
  auto& process_fleet = *fleet_or.value();

  TraceSession trace_session(trace);
  M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
  util::Stopwatch fleet_watch;
  auto run = process_fleet.RunLogisticRegression(
      1e-4, FleetLbfgs(static_cast<size_t>(iterations)));
  const double fleet_seconds = fleet_watch.ElapsedSeconds();
  if (!run.ok()) {
    std::fprintf(stderr, "fleet LR failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }
  const util::Status shutdown = process_fleet.Shutdown();
  if (!shutdown.ok()) {
    std::fprintf(stderr, "fleet shutdown: %s\n",
                 shutdown.ToString().c_str());
  }

  // Residency after the fleet ran: how much of the dataset the competing
  // workers left in the page cache (their mappings share it with ours).
  uint64_t resident_pages = 0;
  uint64_t total_pages = 0;
  if (auto resident = dataset.mapping().CountResidentPages(
          0, dataset.mapping().size());
      resident.ok()) {
    resident_pages = resident.value();
    total_pages = (dataset.mapping().size() + util::PageSize() - 1) /
                  util::PageSize();
  }

  // Per-worker stall/hit table from the stats that crossed the shm
  // boundary as PipelineStats JSON.
  const cluster::JobStats& stats = run.value().stats;
  util::TablePrinter table({"worker", "class", "passes", "prefetches",
                            "hits", "stalls", "refaults", "evicted"});
  JsonReporter reporter("fleet_overlap");
  reporter.Add("simulator_total", sim_seconds, exec::PipelineStats());
  uint64_t fleet_stalls = 0;
  uint64_t fleet_hits = 0;
  for (size_t w = 0; w < stats.instance_exec.size(); ++w) {
    const cluster::InstanceExecStats& instance = stats.instance_exec[w];
    fleet_hits += instance.cached.prefetch_hits;
    fleet_stalls += instance.cached.stalls + instance.spilled.stalls;
    for (const bool cached : {true, false}) {
      const exec::PipelineStats& side =
          cached ? instance.cached : instance.spilled;
      table.AddRow(
          {util::StrFormat("%zu", w), cached ? "cached" : "spilled",
           util::StrFormat("%llu",
                           static_cast<unsigned long long>(side.passes)),
           util::StrFormat("%llu",
                           static_cast<unsigned long long>(side.prefetches)),
           util::StrFormat(
               "%llu", static_cast<unsigned long long>(side.prefetch_hits)),
           util::StrFormat("%llu",
                           static_cast<unsigned long long>(side.stalls)),
           cached ? std::string("-")
                  : util::StrFormat("%llu", static_cast<unsigned long long>(
                                                instance.spill_refaults)),
           util::HumanBytes(side.bytes_evicted)});
      reporter.Add(
          util::StrFormat("worker%zu_%s", w, cached ? "cached" : "spilled"),
          side.drive_seconds, side,
          {{"spill_refaults", cached ? 0 : instance.spill_refaults},
           {"spill_refault_bytes",
            cached ? 0 : instance.spill_refault_bytes}});
    }
  }
  table.Print(stdout, csv);

  const double predicted = stats.predicted_exec_seconds;
  const double measured_exec = stats.measured_exec_seconds;
  const double per_job =
      stats.jobs > 0 ? static_cast<double>(stats.jobs) : 1.0;
  reporter.Add("fleet_total", fleet_seconds, exec::PipelineStats(),
               {{"fleet", static_cast<uint64_t>(fleet)},
                {"jobs", stats.jobs},
                {"resident_pages", resident_pages},
                {"total_pages", total_pages},
                {"stalls", fleet_stalls},
                {"prefetch_hits", fleet_hits}},
               {{"measured_exec_seconds", measured_exec},
                {"predicted_exec_seconds", predicted},
                {"residual_seconds", predicted - measured_exec},
                {"spill_read_bytes_per_sec",
                 calibrated.spill_read_bytes_per_sec},
                {"overlap_efficiency", calibrated.overlap_efficiency},
                {"local_cpu_seconds_per_byte",
                 calibrated.local_cpu_seconds_per_byte}});

  const la::Vector& sim_weights = sim.value().model.weights;
  const la::Vector& fleet_weights = run.value().model.weights;
  const bool identical =
      sim_weights.size() == fleet_weights.size() &&
      std::memcmp(sim_weights.data(), fleet_weights.data(),
                  sim_weights.size() * sizeof(double)) == 0;
  const bool model_ran = !calibration.ok() || predicted > 0;

  std::printf(
      "\nfleet weights bitwise identical to the simulator: %s\n"
      "fleet: %llu prefetch hits, %llu stalls across %zu jobs\n"
      "residency after fleet run: %llu/%llu pages\n"
      "calibrated model: measured exec %.3fs vs predicted %.3fs "
      "(mean residual %+.3fs/job)\n"
      "fleet wall %.3fs vs simulator wall %.3fs\n",
      identical ? "yes" : "NO — determinism regression",
      static_cast<unsigned long long>(fleet_hits),
      static_cast<unsigned long long>(fleet_stalls), stats.jobs,
      static_cast<unsigned long long>(resident_pages),
      static_cast<unsigned long long>(total_pages), measured_exec, predicted,
      (predicted - measured_exec) / per_job, fleet_seconds, sim_seconds);

  const util::Status json = reporter.Write(dir);
  if (!json.ok()) {
    std::fprintf(stderr, "bench JSON not written: %s\n",
                 json.ToString().c_str());
  }
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  return identical && model_ran && json.ok() ? 0 : 1;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
