// Measured I/O/compute overlap inside the simulated Spark cluster. Every
// partition task runs through a real per-partition exec::ChunkPipeline
// bound to the mmap'd dataset: each instance walks its shard in the
// strided task order, cached partitions scan with WILLNEED readahead under
// a share of the instance's RAM budget that pins them (their pages survive
// between jobs — the RDD cache, measured), and spilled partitions are
// force-evicted before every job so each use re-faults from storage (the
// per-iteration spill re-read the cost model charges, now observable).
//
// The headline checks: at a ~25% RAM budget, cached partitions should show
// prefetch hits >> stalls per instance; spilled partitions should show
// re-fault counters growing every job; and the trained weights must be
// bitwise identical to the non-pipelined simulator.
//
// The measured run then CALIBRATES the cost model
// (ClusterConfig::CalibrateFromMeasured: spill re-read bandwidth, overlap
// efficiency and local CPU cost fitted from the per-instance hit/stall
// stats — no hardcoded spill constant on this path) and a second run
// reports the calibrated model's predicted-vs-measured execution residual
// per job, which lands in BENCH_cluster_overlap.json.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"
#include "cluster/spark_cluster.h"
#include "core/m3.h"
#include "la/blas.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

struct ClusterRun {
  double seconds = 0;
  la::Vector weights;
  cluster::JobStats stats;
};

/// Every partition pipeline's stats over a run: the measured per-instance
/// stats summed across instances and cache states.
exec::PipelineStats TotalStats(const cluster::JobStats& stats) {
  exec::PipelineStats total;
  for (const cluster::InstanceExecStats& instance : stats.instance_exec) {
    total += instance.cached;
    total += instance.spilled;
  }
  return total;
}

ClusterRun RunLr(const cluster::SparkCluster& spark, MappedDataset& dataset,
                 la::ConstVectorView y, size_t iterations,
                 bool bind_mapping) {
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = iterations;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;

  exec::MappedRegion region;
  if (bind_mapping) {
    region.mapping = &dataset.mapping();
    region.base_offset = dataset.meta().features_offset;
    region.row_bytes = dataset.cols() * sizeof(double);
  }

  ClusterRun run;
  util::Stopwatch watch;
  auto result = spark.RunLogisticRegression(dataset.features(), y, 1e-4,
                                            lbfgs, region);
  run.seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "distributed LR failed: %s\n",
                 result.status().ToString().c_str());
    return run;
  }
  run.weights = std::move(result.value().model.weights);
  run.stats = std::move(result.value().stats);
  return run;
}

int Run(int argc, char** argv) {
  int64_t size_mb = 96;
  int64_t budget_percent = 25;
  int64_t instances = 4;
  int64_t iterations = 5;
  int64_t readahead = 4;
  int64_t workers = 0;
  std::string dir = "/tmp";
  bool csv = false;
  std::string trace;
  util::FlagParser flags(
      "simulated-cluster partition tasks through per-partition pipelines "
      "under a per-instance RAM budget");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB");
  flags.AddInt64("budget_percent", &budget_percent,
                 "aggregate simulated cache (and measured per-instance "
                 "budget) as percent of the dataset");
  flags.AddInt64("instances", &instances, "simulated instances");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations (jobs)");
  flags.AddInt64("readahead", &readahead, "pipeline readahead chunks");
  flags.AddInt64("workers", &workers, "pipeline workers per partition");
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
  if (!ValidateBenchFlags(flags, argv[0], {{"size_mb", size_mb}, {"budget_percent", budget_percent}, {"instances", instances}, {"iterations", iterations}, {"readahead", readahead}},
                          {{"workers", workers}}, &trace)) {
    return 1;
  }

  PrintPreamble("cluster overlap: per-partition pipelines in the simulator");
  TraceSession trace_session(trace);
  const std::string path = dir + "/m3_cluster_overlap.m3";
  if (auto st =
          EnsureDataset(path, ImagesForMb(static_cast<uint64_t>(size_mb)));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());

  // The simulated per-instance cache doubles as the measured per-instance
  // RAM budget, so the cached/spilled split and the paging regime agree:
  // budget_percent of the dataset is cached cluster-wide, the rest spills
  // and re-faults every job.
  cluster::ClusterConfig config;
  config.num_instances = static_cast<size_t>(instances);
  config.cores_per_instance = 2;
  config.partitions_per_core = 2;
  config.cache_fraction = 1.0;
  config.instance_ram_bytes = dataset.feature_bytes() *
                              static_cast<uint64_t>(budget_percent) / 100 /
                              static_cast<uint64_t>(instances);
  config.exec.use_pipelines = true;
  config.exec.readahead_chunks = static_cast<size_t>(readahead);
  config.exec.pipeline_workers = static_cast<size_t>(workers);
  config.exec.trace_path = trace;
  const size_t total_partitions = config.TotalPartitions();
  config.exec.chunk_rows =
      std::max<uint64_t>(1, dataset.rows() / (total_partitions * 8));

  cluster::ClusterConfig reference = config;
  reference.exec.use_pipelines = false;

  cluster::SparkCluster pipelined(config);
  cluster::SparkCluster inline_reference(reference);
  const auto partitions = pipelined.PlanPartitions(
      dataset.rows(), dataset.cols() * sizeof(double));
  std::printf(
      "%s\n%zu partitions (%zu spilled), budget %s/instance, "
      "%lld optimizer iterations\n\n",
      config.ToString().c_str(), partitions.size(),
      cluster::CountSpilled(partitions),
      util::HumanBytes(config.InstanceCacheBytes()).c_str(),
      static_cast<long long>(iterations));

  M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
  ClusterRun baseline = RunLr(inline_reference, dataset, y,
                              static_cast<size_t>(iterations),
                              /*bind_mapping=*/false);
  M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
  ClusterRun measured = RunLr(pipelined, dataset, y,
                              static_cast<size_t>(iterations),
                              /*bind_mapping=*/true);

  util::TablePrinter table({"instance", "class", "passes", "prefetches",
                            "hits", "stalls", "refaults", "evicted"});
  JsonReporter reporter("cluster_overlap");
  reporter.Add("inline_reference", baseline.seconds, exec::PipelineStats());
  reporter.Add("pipelined_total", measured.seconds,
               TotalStats(measured.stats));
  uint64_t cached_hits = 0, cached_stalls = 0, refaults = 0;
  for (size_t i = 0; i < measured.stats.instance_exec.size(); ++i) {
    const cluster::InstanceExecStats& instance =
        measured.stats.instance_exec[i];
    cached_hits += instance.cached.prefetch_hits;
    cached_stalls += instance.cached.stalls;
    refaults += instance.spill_refaults;
    for (const bool cached : {true, false}) {
      const exec::PipelineStats& stats =
          cached ? instance.cached : instance.spilled;
      table.AddRow(
          {util::StrFormat("%zu", i), cached ? "cached" : "spilled",
           util::StrFormat("%llu",
                           static_cast<unsigned long long>(stats.passes)),
           util::StrFormat("%llu",
                           static_cast<unsigned long long>(stats.prefetches)),
           util::StrFormat(
               "%llu", static_cast<unsigned long long>(stats.prefetch_hits)),
           util::StrFormat("%llu",
                           static_cast<unsigned long long>(stats.stalls)),
           cached ? std::string("-")
                  : util::StrFormat("%llu", static_cast<unsigned long long>(
                                                instance.spill_refaults)),
           util::HumanBytes(stats.bytes_evicted)});
      // Full PipelineStats (not just counters): the per-instance cases
      // carry stage seconds and the stall/compute duration percentiles.
      reporter.Add(
          util::StrFormat("instance%zu_%s", i,
                          cached ? "cached" : "spilled"),
          stats.drive_seconds, stats,
          {{"spill_refaults", cached ? 0 : instance.spill_refaults},
           {"spill_refault_bytes",
            cached ? 0 : instance.spill_refault_bytes}});
    }
  }
  table.Print(stdout, csv);
  std::printf("simulated (unchanged by pipelines): %s\n",
              measured.stats.ToString().c_str());

  // Close the loop: fit the cost model's spill/overlap/CPU constants from
  // the measured run, then re-run under the calibrated config and report
  // the model's predicted-vs-measured execution residual per job.
  cluster::ClusterConfig calibrated_config = config;
  util::Status calibrated_status =
      calibrated_config.CalibrateFromMeasured(measured.stats);
  bool residuals_ok = false;
  if (calibrated_status.ok()) {
    std::printf(
        "\ncalibrated from measured stats: spill=%s/s (was hardcoded "
        "40 MB/s) overlap=%.2f cpu=%.3g s/B\n",
        util::HumanBytes(static_cast<uint64_t>(
                             calibrated_config.spill_read_bytes_per_sec))
            .c_str(),
        calibrated_config.overlap_efficiency,
        calibrated_config.local_cpu_seconds_per_byte);
    M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
    cluster::SparkCluster calibrated(calibrated_config);
    ClusterRun rerun = RunLr(calibrated, dataset, y,
                             static_cast<size_t>(iterations),
                             /*bind_mapping=*/true);
    const double predicted = rerun.stats.predicted_exec_seconds;
    const double measured_exec = rerun.stats.measured_exec_seconds;
    const double per_job =
        rerun.stats.jobs > 0 ? static_cast<double>(rerun.stats.jobs) : 1.0;
    std::printf(
        "calibrated run: measured exec %.3fs vs predicted %.3fs over %zu "
        "jobs (mean residual %+.3fs/job)\n",
        measured_exec, predicted, rerun.stats.jobs,
        (predicted - measured_exec) / per_job);
    reporter.Add(
        "calibrated_rerun", rerun.seconds, TotalStats(rerun.stats),
        {{"jobs", rerun.stats.jobs}},
        {{"measured_exec_seconds", measured_exec},
         {"predicted_exec_seconds", predicted},
         {"residual_seconds", predicted - measured_exec},
         {"spill_read_bytes_per_sec",
          calibrated_config.spill_read_bytes_per_sec},
         {"overlap_efficiency", calibrated_config.overlap_efficiency},
         {"local_cpu_seconds_per_byte",
          calibrated_config.local_cpu_seconds_per_byte}});
    const bool rerun_identical =
        baseline.weights.size() == rerun.weights.size() &&
        std::memcmp(baseline.weights.data(), rerun.weights.data(),
                    baseline.weights.size() * sizeof(double)) == 0;
    // The residual is informational (it tracks drift in the nightly
    // JSON); what gates the exit is that the calibrated path actually
    // produced predictions and did not perturb the math.
    residuals_ok = rerun_identical && predicted > 0 && measured_exec > 0;
    if (!residuals_ok) {
      std::fprintf(stderr,
                   "calibrated re-run failed its checks (identical=%d "
                   "predicted=%.3f measured=%.3f)\n",
                   rerun_identical, predicted, measured_exec);
    }
  } else {
    std::fprintf(stderr, "calibration failed: %s\n",
                 calibrated_status.ToString().c_str());
  }

  const util::Status json = reporter.Write(dir);
  if (!json.ok()) {
    std::fprintf(stderr, "bench JSON not written: %s\n",
                 json.ToString().c_str());
  }

  const bool identical =
      baseline.weights.size() == measured.weights.size() &&
      std::memcmp(baseline.weights.data(), measured.weights.data(),
                  baseline.weights.size() * sizeof(double)) == 0;
  const bool refaulting = refaults > 0;
  const bool hits_dominate = cached_hits > cached_stalls;
  std::printf(
      "\nweights bitwise identical to the non-pipelined simulator: %s\n"
      "cached partitions: %llu hits vs %llu stalls (%s)\n"
      "spilled partitions: %llu forced re-faults across %zu jobs (%s)\n"
      "pipelined wall %.3fs vs inline %.3fs\n",
      identical ? "yes" : "NO — determinism regression",
      static_cast<unsigned long long>(cached_hits),
      static_cast<unsigned long long>(cached_stalls),
      hits_dominate ? "hits dominate" : "STALLS DOMINATE",
      static_cast<unsigned long long>(refaults), measured.stats.jobs,
      refaulting ? "re-faulting observed" : "NO RE-FAULTING",
      measured.seconds, baseline.seconds);
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  // hits >> stalls gates the exit at every worker count. These partition
  // scans compute inside `map` (MapReduceChunks), so the kMap race —
  // sampled when a worker actually starts the map, with the warm-up
  // window widened to the in-flight dispatch burst — judges exactly the
  // stage that touches the pages; the old workers>=2 exemption covered
  // retire-compute scans, which now classify at retire (RaceStage) and
  // do not occur on this path.
  return identical && refaulting && hits_dominate && residuals_ok &&
                 json.ok()
             ? 0
             : 1;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
