// Figure 1b: "M3's speed (one PC) comparable to 8-instance Spark, and
// significantly faster than 4-instance Spark" for logistic regression
// (10 L-BFGS iterations) and k-means (10 iterations, 5 clusters).
//
// Paper numbers:            L-BFGS LR      k-means
//   M3 (one PC)               1950 s        1164 s
//   Spark x 8 instances       2864 s (1.47x) 1604 s (1.38x)
//   Spark x 4 instances       8256 s (4.23x) 3491 s (3.00x)
//
// We cannot rent the 2016 EC2 fleet, so (per DESIGN.md §3) the cluster is
// simulated: real distributed math, modeled time. Two tables come out:
//   1. LAPTOP SCALE: measured M3 wall time vs simulated Spark seconds on
//      the same (small) dataset with the cost model calibrated from the
//      measured M3 run. Fixed Spark overheads dominate at this scale —
//      which is itself a finding the paper alludes to ("using more Spark
//      instances ... may also incur additional overhead").
//   2. PAPER SCALE: the same calibrated model evaluated at 190 GB with the
//      paper's hardware parameters on both sides (M3: 32 GB RAM + 1 GB/s
//      SSD via PerfModel; Spark: m3.2xlarge fleets). The published ratios
//      should re-emerge here.

#include <cstdio>

#include "bench/bench_common.h"
#include "cluster/partition.h"
#include "cluster/sim_clock.h"
#include "cluster/spark_cluster.h"
#include "core/m3.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

cluster::ClusterConfig PaperInstanceConfig(size_t instances,
                                           double cpu_seconds_per_byte) {
  cluster::ClusterConfig config;  // defaults model m3.2xlarge
  config.num_instances = instances;
  config.local_cpu_seconds_per_byte = cpu_seconds_per_byte;
  return config;
}

int Run(int argc, char** argv) {
  int64_t size_mb = 64;
  std::string dir = "/tmp";
  bool csv = false;
  std::string trace;
  util::FlagParser flags(
      "Fig. 1b: M3 (one machine) vs simulated 4/8-instance Spark");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB (laptop scale)");
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
  if (!ValidateBenchFlags(flags, argv[0], {{"size_mb", size_mb}},
                          {}, &trace)) {
    return 1;
  }

  PrintPreamble("Figure 1b: M3 vs Spark (4 and 8 instances)");
  TraceSession trace_session(trace);

  const std::string path = dir + "/m3_fig1b.m3";
  const uint64_t images = ImagesForMb(static_cast<uint64_t>(size_mb));
  if (auto st = EnsureDataset(path, images); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  const uint64_t dataset_bytes = dataset.feature_bytes();

  // ---- M3 measured: LR ----------------------------------------------------
  ml::LogisticRegressionOptions lr_options;
  lr_options.lbfgs = PaperLbfgsOptions();
  ml::OptimizationResult lr_stats;
  util::Stopwatch watch;
  auto lr_model = TrainLogisticRegression(dataset, lr_options, &lr_stats);
  const double m3_lr_seconds = watch.ElapsedSeconds();
  if (!lr_model.ok()) {
    std::fprintf(stderr, "%s\n", lr_model.status().ToString().c_str());
    return 1;
  }
  // Calibrate the shared compute scale from this run (compute-bound,
  // warm). The wall-clock fit reflects all local cores working; multiply
  // by the core count to get the per-core constant the simulator charges
  // per task slot.
  const double cpu_seconds_per_byte =
      PerfModel::FitCpuSecondsPerByte(m3_lr_seconds, dataset_bytes,
                                      lr_stats.function_evaluations) *
      static_cast<double>(util::NumCpus());

  // ---- M3 measured: k-means ----------------------------------------------
  ml::KMeansOptions km_options = PaperKMeansOptions();
  km_options.seed = 42;
  watch.Restart();
  auto km_result = TrainKMeans(dataset, km_options);
  const double m3_km_seconds = watch.ElapsedSeconds();
  if (!km_result.ok()) {
    std::fprintf(stderr, "%s\n", km_result.status().ToString().c_str());
    return 1;
  }
  const double km_cpu_seconds_per_byte =
      PerfModel::FitCpuSecondsPerByte(m3_km_seconds, dataset_bytes,
                                      km_result.value().iterations) *
      static_cast<double>(util::NumCpus());

  // ---- Simulated Spark on the same data (laptop scale) --------------------
  // Instance RAM scaled so the dataset sits between 4- and 8-instance
  // aggregate cache capacity, reproducing the paper's 190 GB vs 120/240 GB
  // regime at this size.
  auto scaled_config = [&](size_t instances, double cpu_cost) {
    cluster::ClusterConfig config = PaperInstanceConfig(instances, cpu_cost);
    // Preserve the paper's instance-RAM : dataset ratio (30 GB : 190 GB),
    // so 4 instances spill and 8 instances cache, like Fig. 1b.
    config.instance_ram_bytes = static_cast<uint64_t>(
        static_cast<double>(dataset_bytes) * (30.0 / 190.0));
    return config;
  };

  la::ConstMatrixView x = dataset.features();
  la::ConstVectorView y = dataset.labels();

  auto spark_lr = [&](size_t instances) {
    cluster::SparkCluster spark(
        scaled_config(instances, cpu_seconds_per_byte));
    return spark
        .RunLogisticRegression(x, y, lr_options.l2, lr_options.lbfgs)
        .ValueOrDie();
  };
  auto spark_km = [&](size_t instances) {
    cluster::SparkCluster spark(
        scaled_config(instances, km_cpu_seconds_per_byte));
    ml::KMeansOptions options = km_options;
    return spark.RunKMeans(x, options).ValueOrDie();
  };

  auto lr4 = spark_lr(4);
  auto lr8 = spark_lr(8);
  auto km4 = spark_km(4);
  auto km8 = spark_km(8);

  std::printf("\n-- laptop scale (%s dataset; measured M3, simulated "
              "Spark) --\n",
              util::HumanBytes(dataset_bytes).c_str());
  util::TablePrinter laptop({"algorithm", "system", "runtime_s",
                             "vs_M3", "paper_vs_M3"});
  auto add = [&](const char* algo, const char* system, double seconds,
                 double m3_seconds, const char* paper) {
    laptop.AddRow({algo, system, util::StrFormat("%.2f", seconds),
                   util::StrFormat("%.2fx", seconds / m3_seconds), paper});
  };
  add("LR (L-BFGS x10)", "M3 (this machine)", m3_lr_seconds, m3_lr_seconds,
      "1.00x");
  add("LR (L-BFGS x10)", "Spark x8 (sim)", lr8.stats.simulated_seconds,
      m3_lr_seconds, "1.47x");
  add("LR (L-BFGS x10)", "Spark x4 (sim)", lr4.stats.simulated_seconds,
      m3_lr_seconds, "4.23x");
  add("k-means (k=5 x10)", "M3 (this machine)", m3_km_seconds, m3_km_seconds,
      "1.00x");
  add("k-means (k=5 x10)", "Spark x8 (sim)", km8.stats.simulated_seconds,
      m3_km_seconds, "1.38x");
  add("k-means (k=5 x10)", "Spark x4 (sim)", km4.stats.simulated_seconds,
      m3_km_seconds, "3.00x");
  laptop.Print(stdout, csv);
  std::printf("note: at MiB scale Spark's fixed per-job overheads dominate, "
              "inflating the ratios; see the paper-scale table.\n");

  // ---- Paper scale ---------------------------------------------------------
  // M3 side: PerfModel with the paper's machine (32 GB RAM, 1 GB/s SSD,
  // i7-4770K with 8 hyperthreads sharing the per-core constant).
  const uint64_t paper_bytes = 190ull << 30;
  constexpr double kPaperM3Threads = 8.0;
  PerfModelParams m3_params;
  m3_params.cpu_seconds_per_byte = cpu_seconds_per_byte / kPaperM3Threads;
  m3_params.disk_read_bytes_per_sec = 1e9;
  m3_params.ram_bytes = 32ull << 30;
  const double m3_paper_lr = PerfModel(m3_params).PredictRun(
      paper_bytes, lr_stats.function_evaluations);
  m3_params.cpu_seconds_per_byte = km_cpu_seconds_per_byte / kPaperM3Threads;
  const double m3_paper_km = PerfModel(m3_params).PredictRun(
      paper_bytes, km_result.value().iterations);

  // Spark side: the full-size fleets. Partition counts follow the config;
  // simulated stage costs are linear in bytes so we evaluate the cost
  // model directly on synthetic partitions of the paper-size dataset.
  auto spark_paper = [&](size_t instances, double cpu_cost, size_t passes,
                         uint64_t per_pass_result_bytes) {
    cluster::ClusterConfig config =
        PaperInstanceConfig(instances, cpu_cost);  // true 30 GB instances
    cluster::StageCostModel model(config);
    const uint64_t rows = paper_bytes / (784 * sizeof(double));
    auto partitions = cluster::MakePartitions(
        static_cast<size_t>(rows), config.TotalPartitions(),
        config.num_instances,
        static_cast<size_t>(config.CacheCapacityBytes() /
                            (784 * sizeof(double))));
    cluster::JobStats total;
    for (size_t pass = 0; pass < passes; ++pass) {
      cluster::JobStats job;
      job.Accumulate(model.Broadcast(per_pass_result_bytes));
      job.Accumulate(
          model.StageCost(partitions, 784 * sizeof(double), pass == 0));
      job.Accumulate(model.TreeAggregate(per_pass_result_bytes));
      total.Accumulate(job);
    }
    return total;
  };
  const uint64_t lr_result_bytes = (784 + 2) * sizeof(double);
  const uint64_t km_result_bytes = 5 * 784 * sizeof(double) + 5 * 8;
  // Each side pays its own passes: M3's line searches answer later probes
  // from cached margins, while MLlib's L-BFGS runs a job per probe.
  auto lr4_paper = spark_paper(4, cpu_seconds_per_byte,
                               lr4.optimization.function_evaluations,
                               lr_result_bytes);
  auto lr8_paper = spark_paper(8, cpu_seconds_per_byte,
                               lr8.optimization.function_evaluations,
                               lr_result_bytes);
  auto km4_paper = spark_paper(4, km_cpu_seconds_per_byte,
                               km_result.value().iterations, km_result_bytes);
  auto km8_paper = spark_paper(8, km_cpu_seconds_per_byte,
                               km_result.value().iterations, km_result_bytes);

  std::printf("\n-- paper scale (190 GB dataset, paper hardware on both "
              "sides) --\n");
  util::TablePrinter paper({"algorithm", "system", "predicted_s", "vs_M3",
                            "paper_s", "paper_vs_M3"});
  auto addp = [&](const char* algo, const char* system, double seconds,
                  double m3_seconds, const char* paper_s,
                  const char* paper_ratio) {
    paper.AddRow({algo, system, util::StrFormat("%.0f", seconds),
                  util::StrFormat("%.2fx", seconds / m3_seconds), paper_s,
                  paper_ratio});
  };
  addp("LR (L-BFGS x10)", "M3 (one PC)", m3_paper_lr, m3_paper_lr, "1950",
       "1.00x");
  addp("LR (L-BFGS x10)", "Spark x8", lr8_paper.simulated_seconds,
       m3_paper_lr, "2864", "1.47x");
  addp("LR (L-BFGS x10)", "Spark x4", lr4_paper.simulated_seconds,
       m3_paper_lr, "8256", "4.23x");
  addp("k-means (k=5 x10)", "M3 (one PC)", m3_paper_km, m3_paper_km, "1164",
       "1.00x");
  addp("k-means (k=5 x10)", "Spark x8", km8_paper.simulated_seconds,
       m3_paper_km, "1604", "1.38x");
  addp("k-means (k=5 x10)", "Spark x4", km4_paper.simulated_seconds,
       m3_paper_km, "3491", "3.00x");
  paper.Print(stdout, csv);
  std::printf("shape check: ordering must be M3 <= Spark x8 < Spark x4 for "
              "both algorithms.\n");

  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  return 0;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
