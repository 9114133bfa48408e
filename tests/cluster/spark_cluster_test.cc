#include "cluster/spark_cluster.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "cluster/partition_executor.h"
#include "core/mapped_dataset.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "io/file.h"
#include "la/blas.h"
#include "ml/metrics.h"

namespace m3::cluster {
namespace {

ClusterConfig SmallCluster(size_t instances) {
  ClusterConfig config;
  config.num_instances = instances;
  config.cores_per_instance = 4;
  config.instance_ram_bytes = 1ull << 30;
  config.local_cpu_seconds_per_byte = 1e-9;
  return config;
}

TEST(ClusterConfigTest, ValidateCatchesNonsense) {
  EXPECT_TRUE(SmallCluster(4).Validate().ok());
  ClusterConfig config = SmallCluster(4);
  config.num_instances = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallCluster(4);
  config.cache_fraction = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallCluster(4);
  config.jvm_slowdown = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallCluster(4);
  config.local_cpu_seconds_per_byte = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(ClusterConfigTest, DerivedQuantities) {
  ClusterConfig config = SmallCluster(4);
  config.partitions_per_core = 2;
  EXPECT_EQ(config.TotalPartitions(), 4 * 4 * 2u);
  EXPECT_EQ(config.CacheCapacityBytes(),
            static_cast<uint64_t>(4.0 * (1ull << 30) * 0.6));
  EXPECT_NE(config.ToString().find("4 instances"), std::string::npos);
}

TEST(ClusterConfigTest, CacheCapacityDoesNotOverflowForLargeFleets) {
  // Regression: instance_ram_bytes * num_instances used to multiply in
  // uint64_t before the double cast — 2^34 bytes x 2^31 instances wrapped
  // to a tiny capacity and the planner cached almost nothing.
  ClusterConfig config = SmallCluster(4);
  config.instance_ram_bytes = 16ull << 30;  // 2^34
  config.num_instances = size_t{1} << 31;   // 2^65 total: wrapped to 0 pre-fix
  config.cache_fraction = 0.25;
  const double expected = 9223372036854775808.0;  // 2^65 * 0.25 = 2^63
  EXPECT_NEAR(static_cast<double>(config.CacheCapacityBytes()), expected,
              expected * 1e-12);
  EXPECT_GT(config.CacheCapacityBytes(), config.instance_ram_bytes);

  // Beyond uint64_t range the capacity saturates instead of narrowing a
  // too-large double back (UB).
  config.num_instances = size_t{1} << 62;
  config.cache_fraction = 1.0;
  EXPECT_EQ(config.CacheCapacityBytes(),
            std::numeric_limits<uint64_t>::max());
}

TEST(ClusterConfigTest, ValidateRejectsPartitionCountOverflow) {
  // TotalPartitions() multiplies three size_t counts; Validate must
  // reject configs whose product would wrap (the audit twin of the
  // CacheCapacityBytes fix — partition counts must stay exact integers).
  ClusterConfig config = SmallCluster(4);
  config.num_instances = size_t{1} << 32;
  config.cores_per_instance = size_t{1} << 32;
  EXPECT_FALSE(config.Validate().ok());
  config = SmallCluster(4);
  config.num_instances = size_t{1} << 40;
  config.cores_per_instance = size_t{1} << 20;
  config.partitions_per_core = size_t{1} << 10;
  EXPECT_FALSE(config.Validate().ok());
  EXPECT_TRUE(SmallCluster(4).Validate().ok());
}

TEST(ClusterConfigTest, ValidateRejectsBadOverlapEfficiency) {
  ClusterConfig config = SmallCluster(4);
  config.overlap_efficiency = 1.5;
  EXPECT_FALSE(config.Validate().ok());
  config.overlap_efficiency = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.overlap_efficiency = 0.0;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ClusterConfigTest, CalibrateFromMeasuredReplacesConstants) {
  ClusterConfig config = SmallCluster(2);
  const double analytic_spill = config.spill_read_bytes_per_sec;

  JobStats measured;
  measured.instance_exec.resize(2);
  for (InstanceExecStats& instance : measured.instance_exec) {
    instance.cached.passes = 10;
    instance.cached.prefetch_bytes = 100ull << 20;
    instance.cached.compute_seconds = 0.8;
    instance.cached.retire_seconds = 0.2;
    instance.cached.prefetch_hits = 90;
    instance.cached.stalls = 10;
    instance.cached.drive_seconds = 1.2;
    instance.spilled.passes = 10;
    instance.spilled.prefetch_bytes = 50ull << 20;
    instance.spilled.compute_seconds = 0.9;  // includes fault-wait time
    instance.spilled.prefetch_seconds = 1.0;  // real read time
    instance.spilled.stalls = 30;
    instance.spilled.prefetch_hits = 10;
    instance.spilled.drive_seconds = 1.4;
  }
  ASSERT_TRUE(config.CalibrateFromMeasured(measured).ok());
  EXPECT_TRUE(config.calibrated_from_measurement);
  // No hardcoded spill constant on the calibrated path: the fitted
  // bandwidth is the spilled partitions' measured prefetch throughput
  // (2 instances x 50 MiB over 2 s of read time = 50 MiB/s).
  EXPECT_NE(config.spill_read_bytes_per_sec, analytic_spill);
  EXPECT_NEAR(config.spill_read_bytes_per_sec,
              static_cast<double>(100ull << 20) / 2.0, 1.0);
  // Overlap = hit fraction of classified chunks: (180+20)/(180+20+20+60).
  EXPECT_NEAR(config.overlap_efficiency, 200.0 / 280.0, 1e-12);
  // Local CPU cost comes from the CACHED class only (warm pages — its
  // compute seconds carry no storage-fault wait): 2 x (0.8 + 0.2) s over
  // 2 x 100 MiB. The spilled class's fault-inflated 0.9 s/instance must
  // not leak into the CPU term (it is charged as spill I/O instead).
  EXPECT_NEAR(config.local_cpu_seconds_per_byte,
              2.0 / static_cast<double>(200ull << 20), 1e-15);
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ClusterConfigTest, CalibrateFromMeasuredRejectsUnmeasuredRuns) {
  ClusterConfig config = SmallCluster(2);
  JobStats empty;
  EXPECT_FALSE(config.CalibrateFromMeasured(empty).ok());
  EXPECT_FALSE(config.calibrated_from_measurement);
  empty.instance_exec.resize(2);  // present but never driven
  EXPECT_FALSE(config.CalibrateFromMeasured(empty).ok());
}

TEST(SparkClusterTest, LrGradientMatchesSingleMachine) {
  // The simulator executes real math: the trained model must match the
  // single-machine trainer run with the same optimizer budget.
  data::SeparableResult sep = data::LinearlySeparable(2000, 10, 0.05, 42);
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());

  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 10;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;

  SparkCluster cluster(SmallCluster(4));
  auto distributed =
      cluster.RunLogisticRegression(sep.data.features, y, 1e-4, lbfgs);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();

  ml::LogisticRegressionOptions local_options;
  local_options.l2 = 1e-4;
  local_options.lbfgs = lbfgs;
  auto local = ml::LogisticRegression(local_options)
                   .Train(sep.data.features, y)
                   .ValueOrDie();

  // Partition sums reorder FP addition; results agree to high precision.
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(distributed.value().model.weights[i], local.weights[i], 1e-6)
        << "weight " << i;
  }
  EXPECT_NEAR(distributed.value().model.intercept, local.intercept, 1e-6);
}

TEST(SparkClusterTest, LrAccumulatesSimulatedTime) {
  data::SeparableResult sep = data::LinearlySeparable(1000, 5, 0.0, 7);
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 5;
  SparkCluster cluster(SmallCluster(4));
  auto result =
      cluster.RunLogisticRegression(sep.data.features, y, 0.0, lbfgs)
          .ValueOrDie();
  EXPECT_GT(result.stats.simulated_seconds, 0.0);
  EXPECT_GT(result.stats.jobs, 0u);
  EXPECT_GT(result.stats.tasks, 0u);
  EXPECT_GT(result.stats.network_seconds, 0.0);
  EXPECT_GT(result.stats.overhead_seconds, 0.0);
  EXPECT_GT(result.stats.bytes_read_from_disk, 0u);  // cold first pass
  // Components are part of the total story.
  EXPECT_GE(result.stats.simulated_seconds, result.stats.network_seconds);
}

TEST(SparkClusterTest, KMeansMatchesSingleMachineFromSameInit) {
  data::BlobsResult blobs = data::GaussianBlobs(1500, 6, 5, 1.0, 21);
  la::Matrix init(5, 6);
  for (size_t c = 0; c < 5; ++c) {
    la::Copy(blobs.data.features.Row(c * 300), init.Row(c));
  }
  ml::KMeansOptions options;
  options.k = 5;
  options.max_iterations = 10;
  options.tolerance = 0;
  options.initial_centers = &init;

  SparkCluster cluster(SmallCluster(4));
  auto distributed = cluster.RunKMeans(blobs.data.features, options);
  ASSERT_TRUE(distributed.ok()) << distributed.status().ToString();
  auto local = ml::KMeans(options).Cluster(blobs.data.features).ValueOrDie();

  EXPECT_NEAR(distributed.value().clustering.inertia, local.inertia,
              1e-6 * std::max(1.0, local.inertia));
  for (size_t c = 0; c < 5; ++c) {
    for (size_t d = 0; d < 6; ++d) {
      EXPECT_NEAR(distributed.value().clustering.centers(c, d),
                  local.centers(c, d), 1e-8);
    }
  }
}

TEST(SparkClusterTest, KMeansChargesPerIteration) {
  data::BlobsResult blobs = data::GaussianBlobs(500, 4, 3, 1.0, 5);
  ml::KMeansOptions options;
  options.k = 3;
  options.max_iterations = 4;
  options.tolerance = 0;
  SparkCluster cluster(SmallCluster(2));
  auto result = cluster.RunKMeans(blobs.data.features, options).ValueOrDie();
  EXPECT_EQ(result.clustering.iterations, 4u);
  EXPECT_EQ(result.stats.jobs, 4u);
}

TEST(SparkClusterTest, MoreInstancesAreFasterWhenComputeBound) {
  data::SeparableResult sep = data::LinearlySeparable(4000, 20, 0.0, 13);
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 5;
  lbfgs.gradient_tolerance = 0;

  // Make compute dominate so the instance count matters: expensive CPU,
  // negligible overheads.
  auto config4 = SmallCluster(4);
  auto config8 = SmallCluster(8);
  for (ClusterConfig* config : {&config4, &config8}) {
    config->local_cpu_seconds_per_byte = 1e-6;
    config->task_overhead_seconds = 1e-5;
    config->job_overhead_seconds = 1e-4;
  }
  auto four = SparkCluster(config4)
                  .RunLogisticRegression(sep.data.features, y, 0.0, lbfgs)
                  .ValueOrDie();
  auto eight = SparkCluster(config8)
                   .RunLogisticRegression(sep.data.features, y, 0.0, lbfgs)
                   .ValueOrDie();
  EXPECT_LT(eight.stats.simulated_seconds,
            four.stats.simulated_seconds * 0.75);
}

TEST(SparkClusterTest, SpillRegimeSlowsSmallCluster) {
  // Dataset sized between 4-instance and 8-instance cache capacity: the
  // Fig. 1b mechanism. Per-byte compute is tiny so I/O dominates.
  data::SeparableResult sep = data::LinearlySeparable(5000, 32, 0.0, 29);
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());
  const uint64_t dataset_bytes = 5000 * 32 * sizeof(double);

  auto make_config = [&](size_t instances) {
    ClusterConfig config = SmallCluster(instances);
    // 4-instance cache: 75% of data; 8-instance: 150%.
    config.instance_ram_bytes =
        static_cast<uint64_t>(dataset_bytes * 0.3125);
    config.cache_fraction = 0.6;
    config.local_cpu_seconds_per_byte = 1e-12;
    // Let spill I/O dominate the fixed overheads at this tiny test scale.
    config.spill_read_bytes_per_sec = 1e6;
    config.job_overhead_seconds = 1e-4;
    config.task_overhead_seconds = 1e-5;
    config.network_latency = 1e-5;
    return config;
  };
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 10;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;

  auto four = SparkCluster(make_config(4))
                  .RunLogisticRegression(sep.data.features, y, 0.0, lbfgs)
                  .ValueOrDie();
  auto eight = SparkCluster(make_config(8))
                   .RunLogisticRegression(sep.data.features, y, 0.0, lbfgs)
                   .ValueOrDie();
  // The 4-instance cluster re-reads spilled partitions every pass.
  EXPECT_GT(four.stats.io_seconds, eight.stats.io_seconds * 2);
  EXPECT_GT(four.stats.simulated_seconds, eight.stats.simulated_seconds);
}

TEST(SparkClusterTest, PlanPartitionsHonorsCacheCapacity) {
  ClusterConfig config = SmallCluster(2);
  config.instance_ram_bytes = 800;  // bytes! absurdly tiny on purpose
  config.cache_fraction = 0.5;
  SparkCluster cluster(config);
  auto partitions = cluster.PlanPartitions(100, /*row_bytes=*/80);
  // Cache capacity = 2*800*0.5 = 800 bytes = 10 rows of 80B.
  size_t cached_rows = 0;
  for (const auto& p : partitions) {
    if (p.cached) {
      cached_rows += p.rows();
    }
  }
  EXPECT_LE(cached_rows, 10u);
  EXPECT_LT(cached_rows, 100u);
}

TEST(SparkClusterTest, RejectsInvalidInputs) {
  SparkCluster cluster(SmallCluster(2));
  la::Matrix empty;
  la::Vector none;
  ml::LbfgsOptions lbfgs;
  EXPECT_FALSE(cluster.RunLogisticRegression(empty, none, 0.0, lbfgs).ok());
  la::Matrix x(10, 2);
  la::Vector bad(3);
  EXPECT_FALSE(cluster.RunLogisticRegression(x, bad, 0.0, lbfgs).ok());
  ml::KMeansOptions options;
  options.k = 100;  // > rows
  EXPECT_FALSE(cluster.RunKMeans(x, options).ok());
  ClusterConfig broken = SmallCluster(2);
  broken.local_cpu_seconds_per_byte = 0;
  la::Vector y(10);
  EXPECT_FALSE(
      SparkCluster(broken).RunLogisticRegression(x, y, 0.0, lbfgs).ok());
}

TEST(PredictExecSecondsTest, InstanceCoresDivideTheCpuTerm) {
  // A CPU-bound calibrated config: every partition cached and the job warm,
  // so no byte comes from storage and the prediction is the CPU term alone.
  const std::vector<Partition> partitions = MakePartitions(1000, 8, 2, 1000);
  ClusterConfig config = SmallCluster(2);
  config.exec.use_pipelines = true;
  config.calibrated_from_measurement = true;
  config.overlap_efficiency = 0.5;
  config.cores_per_instance = 1;
  const double one_core =
      PredictExecSeconds(partitions, config, /*row_bytes=*/80, /*cold=*/false);
  EXPECT_DOUBLE_EQ(one_core, 1e-9 * 1000 * 80);
  config.cores_per_instance = 2;
  EXPECT_DOUBLE_EQ(
      PredictExecSeconds(partitions, config, /*row_bytes=*/80, /*cold=*/false),
      one_core / 2);
}

// ---------------------------------------------------------------------------
// The pooled executor: each instance runs cores_per_instance chunk tasks at
// once. Fork-free, so the sanitizer legs run it.
// ---------------------------------------------------------------------------

class PooledExecutorTest : public ::testing::Test {
 protected:
  // 2 instances x 8 partitions per instance x 100 rows, in 10-row chunks.
  static constexpr size_t kRows = 1600;
  static constexpr size_t kPartitions = 16;
  static constexpr uint64_t kChunkRows = 10;

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_pooled_executor_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
    data::SeparableResult sep = data::LinearlySeparable(kRows, 8, 0.05, 17);
    path_ = dir_ + "/pooled.m3";
    ASSERT_TRUE(data::WriteDataset(path_, sep.data.features, sep.data.labels,
                                   2)
                    .ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// `cores` chunk tasks per instance; cores x partitions_per_core = 8
  /// keeps TotalPartitions() at kPartitions. Half the features are cached,
  /// so both cache classes run.
  static ClusterConfig Config(size_t cores, uint64_t feature_bytes,
                              bool pipelines) {
    ClusterConfig config = SmallCluster(2);
    config.cores_per_instance = cores;
    config.partitions_per_core = 8 / cores;
    config.cache_fraction = 1.0;
    config.instance_ram_bytes = feature_bytes / 4;
    config.exec.use_pipelines = pipelines;
    config.exec.chunk_rows = kChunkRows;
    return config;
  }

  static exec::MappedRegion RegionOf(const MappedDataset& dataset) {
    exec::MappedRegion region;
    region.mapping = &dataset.mapping();
    region.base_offset = dataset.meta().features_offset;
    region.row_bytes = dataset.cols() * sizeof(double);
    return region;
  }

  /// At RaceStage::kMap a bound pass leaves its warm-up positions
  /// unclassified: min(chunks, max(readahead, 2 x fan-out)) of them, the
  /// fan-out being the instance's cores.
  static void ExpectWarmupPerPass(const JobStats& stats,
                                  const ClusterConfig& config) {
    const uint64_t chunks = kRows / kPartitions / kChunkRows;
    const uint64_t warmup = std::min<uint64_t>(
        chunks, std::max<uint64_t>(config.exec.readahead_chunks,
                                   2 * config.cores_per_instance));
    ASSERT_EQ(stats.instance_exec.size(), 2u);
    uint64_t passes = 0;
    uint64_t unclassified = 0;
    for (const InstanceExecStats& instance : stats.instance_exec) {
      passes += instance.cached.passes + instance.spilled.passes;
      unclassified += instance.cached.prefetch_unclassified +
                      instance.spilled.prefetch_unclassified;
    }
    EXPECT_EQ(passes, stats.jobs * kPartitions);
    EXPECT_EQ(unclassified, passes * warmup)
        << "cores=" << config.cores_per_instance;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(PooledExecutorTest, LrBitwiseMatchesInlineAtEveryCoreCount) {
  auto dataset = MappedDataset::Open(path_).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 6;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;
  auto reference =
      SparkCluster(Config(4, dataset.feature_bytes(), /*pipelines=*/false))
          .RunLogisticRegression(dataset.features(), y, 1e-4, lbfgs)
          .ValueOrDie();

  for (const size_t cores : {size_t{1}, size_t{2}, size_t{4}}) {
    const ClusterConfig config =
        Config(cores, dataset.feature_bytes(), /*pipelines=*/true);
    SparkCluster cluster(config);
    ASSERT_EQ(cluster.PlanPartitions(kRows, 8 * sizeof(double)).size(),
              kPartitions);
    auto result = cluster
                      .RunLogisticRegression(dataset.features(), y, 1e-4,
                                             lbfgs, RegionOf(dataset))
                      .ValueOrDie();
    ASSERT_EQ(result.model.weights.size(), reference.model.weights.size());
    EXPECT_EQ(std::memcmp(result.model.weights.data(),
                          reference.model.weights.data(),
                          reference.model.weights.size() * sizeof(double)),
              0)
        << "cores=" << cores;
    EXPECT_EQ(std::memcmp(&result.model.intercept,
                          &reference.model.intercept, sizeof(double)),
              0)
        << "cores=" << cores;
    ExpectWarmupPerPass(result.stats, config);
  }
}

TEST_F(PooledExecutorTest, KMeansBitwiseMatchesInlineAtEveryCoreCount) {
  auto dataset = MappedDataset::Open(path_).ValueOrDie();
  la::Matrix init(4, 8);
  for (size_t c = 0; c < 4; ++c) {
    la::Copy(dataset.features().Row(c * 400), init.Row(c));
  }
  ml::KMeansOptions options;
  options.k = 4;
  options.max_iterations = 5;
  options.tolerance = 0;
  options.initial_centers = &init;
  auto reference =
      SparkCluster(Config(4, dataset.feature_bytes(), /*pipelines=*/false))
          .RunKMeans(dataset.features(), options)
          .ValueOrDie();

  for (const size_t cores : {size_t{1}, size_t{2}, size_t{4}}) {
    const ClusterConfig config =
        Config(cores, dataset.feature_bytes(), /*pipelines=*/true);
    auto result = SparkCluster(config)
                      .RunKMeans(dataset.features(), options,
                                 RegionOf(dataset))
                      .ValueOrDie();
    EXPECT_EQ(std::memcmp(result.clustering.centers.data(),
                          reference.clustering.centers.data(),
                          4 * 8 * sizeof(double)),
              0)
        << "cores=" << cores;
    EXPECT_EQ(std::memcmp(&result.clustering.inertia,
                          &reference.clustering.inertia, sizeof(double)),
              0)
        << "cores=" << cores;
    ExpectWarmupPerPass(result.stats, config);
  }
}

TEST(JobStatsTest, AccumulateMergesMeasuredInstanceStats) {
  JobStats total, job;
  job.instance_exec.resize(2);
  job.instance_exec[0].cached.prefetch_hits = 5;
  job.instance_exec[1].spilled.stalls = 2;
  job.instance_exec[1].spill_refaults = 3;
  job.instance_exec[1].spill_refault_bytes = 4096;
  total.Accumulate(job);
  total.Accumulate(job);
  ASSERT_EQ(total.instance_exec.size(), 2u);
  EXPECT_EQ(total.instance_exec[0].cached.prefetch_hits, 10u);
  EXPECT_EQ(total.instance_exec[1].spilled.stalls, 4u);
  EXPECT_EQ(total.instance_exec[1].spill_refaults, 6u);
  EXPECT_EQ(total.instance_exec[1].spill_refault_bytes, 8192u);
  // Jobs without measured stats merge in without disturbing them.
  JobStats plain;
  plain.jobs = 1;
  total.Accumulate(plain);
  EXPECT_EQ(total.instance_exec.size(), 2u);
  EXPECT_NE(total.ToString().find("refaults=6"), std::string::npos);
}

TEST(PartitionHelpersTest, InstanceRowsAndSpillCounts) {
  auto partitions = MakePartitions(100, 10, 2, 50);
  EXPECT_EQ(InstanceRows(partitions, 0) + InstanceRows(partitions, 1), 100u);
  EXPECT_EQ(CountSpilled(partitions), 5u);
  // Partitions 0..4 are cached (10 rows each), alternating instances.
  EXPECT_EQ(InstanceRows(partitions, 0, /*cached_only=*/true), 30u);
  EXPECT_EQ(InstanceRows(partitions, 1, /*cached_only=*/true), 20u);
  const Partition& p = partitions[3];
  EXPECT_EQ(p.byte_begin(8), p.row_begin * 8u);
  EXPECT_EQ(p.byte_size(8), p.rows() * 8u);
}

TEST(JobStatsTest, AccumulateSums) {
  JobStats a, b;
  a.simulated_seconds = 1;
  a.jobs = 2;
  a.bytes_over_network = 100;
  a.measured_exec_seconds = 0.5;
  a.predicted_exec_seconds = 0.75;
  b.simulated_seconds = 2;
  b.jobs = 3;
  b.bytes_over_network = 50;
  b.measured_exec_seconds = 1.5;
  b.predicted_exec_seconds = 0.25;
  a.Accumulate(b);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, 3.0);
  EXPECT_EQ(a.jobs, 5u);
  EXPECT_EQ(a.bytes_over_network, 150u);
  EXPECT_DOUBLE_EQ(a.measured_exec_seconds, 2.0);
  EXPECT_DOUBLE_EQ(a.predicted_exec_seconds, 1.0);
  EXPECT_NE(a.ToString().find("jobs=5"), std::string::npos);
  // The calibrated-prediction line appears once a prediction exists.
  EXPECT_NE(a.ToString().find("calibrated prediction"), std::string::npos);
  EXPECT_EQ(JobStats().ToString().find("calibrated prediction"),
            std::string::npos);
}

}  // namespace
}  // namespace m3::cluster
