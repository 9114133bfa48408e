// Engine-equivalence suite: the simulated cluster must produce *bitwise*
// identical numerical results whether its partition tasks run through the
// inline serial loop (pipelines off — the reference semantics) or through
// real per-partition ChunkPipelines that run `cores_per_instance` chunk
// tasks at once, at any core count that keeps TotalPartitions() fixed.
// Chunk partials always fold on the driving thread in the same strided
// task order, so the floating-point merge sequence never changes; these
// tests pin that guarantee for distributed LR and k-means, in memory and
// mmap-backed, and check the measured spill/refault accounting that only
// the pipelined path produces.

#include "cluster/spark_cluster.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/mapped_dataset.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "io/file.h"
#include "la/blas.h"

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

// `cores` chunk tasks per instance at once; partitions_per_core keeps
// cores x partitions_per_core = 8, so every core count plans the
// reference's partitions (SmallCluster: 4 cores x 2).
ClusterConfig PipelinedConfig(size_t instances, size_t cores,
                              uint64_t chunk_rows = 64) {
  ClusterConfig config = SmallCluster(instances);
  config.cores_per_instance = cores;
  config.partitions_per_core = 8 / cores;
  config.exec.use_pipelines = true;
  config.exec.chunk_rows = chunk_rows;
  return config;
}

bool BitwiseEqual(la::ConstVectorView a, la::ConstVectorView b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

ml::LbfgsOptions FixedLbfgs() {
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 8;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;
  return lbfgs;
}

// ---------------------------------------------------------------------------
// In-memory equivalence at cores_per_instance {1, 2, 4}
// ---------------------------------------------------------------------------

TEST(EngineEquivalenceTest, LrBitwiseIdenticalAcrossEngineConfigs) {
  data::SeparableResult sep = data::LinearlySeparable(1500, 12, 0.05, 42);
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());

  // Both modes must chunk identically; only the execution engine differs.
  ClusterConfig reference_config = SmallCluster(4);
  reference_config.exec.chunk_rows = 64;
  SparkCluster reference(reference_config);
  auto baseline =
      reference.RunLogisticRegression(sep.data.features, y, 1e-4, FixedLbfgs())
          .ValueOrDie();
  EXPECT_TRUE(baseline.stats.instance_exec.empty());  // measured path off

  for (const size_t cores : {size_t{1}, size_t{2}, size_t{4}}) {
    SparkCluster pipelined(PipelinedConfig(4, cores));
    auto result = pipelined
                      .RunLogisticRegression(sep.data.features, y, 1e-4,
                                             FixedLbfgs())
                      .ValueOrDie();
    EXPECT_TRUE(BitwiseEqual(baseline.model.weights, result.model.weights))
        << "cores=" << cores;
    EXPECT_EQ(std::memcmp(&baseline.model.intercept, &result.model.intercept,
                          sizeof(double)),
              0)
        << "cores=" << cores;
    EXPECT_EQ(baseline.optimization.iterations,
              result.optimization.iterations);
    // The pipelined run measured something (even unbound, compute passes
    // are driven through real pipelines).
    ASSERT_EQ(result.stats.instance_exec.size(), 4u);
    uint64_t measured_chunks = 0;
    for (const InstanceExecStats& instance : result.stats.instance_exec) {
      measured_chunks += instance.cached.chunks + instance.spilled.chunks;
    }
    EXPECT_GT(measured_chunks, 0u);
  }
}

TEST(EngineEquivalenceTest, KMeansBitwiseIdenticalAcrossEngineConfigs) {
  data::BlobsResult blobs = data::GaussianBlobs(1200, 6, 5, 1.0, 21);
  la::Matrix init(5, 6);
  for (size_t c = 0; c < 5; ++c) {
    la::Copy(blobs.data.features.Row(c * 240), init.Row(c));
  }
  ml::KMeansOptions options;
  options.k = 5;
  options.max_iterations = 6;
  options.tolerance = 0;
  options.initial_centers = &init;

  ClusterConfig reference_config = SmallCluster(4);
  reference_config.exec.chunk_rows = 64;
  auto baseline = SparkCluster(reference_config)
                      .RunKMeans(blobs.data.features, options)
                      .ValueOrDie();

  for (const size_t cores : {size_t{1}, size_t{2}, size_t{4}}) {
    auto result = SparkCluster(PipelinedConfig(4, cores))
                      .RunKMeans(blobs.data.features, options)
                      .ValueOrDie();
    ASSERT_EQ(result.clustering.centers.rows(), 5u);
    EXPECT_EQ(std::memcmp(baseline.clustering.centers.data(),
                          result.clustering.centers.data(),
                          5 * 6 * sizeof(double)),
              0)
        << "cores=" << cores;
    EXPECT_EQ(baseline.clustering.inertia, result.clustering.inertia);
    EXPECT_EQ(baseline.clustering.iterations, result.clustering.iterations);
  }
}

TEST(EngineEquivalenceTest, ChunkedReferenceStaysCloseToWholePartitionMath) {
  // Chunking the partition reduction reorders FP addition; the result must
  // stay within optimization noise of the single-machine trainer (the
  // existing accuracy contract).
  data::SeparableResult sep = data::LinearlySeparable(2000, 10, 0.05, 42);
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());
  ml::LbfgsOptions lbfgs = FixedLbfgs();
  lbfgs.max_iterations = 10;

  auto distributed = SparkCluster(PipelinedConfig(4, 2))
                         .RunLogisticRegression(sep.data.features, y, 1e-4,
                                                lbfgs)
                         .ValueOrDie();
  ml::LogisticRegressionOptions local_options;
  local_options.l2 = 1e-4;
  local_options.lbfgs = lbfgs;
  auto local = ml::LogisticRegression(local_options)
                   .Train(sep.data.features, y)
                   .ValueOrDie();
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(distributed.model.weights[i], local.weights[i], 1e-6);
  }
  EXPECT_NEAR(distributed.model.intercept, local.intercept, 1e-6);
}

// ---------------------------------------------------------------------------
// Mmap-backed equivalence + measured spill accounting
// ---------------------------------------------------------------------------

class MappedClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_cluster_equiv_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
    data::SeparableResult sep = data::LinearlySeparable(1600, 16, 0.05, 7);
    path_ = dir_ + "/cluster.m3";
    ASSERT_TRUE(data::WriteDataset(path_, sep.data.features, sep.data.labels,
                                   2)
                    .ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static exec::MappedRegion RegionOf(const MappedDataset& dataset) {
    exec::MappedRegion region;
    region.mapping = &dataset.mapping();
    region.base_offset = dataset.meta().features_offset;
    region.row_bytes = dataset.cols() * sizeof(double);
    return region;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(MappedClusterTest, MmapBackedLrBitwiseMatchesInlineReference) {
  auto dataset = MappedDataset::Open(path_).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());

  ClusterConfig reference_config = SmallCluster(4);
  reference_config.exec.chunk_rows = 50;
  auto baseline = SparkCluster(reference_config)
                      .RunLogisticRegression(dataset.features(), y, 1e-4,
                                             FixedLbfgs())
                      .ValueOrDie();

  for (const size_t cores : {size_t{1}, size_t{2}, size_t{4}}) {
    ClusterConfig config = PipelinedConfig(4, cores, 50);
    auto result = SparkCluster(config)
                      .RunLogisticRegression(dataset.features(), y, 1e-4,
                                             FixedLbfgs(), RegionOf(dataset))
                      .ValueOrDie();
    EXPECT_TRUE(BitwiseEqual(baseline.model.weights, result.model.weights))
        << "cores=" << cores;
  }
}

TEST_F(MappedClusterTest, SpilledPartitionsRefaultEveryJobWhileCachedStay) {
  M3Options open_options;
  auto dataset = MappedDataset::Open(path_, open_options).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());

  // Size the simulated cache at ~40% of the dataset so a fixed subset of
  // partitions spills.
  ClusterConfig config = PipelinedConfig(2, 1, 50);
  config.cache_fraction = 1.0;
  config.instance_ram_bytes = dataset.feature_bytes() * 2 / 10;  // x2 = 40%
  SparkCluster cluster(config);

  const std::vector<Partition> partitions = cluster.PlanPartitions(
      dataset.rows(), dataset.cols() * sizeof(double));
  const size_t spilled = CountSpilled(partitions);
  ASSERT_GT(spilled, 0u);
  ASSERT_LT(spilled, partitions.size());

  auto result = cluster
                    .RunLogisticRegression(dataset.features(), y, 1e-4,
                                           FixedLbfgs(), RegionOf(dataset))
                    .ValueOrDie();
  ASSERT_EQ(result.stats.instance_exec.size(), 2u);

  uint64_t total_refaults = 0;
  uint64_t refault_bytes = 0;
  for (const InstanceExecStats& instance : result.stats.instance_exec) {
    total_refaults += instance.spill_refaults;
    refault_bytes += instance.spill_refault_bytes;
    // Cached partitions are never force-evicted; their measured passes
    // run every job.
    EXPECT_GT(instance.cached.passes, 0u);
    EXPECT_EQ(instance.cached.passes % result.stats.jobs, 0u);
    // The cached set fits its share of the instance budget (that is what
    // made it cached), so the pinned pages never churn; spilled scans run
    // under the leftover budget and evict as they go.
    EXPECT_EQ(instance.cached.evictions, 0u);
    EXPECT_GT(instance.spilled.evictions, 0u);
    // The accounting invariant holds per instance and per cache class.
    EXPECT_EQ(instance.cached.prefetches,
              instance.cached.prefetch_hits + instance.cached.stalls +
                  instance.cached.prefetch_unclassified);
    EXPECT_EQ(instance.spilled.prefetches,
              instance.spilled.prefetch_hits + instance.spilled.stalls +
                  instance.spilled.prefetch_unclassified);
  }
  // One forced re-fault per spilled partition per job: the counter grows
  // with every job.
  EXPECT_GT(result.stats.jobs, 1u);
  EXPECT_EQ(total_refaults, spilled * result.stats.jobs);
  EXPECT_GT(refault_bytes, 0u);

  // A shorter run re-faults proportionally less (growth per job, not a
  // one-time cost).
  ml::LbfgsOptions one_step = FixedLbfgs();
  one_step.max_iterations = 1;
  auto short_run = cluster
                       .RunLogisticRegression(dataset.features(), y, 1e-4,
                                              one_step, RegionOf(dataset))
                       .ValueOrDie();
  uint64_t short_refaults = 0;
  for (const InstanceExecStats& instance : short_run.stats.instance_exec) {
    short_refaults += instance.spill_refaults;
  }
  EXPECT_EQ(short_refaults, spilled * short_run.stats.jobs);
  EXPECT_LT(short_refaults, total_refaults);
}

TEST_F(MappedClusterTest, TaskOrderIsStridedByInstance) {
  // The strided interleaving visits instance 0's partitions first, then
  // instance 1's, ... — each instance scanning its own shard (stride =
  // instance count, offset = instance id via round-robin assignment).
  ClusterConfig config = PipelinedConfig(3, 1, 0);
  SparkCluster cluster(config);
  const std::vector<Partition> partitions =
      cluster.PlanPartitions(1200, 16 * sizeof(double));
  const exec::ChunkSchedule order =
      exec::ChunkSchedule::Strided(partitions.size(), config.num_instances);
  size_t last_instance = 0;
  for (size_t pos = 0; pos < order.num_chunks(); ++pos) {
    const size_t instance = partitions[order.At(pos)].instance;
    EXPECT_GE(instance, last_instance) << "instances interleave";
    last_instance = instance;
  }
  EXPECT_EQ(last_instance, config.num_instances - 1);
}

TEST_F(MappedClusterTest, RejectsMismatchedRegion) {
  auto dataset = MappedDataset::Open(path_).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());
  exec::MappedRegion bogus = RegionOf(dataset);
  bogus.row_bytes = 8;  // not cols * sizeof(double)
  auto result = SparkCluster(PipelinedConfig(2, 1))
                    .RunLogisticRegression(dataset.features(), y, 0.0,
                                           FixedLbfgs(), bogus);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace m3::cluster
