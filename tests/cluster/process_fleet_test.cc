// Process-fleet suite: the forked worker fleet must be *bitwise*
// interchangeable with the in-process SparkCluster simulator — same
// partition plan, same strided fold order, same la:: kernels — at every
// fleet size, for LR and k-means alike. The crash tests pin the failure
// contract: a SIGKILLed or hung worker turns into a Status error within
// the phase deadline, with the whole fleet reaped (no zombies, no parent
// hang) and the partial stats marked incomplete.

#include "cluster/process_fleet.h"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "cluster/spark_cluster.h"
#include "core/mapped_dataset.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "io/file.h"
#include "la/blas.h"
#include "util/stopwatch.h"

namespace m3::cluster {
namespace {

ClusterConfig FleetConfig(size_t instances, bool pipelines,
                          uint64_t chunk_rows = 50) {
  ClusterConfig config;
  config.num_instances = instances;
  config.cores_per_instance = 4;
  config.instance_ram_bytes = 1ull << 30;
  config.local_cpu_seconds_per_byte = 1e-9;
  config.exec.use_pipelines = pipelines;
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

ml::KMeansOptions FixedKMeans() {
  ml::KMeansOptions options;
  options.k = 5;
  options.max_iterations = 6;
  options.tolerance = 0;
  return options;
}

class ProcessFleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_process_fleet_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
    data::SeparableResult sep = data::LinearlySeparable(1600, 16, 0.05, 7);
    path_ = dir_ + "/fleet.m3";
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

  // The tier-1 tree must never leak children: every test ends with the
  // whole process childless (a zombie here is a reaping bug in the fleet).
  static void ExpectNoChildren() {
    errno = 0;
    EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
    EXPECT_EQ(errno, ECHILD);
  }

  std::string dir_;
  std::string path_;
};

// ---------------------------------------------------------------------------
// Bitwise equivalence with the simulator
// ---------------------------------------------------------------------------

TEST_F(ProcessFleetTest, LrBitwiseMatchesSimulatorAcrossFleetSizes) {
  for (const size_t instances : {size_t{1}, size_t{2}, size_t{4}}) {
    const ClusterConfig config = FleetConfig(instances, /*pipelines=*/true);

    // Fork the fleet FIRST: Spawn() must precede any parent threads, and
    // the simulator's pipeline pools below are all joined by the time the
    // fleet runs its own job.
    FleetOptions fleet_options;
    fleet_options.config = config;
    fleet_options.phase_deadline_seconds = 120;
    auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();
    ASSERT_EQ(fleet->pids().size(), instances);

    auto dataset = MappedDataset::Open(path_).ValueOrDie();
    const std::vector<double> labels = dataset.CopyLabels();
    const la::ConstVectorView y(labels.data(), labels.size());
    auto baseline = SparkCluster(config)
                        .RunLogisticRegression(dataset.features(), y, 1e-4,
                                               FixedLbfgs(), RegionOf(dataset))
                        .ValueOrDie();

    auto result = fleet->RunLogisticRegression(1e-4, FixedLbfgs())
                      .ValueOrDie();
    EXPECT_TRUE(BitwiseEqual(baseline.model.weights, result.model.weights))
        << "instances=" << instances;
    EXPECT_EQ(std::memcmp(&baseline.model.intercept, &result.model.intercept,
                          sizeof(double)),
              0)
        << "instances=" << instances;
    EXPECT_EQ(baseline.optimization.iterations,
              result.optimization.iterations);

    // The workers' pipelines measured real chunk traffic, and the stats
    // crossed the shm boundary intact.
    ASSERT_EQ(result.stats.instance_exec.size(), instances);
    uint64_t measured_chunks = 0;
    for (const InstanceExecStats& instance : result.stats.instance_exec) {
      EXPECT_FALSE(instance.incomplete);
      measured_chunks += instance.cached.chunks + instance.spilled.chunks;
    }
    EXPECT_GT(measured_chunks, 0u);
    EXPECT_FALSE(result.stats.incomplete);

    EXPECT_TRUE(fleet->Shutdown().ok());
    EXPECT_TRUE(fleet->Shutdown().ok());  // idempotent
    EXPECT_TRUE(fleet->pids().empty());
    ExpectNoChildren();
  }
}

TEST_F(ProcessFleetTest, LrBitwiseMatchesSimulatorWithPipelinesOff) {
  const ClusterConfig config = FleetConfig(2, /*pipelines=*/false);
  FleetOptions fleet_options;
  fleet_options.config = config;
  fleet_options.phase_deadline_seconds = 120;
  auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();

  auto dataset = MappedDataset::Open(path_).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());
  auto baseline = SparkCluster(config)
                      .RunLogisticRegression(dataset.features(), y, 1e-4,
                                             FixedLbfgs(), RegionOf(dataset))
                      .ValueOrDie();

  auto result = fleet->RunLogisticRegression(1e-4, FixedLbfgs()).ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(baseline.model.weights, result.model.weights));
  EXPECT_TRUE(fleet->Shutdown().ok());
  ExpectNoChildren();
}

TEST_F(ProcessFleetTest, KMeansBitwiseMatchesSimulatorAcrossFleetSizes) {
  for (const size_t instances : {size_t{1}, size_t{2}, size_t{4}}) {
    const ClusterConfig config = FleetConfig(instances, /*pipelines=*/true);
    FleetOptions fleet_options;
    fleet_options.config = config;
    fleet_options.phase_deadline_seconds = 120;
    auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();

    auto dataset = MappedDataset::Open(path_).ValueOrDie();
    auto baseline = SparkCluster(config)
                        .RunKMeans(dataset.features(), FixedKMeans(),
                                   RegionOf(dataset))
                        .ValueOrDie();

    auto result = fleet->RunKMeans(FixedKMeans()).ValueOrDie();
    ASSERT_EQ(baseline.clustering.centers.rows(),
              result.clustering.centers.rows());
    for (size_t c = 0; c < result.clustering.centers.rows(); ++c) {
      EXPECT_TRUE(BitwiseEqual(baseline.clustering.centers.Row(c),
                               result.clustering.centers.Row(c)))
          << "instances=" << instances << " center=" << c;
    }
    ASSERT_EQ(baseline.clustering.inertia_history.size(),
              result.clustering.inertia_history.size());
    for (size_t i = 0; i < result.clustering.inertia_history.size(); ++i) {
      EXPECT_EQ(std::memcmp(&baseline.clustering.inertia_history[i],
                            &result.clustering.inertia_history[i],
                            sizeof(double)),
                0)
          << "instances=" << instances << " iteration=" << i;
    }
    EXPECT_EQ(baseline.clustering.iterations, result.clustering.iterations);

    EXPECT_TRUE(fleet->Shutdown().ok());
    ExpectNoChildren();
  }
}

TEST_F(ProcessFleetTest, SpawnAfterGlobalPoolUseMatchesSimulator) {
  // Regression: fork() copies util::GlobalThreadPool() but not its
  // threads. A fleet spawned after the parent had used the pool got
  // workers that blocked forever on their first parallel chunk kernel
  // (more than 512 rows per chunk) and failed on the phase deadline.
  data::SeparableResult sep = data::LinearlySeparable(4096, 8, 0.05, 11);
  const std::string path = dir_ + "/wide_chunks.m3";
  ASSERT_TRUE(data::WriteDataset(path, sep.data.features, sep.data.labels,
                                 2)
                  .ok());
  // Two partitions of 2048 rows, scanned in 1024-row chunks.
  ClusterConfig config = FleetConfig(2, /*pipelines=*/true,
                                     /*chunk_rows=*/1024);
  config.cores_per_instance = 1;
  config.partitions_per_core = 1;

  // The simulator runs first, so the parent's global pool is live (and
  // has run the same >512-row chunk kernels) when the fleet forks.
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());
  auto baseline = SparkCluster(config)
                      .RunLogisticRegression(dataset.features(), y, 1e-4,
                                             FixedLbfgs(), RegionOf(dataset))
                      .ValueOrDie();

  FleetOptions fleet_options;
  fleet_options.config = config;
  fleet_options.phase_deadline_seconds = 20;
  auto fleet = ProcessFleet::Spawn(path, fleet_options).ValueOrDie();
  auto result = fleet->RunLogisticRegression(1e-4, FixedLbfgs());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(BitwiseEqual(baseline.model.weights,
                           result.value().model.weights));
  EXPECT_EQ(std::memcmp(&baseline.model.intercept,
                        &result.value().model.intercept, sizeof(double)),
            0);
  EXPECT_TRUE(fleet->Shutdown().ok());
  ExpectNoChildren();
}

// ---------------------------------------------------------------------------
// Crash and hang injection
// ---------------------------------------------------------------------------

TEST_F(ProcessFleetTest, SigkilledWorkerFailsFastWithoutZombies) {
  FleetOptions fleet_options;
  fleet_options.config = FleetConfig(2, /*pipelines=*/true);
  fleet_options.phase_deadline_seconds = 30;
  auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();
  ASSERT_EQ(fleet->pids().size(), 2u);

  ASSERT_EQ(::kill(fleet->pids()[0], SIGKILL), 0);

  // Death is detected by pipe EOF, far before the deadline — the run must
  // fail promptly, not sit out the full phase budget.
  util::Stopwatch stopwatch;
  auto result = fleet->RunLogisticRegression(1e-4, FixedLbfgs());
  EXPECT_FALSE(result.ok());
  EXPECT_LT(stopwatch.ElapsedSeconds(), fleet_options.phase_deadline_seconds);
  EXPECT_NE(result.status().message().find("died"), std::string::npos)
      << result.status().message();
  // KillAll reaped the zombie with its ORIGINAL death cause.
  EXPECT_NE(result.status().message().find("killed by signal"),
            std::string::npos)
      << result.status().message();

  EXPECT_FALSE(fleet->alive());
  EXPECT_TRUE(fleet->pids().empty());
  ExpectNoChildren();

  // The failed run's partial stats are preserved and flagged.
  EXPECT_TRUE(fleet->last_run_stats().incomplete);
  ASSERT_EQ(fleet->last_run_stats().instance_exec.size(), 2u);
  EXPECT_TRUE(fleet->last_run_stats().instance_exec[0].incomplete);

  // A dead fleet refuses further work instead of hanging.
  auto again = fleet->RunKMeans(FixedKMeans());
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), util::StatusCode::kFailedPrecondition);

  // A fresh fleet over the same dataset still reproduces the simulator
  // bitwise — the crash left no persistent state behind.
  auto dataset = MappedDataset::Open(path_).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());
  auto baseline = SparkCluster(fleet_options.config)
                      .RunLogisticRegression(dataset.features(), y, 1e-4,
                                             FixedLbfgs(), RegionOf(dataset))
                      .ValueOrDie();
  auto retry_fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();
  auto retry = retry_fleet->RunLogisticRegression(1e-4, FixedLbfgs())
                   .ValueOrDie();
  EXPECT_TRUE(BitwiseEqual(baseline.model.weights, retry.model.weights));
  EXPECT_TRUE(retry_fleet->Shutdown().ok());
  ExpectNoChildren();
}

TEST_F(ProcessFleetTest, HungWorkerHitsThePhaseDeadline) {
  FleetOptions fleet_options;
  fleet_options.config = FleetConfig(2, /*pipelines=*/true);
  fleet_options.phase_deadline_seconds = 1.5;
  fleet_options.hang_worker = 1;
  auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();

  util::Stopwatch stopwatch;
  auto result = fleet->RunLogisticRegression(1e-4, FixedLbfgs());
  const double elapsed = stopwatch.ElapsedSeconds();
  EXPECT_FALSE(result.ok());
  // The parent waited the phase budget for the hung worker — no more
  // (generous upper slack for loaded CI machines).
  EXPECT_GE(elapsed, 1.0);
  EXPECT_LT(elapsed, 20.0);
  EXPECT_NE(result.status().message().find("deadline"), std::string::npos)
      << result.status().message();

  EXPECT_FALSE(fleet->alive());
  EXPECT_TRUE(fleet->pids().empty());
  EXPECT_TRUE(fleet->last_run_stats().incomplete);
  ASSERT_EQ(fleet->last_run_stats().instance_exec.size(), 2u);
  EXPECT_TRUE(fleet->last_run_stats().instance_exec[1].incomplete);
  ExpectNoChildren();
}

// ---------------------------------------------------------------------------
// Spawn/option validation
// ---------------------------------------------------------------------------

TEST_F(ProcessFleetTest, SpawnRejectsBadOptionsAndMissingDataset) {
  FleetOptions fleet_options;
  fleet_options.config = FleetConfig(2, /*pipelines=*/false);

  FleetOptions bad_deadline = fleet_options;
  bad_deadline.phase_deadline_seconds = 0;
  EXPECT_FALSE(ProcessFleet::Spawn(path_, bad_deadline).ok());

  FleetOptions bad_k = fleet_options;
  bad_k.max_kmeans_k = 0;
  EXPECT_FALSE(ProcessFleet::Spawn(path_, bad_k).ok());

  EXPECT_FALSE(ProcessFleet::Spawn(dir_ + "/missing.m3", fleet_options).ok());
  ExpectNoChildren();
}

TEST_F(ProcessFleetTest, RunKMeansRejectsKBeyondSlotCapacity) {
  FleetOptions fleet_options;
  fleet_options.config = FleetConfig(1, /*pipelines=*/false);
  fleet_options.max_kmeans_k = 4;
  auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();

  ml::KMeansOptions options = FixedKMeans();
  options.k = 5;  // > max_kmeans_k: slots were sized for 4 at Spawn
  auto result = fleet->RunKMeans(options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(fleet->alive());  // a rejected job does not kill the fleet

  options.k = 4;
  EXPECT_TRUE(fleet->RunKMeans(options).ok());
  EXPECT_TRUE(fleet->Shutdown().ok());
  ExpectNoChildren();
}

// ---------------------------------------------------------------------------
// Per-worker trace files
// ---------------------------------------------------------------------------

TEST_F(ProcessFleetTest, WorkersWriteTraceFilesAtShutdown) {
  FleetOptions fleet_options;
  fleet_options.config = FleetConfig(2, /*pipelines=*/true);
  fleet_options.worker_trace_dir = dir_;
  auto fleet = ProcessFleet::Spawn(path_, fleet_options).ValueOrDie();
  ASSERT_TRUE(fleet->RunLogisticRegression(1e-4, FixedLbfgs()).ok());
  EXPECT_TRUE(fleet->Shutdown().ok());
  for (size_t w = 0; w < 2; ++w) {
    const std::string trace = dir_ + "/worker_" + std::to_string(w) + ".json";
    EXPECT_TRUE(std::filesystem::exists(trace)) << trace;
    EXPECT_GT(std::filesystem::file_size(trace), 0u) << trace;
  }
  ExpectNoChildren();
}

}  // namespace
}  // namespace m3::cluster
