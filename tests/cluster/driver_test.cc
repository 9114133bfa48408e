// Driver suite: the distributed L-BFGS and k-means drivers against a fake
// JobExecutor, no fork and no pipelines. Pins the two contracts every
// executor relies on: a failed job ends the run with its Status and no
// further job, and partials fold in exactly the order the executor emits
// them (so an executor that emits in the strided task order reproduces
// the simulator's fold, whatever substrate ran the kernels).

#include "cluster/driver.h"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "io/shm_channel.h"

namespace m3::cluster {
namespace {

using Partials = std::vector<std::vector<double>>;

/// Emits whatever partials `emit` scripts for each job; job number
/// `fail_on_job` (1-based; 0 = never) fails instead.
class FakeExecutor final : public JobExecutor {
 public:
  FakeExecutor(std::vector<Partition> partitions,
               std::function<Partials(const ChunkJob&)> emit)
      : partitions_(std::move(partitions)), emit_(std::move(emit)) {}

  const std::vector<Partition>& partitions() const override {
    return partitions_;
  }

  util::Status RunJob(const ChunkJob& job, const FoldFn& fold,
                      JobStats*) override {
    ++jobs;
    if (jobs == fail_on_job) {
      return util::Status::Internal("injected job failure");
    }
    for (const std::vector<double>& partial : emit_(job)) {
      // Every test here trains on one feature (d = 1).
      EXPECT_EQ(partial.size() * sizeof(double), job.PartialBytes(1));
      fold(partial.data());
    }
    return util::Status::OK();
  }

  double PredictExecSeconds(uint64_t, bool) const override { return 0; }

  size_t jobs = 0;
  size_t fail_on_job = 0;

 private:
  std::vector<Partition> partitions_;
  std::function<Partials(const ChunkJob&)> emit_;
};

ml::LbfgsOptions FixedLbfgs() {
  ml::LbfgsOptions lbfgs;
  lbfgs.max_iterations = 8;
  lbfgs.gradient_tolerance = 0;
  lbfgs.objective_tolerance = 0;
  return lbfgs;
}

class LrDriverTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LrDriverTest, FailedJobEndsTheRunWithItsStatus) {
  data::SeparableResult sep = data::LinearlySeparable(200, 1, 0.05, 3);
  const la::ConstMatrixView x = sep.data.features;
  const la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());
  const std::vector<Partition> partitions = MakePartitions(200, 4, 2, 200);
  // Successful jobs emit the real kernel's partial per partition.
  FakeExecutor executor(partitions, [&](const ChunkJob& job) {
    EXPECT_EQ(job.kind, io::ShmChannel::kJobLrGradient);
    Partials partials;
    for (const Partition& partition : partitions) {
      partials.emplace_back(job.PartialBytes(x.cols()) / sizeof(double));
      RunChunkKernel(job, x, y, partition.row_begin, partition.row_end,
                     partials.back().data());
    }
    return partials;
  });
  executor.fail_on_job = GetParam();

  auto result = DriveLogisticRegression(&executor, ClusterConfig(), x, 1e-4,
                                        FixedLbfgs());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("injected job failure"),
            std::string::npos)
      << result.status().message();
  // The failure latched: L-BFGS kept evaluating, but no job was issued
  // after the failed one.
  EXPECT_EQ(executor.jobs, GetParam());
}

INSTANTIATE_TEST_SUITE_P(FailOnJob, LrDriverTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{4}));

/// One k-means partial for k = 1, d = 1: [inertia][sum][u64 count].
std::vector<double> KMeansPartial(double inertia, double sum, uint64_t count) {
  std::vector<double> partial(3);
  partial[0] = inertia;
  partial[1] = sum;
  std::memcpy(&partial[2], &count, sizeof(count));
  return partial;
}

TEST(KMeansDriverTest, FoldsPartialsInEmissionOrder) {
  // FP addition is not associative: {1e16, -1e16, 1} sums to 1 left to
  // right, but {1e16, 1, -1e16} sums to 0 (1e16 + 1 rounds back to 1e16).
  // The driver's inertia and center must be the left fold of whatever
  // order the executor emitted.
  const la::Matrix x(3, 1);
  la::Matrix init(1, 1);
  ml::KMeansOptions options;
  options.k = 1;
  options.max_iterations = 1;
  options.initial_centers = &init;

  struct Case {
    std::vector<double> values;
    double folded;
  };
  for (const Case& c : {Case{{1e16, -1e16, 1.0}, 1.0},
                        Case{{1e16, 1.0, -1e16}, 0.0}}) {
    FakeExecutor executor(MakePartitions(3, 3, 1, 3), [&](const ChunkJob& job) {
      EXPECT_EQ(job.kind, io::ShmChannel::kJobKMeansIteration);
      EXPECT_EQ(job.k, 1u);
      Partials partials;
      for (const double v : c.values) {
        partials.push_back(KMeansPartial(v, v, 1));
      }
      return partials;
    });
    auto result = DriveKMeans(&executor, ClusterConfig(), x, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const ml::KMeansResult& clustering = result.value().clustering;
    ASSERT_EQ(clustering.inertia_history.size(), 1u);
    EXPECT_EQ(clustering.inertia_history[0], c.folded);
    EXPECT_EQ(clustering.centers(0, 0), c.folded * (1.0 / 3.0));
    EXPECT_EQ(executor.jobs, 1u);
  }
}

TEST(KMeansDriverTest, FailedJobEndsTheRun) {
  const la::Matrix x(3, 1);
  ml::KMeansOptions options;
  options.k = 1;
  options.max_iterations = 5;
  FakeExecutor executor(MakePartitions(3, 3, 1, 3), [](const ChunkJob&) {
    return Partials{KMeansPartial(1.0, 1.0, 3)};
  });
  executor.fail_on_job = 2;
  auto result = DriveKMeans(&executor, ClusterConfig(), x, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kInternal);
  EXPECT_EQ(executor.jobs, 2u);
}

}  // namespace
}  // namespace m3::cluster
