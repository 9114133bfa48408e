// The headline M3 integration test: an algorithm trained on a
// memory-mapped dataset must produce results identical to the same
// algorithm trained on the same data held in RAM. This is the paper's
// core claim ("memory mapping a dataset allows it to be treated
// identically as an in-memory dataset").

#include <gtest/gtest.h>

#include <filesystem>

#include "core/m3.h"
#include "data/synthetic.h"
#include "la/blas.h"
#include "ml/metrics.h"
#include "ml/sgd.h"

namespace m3 {
namespace {

class M3IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_int_test_" + std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(M3IntegrationTest, LogisticRegressionIdenticalOnMmapAndRam) {
  data::SeparableResult sep = data::LinearlySeparable(3000, 12, 0.05, 42);
  const std::string path = dir_ + "/lr.m3";
  ASSERT_TRUE(
      data::WriteDataset(path, sep.data.features, sep.data.labels, 2).ok());

  // RAM path.
  la::ConstVectorView y(sep.data.labels.data(), sep.data.labels.size());
  ml::LogisticRegressionOptions options;
  options.lbfgs = PaperLbfgsOptions();
  auto ram_model =
      ml::LogisticRegression(options).Train(sep.data.features, y).ValueOrDie();

  // M3 path (same options, mapped views).
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  auto m3_model = TrainLogisticRegression(dataset, options).ValueOrDie();

  ASSERT_EQ(ram_model.weights.size(), m3_model.weights.size());
  for (size_t i = 0; i < ram_model.weights.size(); ++i) {
    ASSERT_EQ(ram_model.weights[i], m3_model.weights[i])
        << "weight " << i << " differs between RAM and mmap training";
  }
  ASSERT_EQ(ram_model.intercept, m3_model.intercept);
}

TEST_F(M3IntegrationTest, KMeansIdenticalOnMmapAndRam) {
  data::BlobsResult blobs = data::GaussianBlobs(2000, 8, 5, 1.0, 7);
  const std::string path = dir_ + "/km.m3";
  ASSERT_TRUE(
      data::WriteDataset(path, blobs.data.features, blobs.data.labels, 5)
          .ok());

  ml::KMeansOptions options = PaperKMeansOptions();
  options.seed = 99;
  auto ram_result =
      ml::KMeans(options).Cluster(blobs.data.features).ValueOrDie();

  auto dataset = MappedDataset::Open(path).ValueOrDie();
  auto m3_result = TrainKMeans(dataset, options).ValueOrDie();

  ASSERT_EQ(ram_result.inertia, m3_result.inertia);
  for (size_t c = 0; c < 5; ++c) {
    for (size_t d = 0; d < 8; ++d) {
      ASSERT_EQ(ram_result.centers(c, d), m3_result.centers(c, d));
    }
  }
}

TEST_F(M3IntegrationTest, RamBudgetDoesNotChangeResults) {
  // Eviction must be purely a performance emulation: training under an
  // absurdly small budget gives bit-identical models.
  data::SeparableResult sep = data::LinearlySeparable(2000, 10, 0.05, 11);
  const std::string path = dir_ + "/budget.m3";
  ASSERT_TRUE(
      data::WriteDataset(path, sep.data.features, sep.data.labels, 2).ok());

  ml::LogisticRegressionOptions options;
  options.lbfgs = PaperLbfgsOptions();
  options.chunk_rows = 128;

  auto unbudgeted = MappedDataset::Open(path).ValueOrDie();
  auto model_full = TrainLogisticRegression(unbudgeted, options).ValueOrDie();

  M3Options tight;
  tight.ram_budget_bytes = 64 << 10;  // 64 KiB "RAM" vs ~160 KB data
  tight.chunk_rows = 128;
  auto budgeted = MappedDataset::Open(path, tight).ValueOrDie();
  auto model_tight = TrainLogisticRegression(budgeted, options).ValueOrDie();

  ASSERT_GT(budgeted.ram_budget()->bytes_evicted(), 0u)
      << "budget emulator never fired";
  for (size_t i = 0; i < model_full.weights.size(); ++i) {
    ASSERT_EQ(model_full.weights[i], model_tight.weights[i]);
  }
  ASSERT_EQ(model_full.intercept, model_tight.intercept);
}

TEST_F(M3IntegrationTest, SgdRunsOnMappedData) {
  data::SeparableResult sep = data::LinearlySeparable(2000, 6, 0.0, 21);
  const std::string path = dir_ + "/sgd.m3";
  ASSERT_TRUE(
      data::WriteDataset(path, sep.data.features, sep.data.labels, 2).ok());
  auto dataset = MappedDataset::Open(path).ValueOrDie();

  ml::LogisticRegressionObjective objective(dataset.features(),
                                            dataset.labels(), 1e-4);
  la::Vector w(objective.Dimension());
  ml::SgdOptions options;
  options.epochs = 8;
  options.learning_rate = 0.5;
  auto result = ml::Sgd(options).Minimize(&objective, w);
  ASSERT_TRUE(result.ok());

  ml::LogisticRegressionModel model;
  model.weights = la::Vector(6);
  la::Copy(w.View().Slice(0, 6), model.weights);
  model.intercept = w[6];
  std::vector<double> predictions(2000);
  for (size_t i = 0; i < 2000; ++i) {
    predictions[i] = model.Predict(dataset.features().Row(i));
  }
  EXPECT_GT(ml::Accuracy(predictions, dataset.CopyLabels()), 0.95);
}

TEST_F(M3IntegrationTest, MmapAllocDoublesImplementsTableOne) {
  const std::string file = dir_ + "/table1.bin";
  const size_t rows = 32, cols = 4;
  // M3 version of Table 1:
  auto region = MmapAllocDoubles(file, rows * cols).ValueOrDie();
  double* m = region.As<double>();
  la::MatrixView data(m, rows, cols);
  data.Fill(1.5);
  ASSERT_TRUE(region.Sync().ok());
  // The file now holds the matrix.
  EXPECT_EQ(io::FileSize(file).ValueOrDie(), rows * cols * sizeof(double));
  auto reread = io::MemoryMappedFile::Map(file).ValueOrDie();
  EXPECT_DOUBLE_EQ(reread.As<const double>()[rows * cols - 1], 1.5);
}

TEST_F(M3IntegrationTest, PaperOptionsMatchPublishedSetup) {
  EXPECT_EQ(PaperLbfgsOptions().max_iterations, 10u);
  EXPECT_EQ(PaperKMeansOptions().k, 5u);
  EXPECT_EQ(PaperKMeansOptions().max_iterations, 10u);
}

}  // namespace
}  // namespace m3
