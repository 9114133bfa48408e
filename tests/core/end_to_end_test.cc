// End-to-end pipeline tests over generated digit data: the complete
// journey a downstream user takes — generate, map, train, persist, reload,
// predict — with every stage running against the memory-mapped file.

#include <gtest/gtest.h>

#include <filesystem>

#include "core/m3.h"
#include "data/dataset.h"
#include "data/infimnist.h"
#include "ml/metrics.h"
#include "ml/model_io.h"

namespace m3 {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_e2e_test_" + std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(EndToEndTest, BinaryDigitsPipelineWithPersistence) {
  // Generate -> map -> train -> save -> reload -> identical predictions.
  const std::string data_path = dir_ + "/digits.m3";
  ASSERT_TRUE(data::GenerateInfimnistDataset(data_path, 1200, 5, true).ok());
  auto dataset = MappedDataset::Open(data_path).ValueOrDie();

  ml::LogisticRegressionOptions options;
  options.lbfgs = PaperLbfgsOptions();
  auto model = TrainLogisticRegression(dataset, options).ValueOrDie();

  const std::string model_path = dir_ + "/model.m3ml";
  ASSERT_TRUE(ml::SaveModel(model_path, model).ok());
  auto reloaded = ml::LoadLogisticRegressionModel(model_path).ValueOrDie();

  auto features = dataset.features();
  size_t correct = 0;
  for (size_t i = 0; i < dataset.rows(); ++i) {
    const double original = model.Predict(features.Row(i));
    const double restored = reloaded.Predict(features.Row(i));
    ASSERT_EQ(original, restored) << "row " << i;
    if (original == dataset.labels()[i]) {
      ++correct;
    }
  }
  // Raw pixels, 10 L-BFGS iterations: clearly above chance.
  EXPECT_GT(static_cast<double>(correct) / dataset.rows(), 0.75);
}

TEST_F(EndToEndTest, TenClassSoftmaxOnMappedDigits) {
  const std::string train_path = dir_ + "/train.m3";
  const std::string test_path = dir_ + "/test.m3";
  ASSERT_TRUE(data::GenerateInfimnistDataset(train_path, 1500, 1, false).ok());
  ASSERT_TRUE(data::GenerateInfimnistDataset(test_path, 500, 2, false).ok());
  auto train = MappedDataset::Open(train_path).ValueOrDie();
  auto test = MappedDataset::Open(test_path).ValueOrDie();

  ml::SoftmaxRegressionOptions options;
  options.l2 = 1e-5;
  options.lbfgs.max_iterations = 25;
  auto model = ml::SoftmaxRegression(options)
                   .Train(train.features(), train.labels(), 10)
                   .ValueOrDie();

  std::vector<double> predictions(test.rows());
  for (size_t i = 0; i < test.rows(); ++i) {
    predictions[i] =
        static_cast<double>(model.Predict(test.features().Row(i)));
  }
  const double accuracy = ml::Accuracy(predictions, test.CopyLabels());
  // Held-out digits from an independent stream: well above the 10% chance
  // floor even with few iterations.
  EXPECT_GT(accuracy, 0.6) << "held-out accuracy " << accuracy;

  // Persistence round-trip preserves predictions.
  const std::string model_path = dir_ + "/softmax.m3ml";
  ASSERT_TRUE(ml::SaveModel(model_path, model).ok());
  auto reloaded = ml::LoadSoftmaxRegressionModel(model_path).ValueOrDie();
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_EQ(model.Predict(test.features().Row(i)),
              reloaded.Predict(test.features().Row(i)));
  }
}

TEST_F(EndToEndTest, KMeansCentersPersistAndReassignIdentically) {
  const std::string path = dir_ + "/km.m3";
  ASSERT_TRUE(data::GenerateInfimnistDataset(path, 600, 3, false).ok());
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  ml::KMeansOptions options = PaperKMeansOptions();
  options.max_iterations = 5;
  auto result = TrainKMeans(dataset, options).ValueOrDie();

  const std::string centers_path = dir_ + "/centers.m3ml";
  ASSERT_TRUE(ml::SaveCenters(centers_path, result.centers).ok());
  auto centers = ml::LoadCenters(centers_path).ValueOrDie();
  auto before = ml::KMeans::Assign(dataset.features(), result.centers);
  auto after = ml::KMeans::Assign(dataset.features(), centers);
  EXPECT_EQ(before, after);
}

}  // namespace
}  // namespace m3
