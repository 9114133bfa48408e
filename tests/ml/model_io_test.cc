#include "ml/model_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <string>

#include "io/file.h"

namespace m3::ml {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_modelio_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  std::string dir_;
};

TEST_F(ModelIoTest, LogisticRegressionRoundTrip) {
  LogisticRegressionModel model;
  model.weights = la::Vector(std::vector<double>{1.5, -2.25, 0.0, 1e-300});
  model.intercept = -0.75;
  const std::string path = Path("lr.m3ml");
  ASSERT_TRUE(SaveModel(path, model).ok());
  auto loaded = LoadLogisticRegressionModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().weights.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(loaded.value().weights[i], model.weights[i]);
  }
  EXPECT_EQ(loaded.value().intercept, model.intercept);
}

TEST_F(ModelIoTest, SoftmaxRoundTrip) {
  SoftmaxRegressionModel model;
  model.weights = la::Matrix(3, 2, std::vector<double>{1, 2, 3, 4, 5, 6});
  model.biases = la::Vector(std::vector<double>{-1, 0, 1});
  const std::string path = Path("softmax.m3ml");
  ASSERT_TRUE(SaveModel(path, model).ok());
  auto loaded = LoadSoftmaxRegressionModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_classes(), 3u);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(loaded.value().weights(c, d), model.weights(c, d));
    }
    EXPECT_EQ(loaded.value().biases[c], model.biases[c]);
  }
  // Predictions must agree.
  la::Vector x(std::vector<double>{0.3, -0.7});
  EXPECT_EQ(loaded.value().Predict(x), model.Predict(x));
}

TEST_F(ModelIoTest, CentersRoundTrip) {
  la::Matrix centers(2, 3, std::vector<double>{9, 8, 7, 6, 5, 4});
  const std::string path = Path("centers.m3ml");
  ASSERT_TRUE(SaveCenters(path, centers).ok());
  auto loaded = LoadCenters(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(loaded.value()(r, c), centers(r, c));
    }
  }
}

TEST_F(ModelIoTest, KindMismatchRejected) {
  LogisticRegressionModel model;
  model.weights = la::Vector(2);
  const std::string path = Path("kind.m3ml");
  ASSERT_TRUE(SaveModel(path, model).ok());
  auto as_softmax = LoadSoftmaxRegressionModel(path);
  ASSERT_FALSE(as_softmax.ok());
  EXPECT_EQ(as_softmax.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_FALSE(LoadCenters(path).ok());
}

TEST_F(ModelIoTest, GarbageRejected) {
  const std::string path = Path("garbage.m3ml");
  ASSERT_TRUE(io::WriteStringToFile(path, "not a model at all").ok());
  EXPECT_FALSE(LoadLogisticRegressionModel(path).ok());
}

TEST_F(ModelIoTest, TruncatedPayloadRejected) {
  LogisticRegressionModel model;
  model.weights = la::Vector(16, 1.0);
  const std::string path = Path("trunc.m3ml");
  ASSERT_TRUE(SaveModel(path, model).ok());
  auto contents = io::ReadFileToString(path).ValueOrDie();
  contents.resize(contents.size() - 9);
  ASSERT_TRUE(io::WriteStringToFile(path, contents).ok());
  EXPECT_FALSE(LoadLogisticRegressionModel(path).ok());
}

// Sizes read from a model file are bounded by the bytes left in it, before
// anything is allocated: a declared 2^32 x 2^32 matrix (whose element count
// wraps to 0) or 2^24 weights in a 24-byte file are malformed input.
TEST_F(ModelIoTest, ImplausibleShapesRejected) {
  auto file_with = [](uint32_t kind, std::initializer_list<uint64_t> sizes) {
    const uint32_t header[4] = {0, /*version=*/1, kind, /*reserved=*/0};
    std::string bytes(reinterpret_cast<const char*>(header), sizeof(header));
    bytes.replace(0, 4, "M3ML");
    for (const uint64_t size : sizes) {
      bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
    }
    return bytes;
  };
  const std::string centers = Path("huge_centers.m3ml");
  ASSERT_TRUE(io::WriteStringToFile(
                  centers, file_with(/*kind=*/3, {1ull << 32, 1ull << 32}))
                  .ok());
  auto loaded_centers = LoadCenters(centers);
  ASSERT_FALSE(loaded_centers.ok());
  EXPECT_EQ(loaded_centers.status().code(),
            util::StatusCode::kInvalidArgument);

  const std::string lr = Path("huge_lr.m3ml");
  ASSERT_TRUE(
      io::WriteStringToFile(lr, file_with(/*kind=*/1, {1ull << 24})).ok());
  auto loaded_lr = LoadLogisticRegressionModel(lr);
  ASSERT_FALSE(loaded_lr.ok());
  EXPECT_EQ(loaded_lr.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, MissingFileRejected) {
  EXPECT_FALSE(LoadLogisticRegressionModel(Path("missing.m3ml")).ok());
}

TEST_F(ModelIoTest, EmptyWeightsRoundTrip) {
  LogisticRegressionModel model;  // zero-dim weights
  const std::string path = Path("empty.m3ml");
  ASSERT_TRUE(SaveModel(path, model).ok());
  auto loaded = LoadLogisticRegressionModel(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().weights.size(), 0u);
}

}  // namespace
}  // namespace m3::ml
