#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "la/blas.h"

namespace m3::data {
namespace {

TEST(GaussianBlobsTest, ShapesAndLabels) {
  BlobsResult blobs = GaussianBlobs(200, 5, 3, 0.5, 42);
  EXPECT_EQ(blobs.data.features.rows(), 200u);
  EXPECT_EQ(blobs.data.features.cols(), 5u);
  EXPECT_EQ(blobs.data.labels.size(), 200u);
  EXPECT_EQ(blobs.centers.rows(), 3u);
  std::set<double> distinct(blobs.data.labels.begin(),
                            blobs.data.labels.end());
  EXPECT_LE(distinct.size(), 3u);
  for (double label : distinct) {
    EXPECT_GE(label, 0.0);
    EXPECT_LT(label, 3.0);
  }
}

TEST(GaussianBlobsTest, PointsNearTheirCenters) {
  BlobsResult blobs = GaussianBlobs(300, 4, 3, 0.25, 7);
  for (size_t i = 0; i < 300; ++i) {
    const size_t c = static_cast<size_t>(blobs.data.labels[i]);
    const double dist = std::sqrt(la::SquaredDistance(
        blobs.data.features.Row(i), blobs.centers.Row(c)));
    // 4-dim N(0, 0.25^2 I): distance above 2 is ~8 sigma, absurdly unlikely.
    EXPECT_LT(dist, 2.0) << "point " << i;
  }
}

TEST(GaussianBlobsTest, DeterministicInSeed) {
  BlobsResult a = GaussianBlobs(50, 3, 2, 1.0, 123);
  BlobsResult b = GaussianBlobs(50, 3, 2, 1.0, 123);
  for (size_t i = 0; i < 50; ++i) {
    for (size_t d = 0; d < 3; ++d) {
      ASSERT_DOUBLE_EQ(a.data.features(i, d), b.data.features(i, d));
    }
  }
  BlobsResult c = GaussianBlobs(50, 3, 2, 1.0, 124);
  EXPECT_NE(a.data.features(0, 0), c.data.features(0, 0));
}

TEST(LinearlySeparableTest, CleanDataIsSeparableByTrueWeights) {
  SeparableResult sep = LinearlySeparable(500, 8, 0.0, 42);
  for (size_t i = 0; i < 500; ++i) {
    const double margin =
        la::Dot(sep.data.features.Row(i), sep.true_weights) + sep.true_bias;
    const double expected = margin > 0 ? 1.0 : 0.0;
    ASSERT_DOUBLE_EQ(sep.data.labels[i], expected);
  }
}

TEST(LinearlySeparableTest, LabelsAreBinary) {
  SeparableResult sep = LinearlySeparable(200, 4, 0.1, 9);
  for (double label : sep.data.labels) {
    EXPECT_TRUE(label == 0.0 || label == 1.0);
  }
}

TEST(LinearlySeparableTest, NoiseFlipsSomeLabels) {
  // With label_noise = 0.3, ~30% of labels disagree with the true margin.
  SeparableResult noisy = LinearlySeparable(1000, 4, 0.3, 5);
  int flips = 0;
  for (size_t i = 0; i < 1000; ++i) {
    const double margin =
        la::Dot(noisy.data.features.Row(i), noisy.true_weights) +
        noisy.true_bias;
    const double unflipped = margin > 0 ? 1.0 : 0.0;
    if (noisy.data.labels[i] != unflipped) {
      ++flips;
    }
  }
  EXPECT_GT(flips, 200);
  EXPECT_LT(flips, 400);
}

TEST(LinearlySeparableTest, ClassesRoughlyBalanced) {
  SeparableResult sep = LinearlySeparable(2000, 6, 0.0, 17);
  double positives = 0;
  for (double label : sep.data.labels) {
    positives += label;
  }
  EXPECT_GT(positives, 300.0);
  EXPECT_LT(positives, 1700.0);
}

}  // namespace
}  // namespace m3::data
