#include "ml/metrics.h"

#include <gtest/gtest.h>

#include <cmath>

namespace m3::ml {
namespace {

TEST(MetricsTest, Accuracy) {
  EXPECT_DOUBLE_EQ(Accuracy({1, 0, 1}, {1, 1, 1}), 2.0 / 3);
  EXPECT_DOUBLE_EQ(Accuracy({}, {}), 0.0);
}

TEST(MetricsTest, LogLossOfPerfectAndUncertain) {
  EXPECT_NEAR(LogLoss({1.0, 0.0}, {1, 0}), 0.0, 1e-6);
  EXPECT_NEAR(LogLoss({0.5, 0.5}, {1, 0}), std::log(2.0), 1e-12);
}

TEST(MetricsTest, ConfusionMatrixCounts) {
  la::Matrix confusion =
      ConfusionMatrix({0, 1, 1, 0, 1}, {0, 1, 0, 0, 1}, 2);
  EXPECT_DOUBLE_EQ(confusion(0, 0), 2.0);  // truth 0 predicted 0
  EXPECT_DOUBLE_EQ(confusion(0, 1), 1.0);  // truth 0 predicted 1
  EXPECT_DOUBLE_EQ(confusion(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(confusion(1, 0), 0.0);
}

TEST(MetricsTest, InertiaMatchesManual) {
  la::Matrix x(2, 1, std::vector<double>{0.0, 4.0});
  la::Matrix centers(2, 1, std::vector<double>{1.0, 3.0});
  // 0 -> center 1 (dist2 1), 4 -> center 3 (dist2 1).
  EXPECT_DOUBLE_EQ(Inertia(x, centers), 2.0);
}

TEST(MetricsTest, ClusterPurityPerfectAndMixed) {
  EXPECT_DOUBLE_EQ(ClusterPurity({0, 0, 1, 1}, {5, 5, 3, 3}, 2, 6), 1.0);
  EXPECT_DOUBLE_EQ(ClusterPurity({0, 0, 0, 0}, {1, 1, 2, 2}, 1, 3), 0.5);
}

}  // namespace
}  // namespace m3::ml
