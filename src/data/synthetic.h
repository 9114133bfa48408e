#ifndef M3_DATA_SYNTHETIC_H_
#define M3_DATA_SYNTHETIC_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace m3::data {

/// \brief A dense feature matrix with per-row labels.
struct LabeledData {
  la::Matrix features;
  std::vector<double> labels;
};

/// \brief `k` Gaussian clusters in `dims` dimensions.
///
/// Cluster centers are drawn uniformly in [-10, 10]^dims, points are
/// center + N(0, stddev^2 I). Labels are the cluster indices — ground truth
/// for the k-means tests. Deterministic in `seed`.
struct BlobsResult {
  LabeledData data;
  la::Matrix centers;  // k x dims
};
BlobsResult GaussianBlobs(size_t num_points, size_t dims, size_t k,
                          double stddev, uint64_t seed);

/// \brief Binary classification data that is (nearly) linearly separable.
///
/// A ground-truth weight vector w* and bias b* are drawn; each point is
/// x ~ N(0, I) labelled 1 if w*.x + b* + noise > 0. `label_noise` flips the
/// label with that probability. Deterministic in `seed`.
struct SeparableResult {
  LabeledData data;      // labels in {0, 1}
  la::Vector true_weights;
  double true_bias = 0;
};
SeparableResult LinearlySeparable(size_t num_points, size_t dims,
                                  double label_noise, uint64_t seed);

}  // namespace m3::data

#endif  // M3_DATA_SYNTHETIC_H_
