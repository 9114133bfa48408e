#include "data/synthetic.h"

#include "la/blas.h"
#include "util/random.h"

namespace m3::data {

BlobsResult GaussianBlobs(size_t num_points, size_t dims, size_t k,
                          double stddev, uint64_t seed) {
  util::Rng rng(seed);
  BlobsResult result;
  result.centers = la::Matrix(k, dims);
  for (size_t c = 0; c < k; ++c) {
    for (size_t d = 0; d < dims; ++d) {
      result.centers(c, d) = rng.Uniform(-10.0, 10.0);
    }
  }
  result.data.features = la::Matrix(num_points, dims);
  result.data.labels.resize(num_points);
  for (size_t i = 0; i < num_points; ++i) {
    const size_t cluster = static_cast<size_t>(rng.UniformInt(uint64_t{k}));
    result.data.labels[i] = static_cast<double>(cluster);
    for (size_t d = 0; d < dims; ++d) {
      result.data.features(i, d) =
          result.centers(cluster, d) + rng.Gaussian(0.0, stddev);
    }
  }
  return result;
}

SeparableResult LinearlySeparable(size_t num_points, size_t dims,
                                  double label_noise, uint64_t seed) {
  util::Rng rng(seed);
  SeparableResult result;
  result.true_weights = la::Vector(dims);
  for (size_t d = 0; d < dims; ++d) {
    result.true_weights[d] = rng.Gaussian(0.0, 1.0);
  }
  result.true_bias = rng.Gaussian(0.0, 0.5);
  result.data.features = la::Matrix(num_points, dims);
  result.data.labels.resize(num_points);
  for (size_t i = 0; i < num_points; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      result.data.features(i, d) = rng.Gaussian(0.0, 1.0);
    }
    const double margin = la::Dot(result.data.features.Row(i),
                                  result.true_weights) +
                          result.true_bias;
    double label = margin > 0 ? 1.0 : 0.0;
    if (label_noise > 0 && rng.Uniform() < label_noise) {
      label = 1.0 - label;
    }
    result.data.labels[i] = label;
  }
  return result;
}

}  // namespace m3::data
