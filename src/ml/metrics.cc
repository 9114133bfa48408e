#include "ml/metrics.h"

#include <algorithm>
#include <cmath>

#include "ml/kmeans.h"
#include "util/logging.h"

namespace m3::ml {

double Accuracy(const std::vector<double>& predictions,
                const std::vector<double>& truth) {
  M3_CHECK(predictions.size() == truth.size(), "metric size mismatch");
  if (predictions.empty()) {
    return 0.0;
  }
  size_t correct = 0;
  for (size_t i = 0; i < predictions.size(); ++i) {
    if (predictions[i] == truth[i]) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(predictions.size());
}

double LogLoss(const std::vector<double>& probabilities,
               const std::vector<double>& labels) {
  M3_CHECK(probabilities.size() == labels.size(), "metric size mismatch");
  if (probabilities.empty()) {
    return 0.0;
  }
  double acc = 0;
  for (size_t i = 0; i < probabilities.size(); ++i) {
    const double p = std::clamp(probabilities[i], 1e-15, 1.0 - 1e-15);
    acc -= labels[i] * std::log(p) + (1.0 - labels[i]) * std::log(1.0 - p);
  }
  return acc / static_cast<double>(probabilities.size());
}

double Inertia(la::ConstMatrixView x, la::ConstMatrixView centers) {
  double total = 0;
  for (size_t r = 0; r < x.rows(); ++r) {
    double dist2 = 0;
    KMeans::NearestCenter(x.Row(r), centers, &dist2);
    total += dist2;
  }
  return total;
}

la::Matrix ConfusionMatrix(const std::vector<double>& predictions,
                           const std::vector<double>& truth, size_t k) {
  M3_CHECK(predictions.size() == truth.size(), "metric size mismatch");
  la::Matrix confusion(k, k);
  for (size_t i = 0; i < predictions.size(); ++i) {
    const size_t t = static_cast<size_t>(truth[i]);
    const size_t p = static_cast<size_t>(predictions[i]);
    M3_CHECK(t < k && p < k, "label out of range in confusion matrix");
    confusion(t, p) += 1.0;
  }
  return confusion;
}

double ClusterPurity(const std::vector<uint32_t>& assignments,
                     const std::vector<double>& truth, size_t k,
                     size_t num_labels) {
  M3_CHECK(assignments.size() == truth.size(), "metric size mismatch");
  if (assignments.empty()) {
    return 0.0;
  }
  // counts[cluster][label]
  std::vector<std::vector<uint64_t>> counts(
      k, std::vector<uint64_t>(num_labels, 0));
  for (size_t i = 0; i < assignments.size(); ++i) {
    const size_t cluster = assignments[i];
    const size_t label = static_cast<size_t>(truth[i]);
    M3_CHECK(cluster < k && label < num_labels, "index out of range");
    ++counts[cluster][label];
  }
  uint64_t majority_total = 0;
  for (size_t c = 0; c < k; ++c) {
    majority_total += *std::max_element(counts[c].begin(), counts[c].end());
  }
  return static_cast<double>(majority_total) /
         static_cast<double>(assignments.size());
}

}  // namespace m3::ml
