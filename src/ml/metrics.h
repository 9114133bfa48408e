#ifndef M3_ML_METRICS_H_
#define M3_ML_METRICS_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"

namespace m3::ml {

/// \brief Fraction of positions where predictions == truth. \pre same size.
double Accuracy(const std::vector<double>& predictions,
                const std::vector<double>& truth);

/// \brief Binary cross-entropy given probabilities in (0,1) and 0/1 labels.
double LogLoss(const std::vector<double>& probabilities,
               const std::vector<double>& labels);

/// \brief k-means inertia: sum of squared distances to nearest center.
double Inertia(la::ConstMatrixView x, la::ConstMatrixView centers);

/// \brief k x k confusion matrix; entry (t, p) counts truth t predicted p.
la::Matrix ConfusionMatrix(const std::vector<double>& predictions,
                           const std::vector<double>& truth, size_t k);

/// \brief Clustering purity in [0, 1]: each cluster votes its majority
/// ground-truth label. \pre assignments/truth same length.
double ClusterPurity(const std::vector<uint32_t>& assignments,
                     const std::vector<double>& truth, size_t k,
                     size_t num_labels);

}  // namespace m3::ml

#endif  // M3_ML_METRICS_H_
