#ifndef M3_ML_SPARSE_LOGISTIC_REGRESSION_H_
#define M3_ML_SPARSE_LOGISTIC_REGRESSION_H_

// The CSR objectives and trainer are the loss templates of
// logistic_regression.h at la::CsrView.
#include "ml/logistic_regression.h"  // IWYU pragma: export

#endif  // M3_ML_SPARSE_LOGISTIC_REGRESSION_H_
