#ifndef M3_LA_BLAS_H_
#define M3_LA_BLAS_H_

#include <cstddef>

#include "la/matrix.h"
#include "util/thread_pool.h"

namespace m3::la {

/// \defgroup blas BLAS-style kernels over views
///
/// Hand-rolled level-1/2 kernels sufficient for the paper's workloads
/// (logistic regression gradients, k-means distance passes). All kernels
/// accept views, so they run unchanged on heap memory and mmap'd files.

/// \brief Returns x . y. \pre x.size() == y.size().
///
/// Fixed summation order: the term x[j] * y[j] accumulates into lane
/// j % 8, each lane in ascending j, and the eight lanes combine as
/// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). la::SparseDot keys its lanes by
/// column the same way, so the two agree bitwise on densified rows.
double Dot(ConstVectorView x, ConstVectorView y);

/// \brief y += alpha * x. \pre x.size() == y.size().
void Axpy(double alpha, ConstVectorView x, VectorView y);

/// \brief x *= alpha.
void Scal(double alpha, VectorView x);

/// \brief Euclidean norm of x.
double Nrm2(ConstVectorView x);

/// \brief Sum of elements of x.
double Sum(ConstVectorView x);

/// \brief Largest absolute element of x (0 for empty).
double AbsMax(ConstVectorView x);

/// \brief || x - y ||^2 without forming the difference.
///
/// Same summation order as Dot: (x[j] - y[j])^2 accumulates into lane
/// j % 8, and the lanes combine as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)).
double SquaredDistance(ConstVectorView x, ConstVectorView y);

/// \brief out = x (element copy). \pre same size.
void Copy(ConstVectorView x, VectorView out);

/// \brief y = alpha * A * x + beta * y (row-major GEMV).
/// \pre A.cols() == x.size() and A.rows() == y.size().
void Gemv(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
          VectorView y);

/// \brief y = alpha * A^T * x + beta * y.
/// \pre A.rows() == x.size() and A.cols() == y.size().
void GemvT(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
           VectorView y);

/// \brief Gemv partitioned by rows across the thread pool.
///
/// Equivalent to Gemv; worthwhile for tall matrices (the dataset pass).
void ParallelGemv(double alpha, ConstMatrixView a, ConstVectorView x,
                  double beta, VectorView y,
                  util::ThreadPool* pool = nullptr);

}  // namespace m3::la

#endif  // M3_LA_BLAS_H_
