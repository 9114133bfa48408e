#include "la/blas.h"

#include <algorithm>
#include <cmath>

#include "la/lanes.h"

// Starts each hot loop of the kernels below on a 64-byte line. GCC places
// every object's cold code (.text.unlikely) ahead of all hot .text, so
// cold code added anywhere else shifts these loops. One such shift put
// Axpy's vector loop across two lines and made an in-RAM logistic
// regression iteration 1.18x slower with identical instructions. GCC
// only: clang does not know `optimize`.
#if defined(__GNUC__) && !defined(__clang__)
#define M3_ALIGN_LOOPS __attribute__((optimize("align-loops=64")))
#else
#define M3_ALIGN_LOOPS
#endif

namespace m3::la {

M3_ALIGN_LOOPS double Dot(ConstVectorView x, ConstVectorView y) {
  M3_CHECK(x.size() == y.size(), "Dot size mismatch %zu vs %zu", x.size(),
           y.size());
  const double* px = x.data();
  const double* py = y.data();
  return internal::LaneSum(x.size(),
                           [px, py](size_t i) { return px[i] * py[i]; });
}

M3_ALIGN_LOOPS void Axpy(double alpha, ConstVectorView x, VectorView y) {
  M3_CHECK(x.size() == y.size(), "Axpy size mismatch %zu vs %zu", x.size(),
           y.size());
  const size_t n = x.size();
  const double* px = x.data();
  double* py = y.data();
  for (size_t i = 0; i < n; ++i) {
    py[i] += alpha * px[i];
  }
}

void Scal(double alpha, VectorView x) {
  double* px = x.data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) {
    px[i] *= alpha;
  }
}

double Nrm2(ConstVectorView x) { return std::sqrt(Dot(x, x)); }

double Sum(ConstVectorView x) {
  double acc = 0.0;
  for (double v : x) {
    acc += v;
  }
  return acc;
}

double AbsMax(ConstVectorView x) {
  double best = 0.0;
  for (double v : x) {
    best = std::max(best, std::fabs(v));
  }
  return best;
}

M3_ALIGN_LOOPS double SquaredDistance(ConstVectorView x, ConstVectorView y) {
  M3_CHECK(x.size() == y.size(), "SquaredDistance size mismatch");
  const double* px = x.data();
  const double* py = y.data();
  return internal::LaneSum(x.size(), [px, py](size_t i) {
    const double d = px[i] - py[i];
    return d * d;
  });
}

void Copy(ConstVectorView x, VectorView out) {
  M3_CHECK(x.size() == out.size(), "Copy size mismatch");
  std::copy(x.begin(), x.end(), out.begin());
}

void Gemv(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
          VectorView y) {
  M3_CHECK(a.cols() == x.size(), "Gemv: A.cols %zu != x.size %zu", a.cols(),
           x.size());
  M3_CHECK(a.rows() == y.size(), "Gemv: A.rows %zu != y.size %zu", a.rows(),
           y.size());
  for (size_t r = 0; r < a.rows(); ++r) {
    y[r] = alpha * Dot(a.Row(r), x) + beta * y[r];
  }
}

void GemvT(double alpha, ConstMatrixView a, ConstVectorView x, double beta,
           VectorView y) {
  M3_CHECK(a.rows() == x.size(), "GemvT: A.rows %zu != x.size %zu", a.rows(),
           x.size());
  M3_CHECK(a.cols() == y.size(), "GemvT: A.cols %zu != y.size %zu", a.cols(),
           y.size());
  if (beta != 1.0) {
    Scal(beta, y);
  }
  // Row-major traversal: accumulate alpha * x[r] * A[r, :] into y.
  for (size_t r = 0; r < a.rows(); ++r) {
    Axpy(alpha * x[r], a.Row(r), y);
  }
}

void ParallelGemv(double alpha, ConstMatrixView a, ConstVectorView x,
                  double beta, VectorView y, util::ThreadPool* pool) {
  M3_CHECK(a.cols() == x.size() && a.rows() == y.size(),
           "ParallelGemv shape mismatch");
  // Partition output rows; each worker owns a disjoint slice of y.
  util::ParallelFor(
      0, a.rows(), /*grain=*/256,
      [&](size_t lo, size_t hi) {
        Gemv(alpha, a.RowRange(lo, hi - lo), x, beta,
             y.Slice(lo, hi - lo));
      },
      pool);
}

}  // namespace m3::la
