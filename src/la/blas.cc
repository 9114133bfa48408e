#include "la/blas.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "la/lanes.h"

namespace m3::la {

double Dot(ConstVectorView x, ConstVectorView y) {
  M3_CHECK(x.size() == y.size(), "Dot size mismatch %zu vs %zu", x.size(),
           y.size());
  const double* px = x.data();
  const double* py = y.data();
  return internal::LaneSum(x.size(),
                           [px, py](size_t i) { return px[i] * py[i]; });
}

void Axpy(double alpha, ConstVectorView x, VectorView y) {
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

double SquaredDistance(ConstVectorView x, ConstVectorView y) {
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

void Gemm(double alpha, ConstMatrixView a, ConstMatrixView b, double beta,
          MatrixView c) {
  M3_CHECK(a.cols() == b.rows(), "Gemm: inner dims %zu vs %zu", a.cols(),
           b.rows());
  M3_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
           "Gemm: C shape mismatch");
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  if (beta != 1.0) {
    for (size_t r = 0; r < m; ++r) {
      Scal(beta, c.Row(r));
    }
  }
  // ikj loop order with cache blocking on k: streams B rows, accumulates C
  // rows; good locality for row-major operands.
  constexpr size_t kBlock = 64;
  for (size_t k0 = 0; k0 < k; k0 += kBlock) {
    const size_t k1 = std::min(k, k0 + kBlock);
    for (size_t i = 0; i < m; ++i) {
      double* crow = c.Row(i).data();
      for (size_t kk = k0; kk < k1; ++kk) {
        const double aik = alpha * a(i, kk);
        if (aik == 0.0) {
          continue;
        }
        const double* brow = b.Row(kk).data();
        for (size_t j = 0; j < n; ++j) {
          crow[j] += aik * brow[j];
        }
      }
    }
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

void ParallelGemvT(double alpha, ConstMatrixView a, ConstVectorView x,
                   double beta, VectorView y, util::ThreadPool* pool) {
  M3_CHECK(a.rows() == x.size() && a.cols() == y.size(),
           "ParallelGemvT shape mismatch");
  if (beta != 1.0) {
    Scal(beta, y);
  }
  // Per-chunk partials merged in chunk order: the reduction is bitwise
  // deterministic for a fixed pool size.
  if (pool == nullptr) {
    pool = &util::GlobalThreadPool();
  }
  const auto ranges =
      util::PartitionRange(0, a.rows(), /*grain=*/256, pool->num_threads());
  std::vector<std::vector<double>> partials(ranges.size(),
                                            std::vector<double>(a.cols()));
  util::ParallelForIndexed(
      0, a.rows(), /*grain=*/256,
      [&](size_t chunk, size_t lo, size_t hi) {
        VectorView pview(partials[chunk].data(), partials[chunk].size());
        GemvT(alpha, a.RowRange(lo, hi - lo), x.Slice(lo, hi - lo), 1.0,
              pview);
      },
      pool);
  for (const auto& partial : partials) {
    Axpy(1.0, ConstVectorView(partial.data(), partial.size()), y);
  }
}

}  // namespace m3::la
