#include "la/sparse.h"

#include "la/lanes.h"

namespace m3::la {

double SparseDot(const SparseRowView& x, ConstVectorView w) {
  double lanes[internal::kLanes] = {};
  for (size_t k = 0; k < x.nnz; ++k) {
    lanes[x.cols[k] % internal::kLanes] += x.values[k] * w[x.cols[k]];
  }
  return internal::CombineLanes(lanes);
}

void SparseAxpy(double alpha, const SparseRowView& x, VectorView y) {
  for (size_t k = 0; k < x.nnz; ++k) {
    y[x.cols[k]] += alpha * x.values[k];
  }
}

void DensifyRow(const SparseRowView& x, VectorView out) {
  out.SetZero();
  for (size_t k = 0; k < x.nnz; ++k) {
    M3_CHECK(x.cols[k] < out.size(), "column %u out of %zu",
             static_cast<unsigned>(x.cols[k]), out.size());
    out[x.cols[k]] = x.values[k];
  }
}

Matrix Densify(const CsrView& x) {
  Matrix dense(x.rows(), x.cols());
  for (size_t r = 0; r < x.rows(); ++r) {
    DensifyRow(x.Row(r), dense.Row(r));
  }
  return dense;
}

}  // namespace m3::la
