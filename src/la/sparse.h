#ifndef M3_LA_SPARSE_H_
#define M3_LA_SPARSE_H_

#include <cstddef>
#include <cstdint>

#include "la/matrix.h"
#include "util/logging.h"

namespace m3::la {

/// \defgroup sparse Sparse linear algebra (CSR, double precision)
///
/// The sparse twin of the dense-view design point: CsrView is a plain
/// pointer+shape wrapper over three parallel arrays (`row_ptr`,
/// `col_idx`, `values`), so a view over heap memory and a view over an
/// mmap'd CSR file are indistinguishable to the kernels. Kernels share
/// the dense ones' arithmetic in blas.h: a sparse dot over a row's
/// nonzeros adds the same terms into the same column-keyed lanes as a
/// dense dot over the densified row (the zero terms it skips are additive
/// identities), which is what lets the conformance suite pin
/// sparse-vs-dense agreement to the last ulp.

/// \brief One CSR row: parallel column-index / value arrays of its
/// stored nonzeros. Column indices are strictly increasing.
struct SparseRowView {
  const uint32_t* cols = nullptr;
  const double* values = nullptr;
  size_t nnz = 0;
};

/// \brief Non-owning read-only view of a CSR matrix.
///
/// `row_ptr` holds `rows + 1` monotone offsets into `col_idx`/`values`;
/// row r's nonzeros live at [row_ptr[r], row_ptr[r+1]). The view trusts
/// its invariants (monotone row_ptr, col_idx < cols) — the validating
/// reader in core/sparse_mapped_dataset.h establishes them for mmap'd
/// data before a view is ever handed out.
class CsrView {
 public:
  CsrView() = default;
  CsrView(const uint64_t* row_ptr, const uint32_t* col_idx,
          const double* values, size_t rows, size_t cols)
      : row_ptr_(row_ptr),
        col_idx_(col_idx),
        values_(values),
        rows_(rows),
        cols_(cols) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  uint64_t nnz() const { return rows_ == 0 ? 0 : row_ptr_[rows_]; }

  const uint64_t* row_ptr() const { return row_ptr_; }
  const uint32_t* col_idx() const { return col_idx_; }
  const double* values() const { return values_; }

  /// Row `r`'s stored nonzeros. \pre r < rows().
  SparseRowView Row(size_t r) const {
    M3_CHECK(r < rows_, "row index %zu out of range (%zu rows)", r, rows_);
    const uint64_t begin = row_ptr_[r];
    return SparseRowView{col_idx_ + begin, values_ + begin,
                         static_cast<size_t>(row_ptr_[r + 1] - begin)};
  }

 private:
  const uint64_t* row_ptr_ = nullptr;
  const uint32_t* col_idx_ = nullptr;
  const double* values_ = nullptr;
  size_t rows_ = 0;
  size_t cols_ = 0;
};

/// \brief Sparse dot product: sum_k x.values[k] * w[x.cols[k]].
///
/// Summation order is la::Dot's: the term of column c accumulates into
/// lane c % 8, each lane in ascending column order, and the eight lanes
/// combine as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). So it is the bitwise
/// twin of Dot(densify(x), w) for any w whose extra entries multiply
/// zeros.
double SparseDot(const SparseRowView& x, ConstVectorView w);

/// \brief Sparse axpy into a dense vector: y[x.cols[k]] += alpha *
/// x.values[k]. The sparse gradient-accumulate primitive, mirroring
/// la::Axpy's multiply-then-add per element.
void SparseAxpy(double alpha, const SparseRowView& x, VectorView y);

/// \brief Scatters `x` into `out` (zeroing it first). \pre every column
/// index < out.size().
void DensifyRow(const SparseRowView& x, VectorView out);

/// \brief Dense rows × cols copy of `x` (zeros where nothing is stored).
Matrix Densify(const CsrView& x);

}  // namespace m3::la

#endif  // M3_LA_SPARSE_H_
