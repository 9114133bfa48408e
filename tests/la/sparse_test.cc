// Sparse kernel correctness, pinned to the dense kernels: SparseDot and
// SparseAxpy over a CSR row must be the bitwise twins of Dot/Axpy over
// the densified row (the skipped zero terms are additive identities), so
// every ulp-conformance claim upstream (objectives, trainers) reduces to
// these loops.

#include "la/sparse.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "la/blas.h"
#include "la/matrix.h"
#include "util/random.h"

namespace m3::la {
namespace {

/// In-memory CSR holder for tests (the view is non-owning).
struct Csr {
  std::vector<uint64_t> row_ptr{0};
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  size_t cols = 0;

  CsrView View(size_t rows) const {
    return CsrView(row_ptr.data(), col_idx.data(), values.data(), rows, cols);
  }
};

/// Random ragged CSR: per-row nnz in [0, max_nnz], sorted distinct
/// columns, values in [-1, 1] with zeros remapped so every stored entry
/// is a genuine nonzero.
Csr RandomCsr(size_t rows, size_t cols, size_t max_nnz, uint64_t seed) {
  util::Rng rng(seed);
  Csr csr;
  csr.cols = cols;
  for (size_t r = 0; r < rows; ++r) {
    const size_t nnz = static_cast<size_t>(rng.UniformInt(
        static_cast<uint64_t>(std::min(cols, max_nnz) + 1)));
    std::vector<uint32_t> picked;
    while (picked.size() < nnz) {
      const uint32_t c = static_cast<uint32_t>(rng.UniformInt(
          static_cast<uint64_t>(cols)));
      bool dup = false;
      for (const uint32_t existing : picked) {
        dup = dup || existing == c;
      }
      if (!dup) {
        picked.push_back(c);
      }
    }
    std::sort(picked.begin(), picked.end());
    for (const uint32_t c : picked) {
      double v = rng.Uniform(-1.0, 1.0);
      if (v == 0.0) {
        v = 0.5;
      }
      csr.col_idx.push_back(c);
      csr.values.push_back(v);
    }
    csr.row_ptr.push_back(csr.col_idx.size());
  }
  return csr;
}

Vector RandomVector(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  Vector v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Uniform(-2.0, 2.0);
  }
  return v;
}

bool BitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST(CsrViewTest, ShapeAndRowAccess) {
  Csr csr;
  csr.cols = 5;
  // Row 0: (1, 2.0), (3, -1.0); row 1: empty; row 2: (0, 4.0).
  csr.col_idx = {1, 3, 0};
  csr.values = {2.0, -1.0, 4.0};
  csr.row_ptr = {0, 2, 2, 3};
  const CsrView view = csr.View(3);
  EXPECT_EQ(view.rows(), 3u);
  EXPECT_EQ(view.cols(), 5u);
  EXPECT_EQ(view.nnz(), 3u);
  EXPECT_EQ(view.Row(0).nnz, 2u);
  EXPECT_EQ(view.Row(0).cols[1], 3u);
  EXPECT_EQ(view.Row(1).nnz, 0u);
  EXPECT_EQ(view.Row(2).values[0], 4.0);
  EXPECT_EQ(CsrView().nnz(), 0u);
}

TEST(DensifyTest, ScattersStoredEntriesAndZeroesTheRest) {
  Csr csr;
  csr.cols = 4;
  csr.col_idx = {0, 3, 2};
  csr.values = {1.5, -2.5, 7.0};
  csr.row_ptr = {0, 2, 2, 3};
  const Matrix dense = Densify(csr.View(3));
  ASSERT_EQ(dense.rows(), 3u);
  ASSERT_EQ(dense.cols(), 4u);
  EXPECT_EQ(dense(0, 0), 1.5);
  EXPECT_EQ(dense(0, 1), 0.0);
  EXPECT_EQ(dense(0, 3), -2.5);
  EXPECT_EQ(dense(1, 2), 0.0);
  EXPECT_EQ(dense(2, 2), 7.0);

  Vector row(4);
  row[1] = 99.0;  // stale garbage DensifyRow must clear
  DensifyRow(csr.View(3).Row(0), row.View());
  EXPECT_EQ(row[0], 1.5);
  EXPECT_EQ(row[1], 0.0);
  EXPECT_EQ(row[3], -2.5);
}

TEST(SparseDotTest, BitwiseMatchesDenseDotOnDensifiedRows) {
  // 40 columns fill whole 8-lane blocks; 37 and 785 leave a tail, whose
  // columns the dense Dot adds into lanes 0 ... cols % 8 - 1.
  const size_t kRows = 64;
  for (const size_t cols : {40, 37, 785}) {
    const Csr csr = RandomCsr(kRows, cols, cols / 3, /*seed=*/7);
    const CsrView view = csr.View(kRows);
    const Matrix dense = Densify(view);
    const Vector w = RandomVector(cols, /*seed=*/11);
    for (size_t r = 0; r < kRows; ++r) {
      const double sparse = SparseDot(view.Row(r), w);
      const double reference = Dot(dense.Row(r), w);
      EXPECT_TRUE(BitwiseEqual(sparse, reference))
          << cols << " cols, row " << r << ": " << sparse << " vs "
          << reference;
    }
  }
}

TEST(SparseAxpyTest, BitwiseMatchesDenseAxpyOnDensifiedRows) {
  const size_t kRows = 48, kCols = 32;
  const Csr csr = RandomCsr(kRows, kCols, 10, /*seed=*/21);
  const CsrView view = csr.View(kRows);
  const Matrix dense = Densify(view);
  Vector sparse_acc = RandomVector(kCols, /*seed=*/5);
  Vector dense_acc(kCols);
  Copy(sparse_acc, dense_acc);
  for (size_t r = 0; r < kRows; ++r) {
    const double alpha = 0.25 + static_cast<double>(r) * 0.125;
    SparseAxpy(alpha, view.Row(r), sparse_acc.View());
    Axpy(alpha, dense.Row(r), dense_acc.View());
  }
  EXPECT_EQ(std::memcmp(sparse_acc.data(), dense_acc.data(),
                        kCols * sizeof(double)),
            0);
}

TEST(SparseDotTest, EmptyRowIsExactlyZero) {
  const SparseRowView empty;
  const Vector w = RandomVector(16, /*seed=*/3);
  EXPECT_EQ(SparseDot(empty, w), 0.0);
  Vector acc = RandomVector(16, /*seed=*/4);
  Vector before(16);
  Copy(acc, before);
  SparseAxpy(2.0, empty, acc.View());
  EXPECT_EQ(std::memcmp(acc.data(), before.data(), 16 * sizeof(double)), 0);
}

}  // namespace
}  // namespace m3::la
