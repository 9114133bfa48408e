#include "la/blas.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "util/random.h"

namespace m3::la {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m(r, c) = rng->Uniform(-1.0, 1.0);
    }
  }
  return m;
}

Vector RandomVector(size_t n, util::Rng* rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng->Uniform(-1.0, 1.0);
  }
  return v;
}

TEST(BlasTest, DotBasic) {
  Vector x(std::vector<double>{1, 2, 3});
  Vector y(std::vector<double>{4, 5, 6});
  EXPECT_DOUBLE_EQ(Dot(x, y), 32.0);
  EXPECT_DOUBLE_EQ(Dot(x, x), 14.0);
}

TEST(BlasTest, DotEmptyIsZero) {
  Vector empty;
  EXPECT_DOUBLE_EQ(Dot(empty, empty), 0.0);
}

TEST(BlasTest, AxpyAccumulates) {
  Vector x(std::vector<double>{1, 2, 3});
  Vector y(std::vector<double>{10, 20, 30});
  Axpy(2.0, x, y);
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(BlasTest, ScalScales) {
  Vector x(std::vector<double>{1, -2, 3});
  Scal(-2.0, x);
  EXPECT_DOUBLE_EQ(x[0], -2.0);
  EXPECT_DOUBLE_EQ(x[1], 4.0);
  EXPECT_DOUBLE_EQ(x[2], -6.0);
}

TEST(BlasTest, Nrm2AndSumAndAbsMax) {
  Vector x(std::vector<double>{3, -4});
  EXPECT_DOUBLE_EQ(Nrm2(x), 5.0);
  EXPECT_DOUBLE_EQ(Sum(x), -1.0);
  EXPECT_DOUBLE_EQ(AbsMax(x), 4.0);
  Vector empty;
  EXPECT_DOUBLE_EQ(AbsMax(empty), 0.0);
}

TEST(BlasTest, SquaredDistanceMatchesDefinition) {
  Vector x(std::vector<double>{1, 2, 3});
  Vector y(std::vector<double>{2, 0, 3});
  EXPECT_DOUBLE_EQ(SquaredDistance(x, y), 1.0 + 4.0 + 0.0);
}

/// Values spread over 2^-12 ... 2^12 with random signs, so reordering the
/// additions changes the rounding.
Vector SpreadVector(size_t n, util::Rng* rng) {
  Vector v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = std::ldexp(rng->Uniform(-1.0, 1.0),
                      static_cast<int>(rng->UniformInt(-12, 12)));
  }
  return v;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Checks kernel(x, y) bitwise against the reductions' summation order,
/// written out here independently of la/lanes.h: term(x[j], y[j])
/// accumulates into lane j % 8 in ascending j, and the lanes combine as
/// ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7)). From n = 7 on, inputs are drawn
/// until a serial sum of the same terms gives different bits, so a kernel
/// that sums serially fails.
template <typename Kernel, typename Term>
void ExpectLaneOrder(Kernel kernel, Term term, uint64_t seed) {
  util::Rng rng(seed);
  for (const size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 783, 784, 785}) {
    bool serial_differs = false;
    for (int draw = 0; draw < 32 && !serial_differs; ++draw) {
      const Vector x = SpreadVector(n, &rng);
      const Vector y = SpreadVector(n, &rng);
      double lane[8] = {};
      double serial = 0.0;
      for (size_t j = 0; j < n; ++j) {
        lane[j % 8] += term(x[j], y[j]);
        serial += term(x[j], y[j]);
      }
      const double reference = ((lane[0] + lane[1]) + (lane[2] + lane[3])) +
                               ((lane[4] + lane[5]) + (lane[6] + lane[7]));
      const double got = kernel(x, y);
      ASSERT_TRUE(SameBits(got, reference))
          << "n=" << n << ", draw " << draw << ": " << got << " vs "
          << reference;
      serial_differs = n < 7 || !SameBits(serial, reference);
    }
    EXPECT_TRUE(serial_differs)
        << "n=" << n << ": no draw told the lane order from a serial sum";
  }
}

TEST(BlasTest, DotSumsInColumnLanes) {
  ExpectLaneOrder([](const Vector& x, const Vector& y) { return Dot(x, y); },
                  [](double a, double b) { return a * b; }, /*seed=*/81);
}

TEST(BlasTest, SquaredDistanceSumsInColumnLanes) {
  ExpectLaneOrder(
      [](const Vector& x, const Vector& y) { return SquaredDistance(x, y); },
      [](double a, double b) {
        const double d = a - b;
        return d * d;
      },
      /*seed=*/91);
}

TEST(BlasTest, CopyCopies) {
  Vector x(std::vector<double>{1, 2});
  Vector y(2);
  Copy(x, y);
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 2.0);
}

TEST(BlasTest, GemvMatchesManual) {
  Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Vector x(std::vector<double>{1, 0, -1});
  Vector y(std::vector<double>{10, 10});
  Gemv(2.0, a, x, 0.5, y);
  // A*x = {1-3, 4-6} = {-2, -2}; y = 2*(-2) + 0.5*10 = 1
  EXPECT_DOUBLE_EQ(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(BlasTest, GemvTMatchesManual) {
  Matrix a(2, 3, std::vector<double>{1, 2, 3, 4, 5, 6});
  Vector x(std::vector<double>{1, -1});
  Vector y(3);
  GemvT(1.0, a, x, 0.0, y);
  // A^T x = {1-4, 2-5, 3-6}
  EXPECT_DOUBLE_EQ(y[0], -3.0);
  EXPECT_DOUBLE_EQ(y[1], -3.0);
  EXPECT_DOUBLE_EQ(y[2], -3.0);
}

TEST(BlasTest, GemvTransposeConsistency) {
  // Property: x^T (A y) == (A^T x)^T y for random A, x, y.
  util::Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    Matrix a = RandomMatrix(17, 9, &rng);
    Vector x = RandomVector(17, &rng);
    Vector y = RandomVector(9, &rng);
    Vector ay(17);
    Gemv(1.0, a, y, 0.0, ay);
    Vector atx(9);
    GemvT(1.0, a, x, 0.0, atx);
    EXPECT_NEAR(Dot(x, ay), Dot(atx, y), 1e-10);
  }
}

// ---------------------------------------------------------------------------
// Parameterized property sweep: parallel kernels must agree with their
// sequential counterparts for a range of shapes that straddle the grain.
// ---------------------------------------------------------------------------

struct ShapeParam {
  size_t rows;
  size_t cols;
};

class ParallelKernelTest : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ParallelKernelTest, ParallelGemvMatchesSequential) {
  const ShapeParam p = GetParam();
  util::Rng rng(61 + p.rows);
  Matrix a = RandomMatrix(p.rows, p.cols, &rng);
  Vector x = RandomVector(p.cols, &rng);
  Vector y_seq = RandomVector(p.rows, &rng);
  Vector y_par = y_seq;
  Gemv(1.7, a, x, 0.3, y_seq);
  ParallelGemv(1.7, a, x, 0.3, y_par);
  for (size_t i = 0; i < p.rows; ++i) {
    ASSERT_NEAR(y_seq[i], y_par[i], 1e-10) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ParallelKernelTest,
    ::testing::Values(ShapeParam{1, 1}, ShapeParam{3, 7}, ShapeParam{255, 16},
                      ShapeParam{256, 16}, ShapeParam{257, 16},
                      ShapeParam{1024, 8}, ShapeParam{2000, 3}),
    [](const ::testing::TestParamInfo<ShapeParam>& info) {
      return std::to_string(info.param.rows) + "x" +
             std::to_string(info.param.cols);
    });

}  // namespace
}  // namespace m3::la
