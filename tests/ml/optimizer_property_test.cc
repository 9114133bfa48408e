// Parameterized property sweeps for the optimizers: convergence must hold
// across conditioning, dimension, and starting distance — not just on the
// hand-picked cases of lbfgs_test.cc.

#include <gtest/gtest.h>

#include <cmath>

#include "la/blas.h"
#include "ml/lbfgs.h"
#include "util/random.h"

namespace m3::ml {
namespace {

/// f(w) = 0.5 (w - t)^T D (w - t) with log-spaced diagonal D.
class DiagonalQuadratic final : public DifferentiableFunction {
 public:
  DiagonalQuadratic(size_t dim, double condition, uint64_t seed)
      : curvature_(dim), target_(dim) {
    util::Rng rng(seed);
    for (size_t i = 0; i < dim; ++i) {
      // Eigenvalues log-spaced in [1, condition].
      const double t =
          dim == 1 ? 0.0 : static_cast<double>(i) / (dim - 1);
      curvature_[i] = std::pow(condition, t);
      target_[i] = rng.Uniform(-5.0, 5.0);
    }
  }

  size_t Dimension() const override { return curvature_.size(); }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    double f = 0;
    for (size_t i = 0; i < curvature_.size(); ++i) {
      const double diff = w[i] - target_[i];
      f += 0.5 * curvature_[i] * diff * diff;
      grad[i] = curvature_[i] * diff;
    }
    return f;
  }

  double DistanceToOptimum(la::ConstVectorView w) const {
    double acc = 0;
    for (size_t i = 0; i < target_.size(); ++i) {
      const double diff = w[i] - target_[i];
      acc += diff * diff;
    }
    return std::sqrt(acc);
  }

 private:
  std::vector<double> curvature_;
  std::vector<double> target_;
};

struct SweepParam {
  size_t dim;
  double condition;
};

class LbfgsPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(LbfgsPropertyTest, ConvergesToOptimum) {
  const SweepParam p = GetParam();
  DiagonalQuadratic f(p.dim, p.condition, 7);
  la::Vector w(p.dim);  // start at origin
  LbfgsOptions options;
  options.max_iterations = 500;
  options.gradient_tolerance = 1e-8;
  auto result = Lbfgs(options).Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(f.DistanceToOptimum(w), 1e-3)
      << "dim=" << p.dim << " cond=" << p.condition;
}

TEST_P(LbfgsPropertyTest, NeverIncreasesObjective) {
  const SweepParam p = GetParam();
  DiagonalQuadratic f(p.dim, p.condition, 11);
  la::Vector w(p.dim);
  auto result = Lbfgs().Minimize(&f, w).ValueOrDie();
  for (size_t i = 1; i < result.objective_history.size(); ++i) {
    ASSERT_LE(result.objective_history[i],
              result.objective_history[i - 1] * (1 + 1e-12));
  }
}

TEST_P(LbfgsPropertyTest, SolutionIsFixedPoint) {
  // Re-running the optimizer from the solution must not move it (much).
  const SweepParam p = GetParam();
  DiagonalQuadratic f(p.dim, p.condition, 13);
  la::Vector w(p.dim);
  LbfgsOptions options;
  options.max_iterations = 500;
  options.gradient_tolerance = 1e-10;
  ASSERT_TRUE(Lbfgs(options).Minimize(&f, w).ok());
  la::Vector w2 = w;
  auto second = Lbfgs(options).Minimize(&f, w2).ValueOrDie();
  EXPECT_LE(second.iterations, 1u);
  for (size_t i = 0; i < p.dim; ++i) {
    ASSERT_NEAR(w[i], w2[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Conditioning, LbfgsPropertyTest,
    ::testing::Values(SweepParam{1, 1.0}, SweepParam{2, 1e2},
                      SweepParam{5, 1e4}, SweepParam{20, 1e3},
                      SweepParam{50, 1e2}, SweepParam{100, 10.0}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "dim" + std::to_string(info.param.dim) + "_cond" +
             std::to_string(static_cast<int>(info.param.condition));
    });

}  // namespace
}  // namespace m3::ml
