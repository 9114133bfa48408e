#include "ml/lbfgs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/blas.h"

namespace m3::ml {
namespace {

/// f(w) = 0.5 * sum_i c_i (w_i - t_i)^2 — convex quadratic with known
/// minimum at t.
class Quadratic final : public DifferentiableFunction {
 public:
  Quadratic(std::vector<double> curvature, std::vector<double> target)
      : curvature_(std::move(curvature)), target_(std::move(target)) {}

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

 private:
  std::vector<double> curvature_;
  std::vector<double> target_;
};

/// The 2-D Rosenbrock banana: nonconvex valley, minimum at (1, 1).
class Rosenbrock final : public DifferentiableFunction {
 public:
  size_t Dimension() const override { return 2; }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    const double x = w[0], y = w[1];
    const double a = 1.0 - x;
    const double b = y - x * x;
    grad[0] = -2.0 * a - 400.0 * x * b;
    grad[1] = 200.0 * b;
    return a * a + 100.0 * b * b;
  }
};

/// f(w) = -w + 1000 max(0, w - 0.6)^2: a unit downhill slope that meets a
/// steep wall at 0.6.
class Wall final : public DifferentiableFunction {
 public:
  size_t Dimension() const override { return 1; }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    const double past = std::max(0.0, w[0] - 0.6);
    grad[0] = -1.0 + 2000.0 * past;
    return -w[0] + 1000.0 * past * past;
  }
};

/// Forwards to another objective and records every point evaluated.
class Recording final : public DifferentiableFunction {
 public:
  explicit Recording(DifferentiableFunction* inner) : inner_(inner) {}

  size_t Dimension() const override { return inner_->Dimension(); }

  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    points_.emplace_back(w.begin(), w.end());
    return inner_->EvaluateWithGradient(w, grad);
  }

  const std::vector<std::vector<double>>& points() const { return points_; }

 private:
  DifferentiableFunction* inner_;
  std::vector<std::vector<double>> points_;
};

TEST(LbfgsTest, MinimizesWellConditionedQuadratic) {
  Quadratic f({1, 1, 1}, {3, -2, 7});
  la::Vector w(3);
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().converged);
  EXPECT_NEAR(w[0], 3.0, 1e-5);
  EXPECT_NEAR(w[1], -2.0, 1e-5);
  EXPECT_NEAR(w[2], 7.0, 1e-5);
  EXPECT_NEAR(result.value().objective, 0.0, 1e-9);
}

TEST(LbfgsTest, MinimizesIllConditionedQuadratic) {
  // Condition number 1e4: gradient descent would crawl, L-BFGS should not.
  Quadratic f({1e-2, 1e2}, {1, 1});
  la::Vector w(2);
  LbfgsOptions options;
  options.max_iterations = 100;
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w[0], 1.0, 1e-3);
  EXPECT_NEAR(w[1], 1.0, 1e-6);
}

TEST(LbfgsTest, SolvesRosenbrock) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;  // classic hard start
  LbfgsOptions options;
  options.max_iterations = 200;
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(w[0], 1.0, 1e-4);
  EXPECT_NEAR(w[1], 1.0, 1e-4);
}

TEST(LbfgsTest, ObjectiveHistoryIsMonotoneNonIncreasing) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  for (size_t i = 1; i < result.objective_history.size(); ++i) {
    // Wolfe line search guarantees decrease at every accepted step.
    EXPECT_LE(result.objective_history[i],
              result.objective_history[i - 1] + 1e-12)
        << "iteration " << i;
  }
}

TEST(LbfgsTest, RespectsMaxIterations) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  LbfgsOptions options;
  options.max_iterations = 3;
  options.gradient_tolerance = 0;  // never converge on tolerance
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  EXPECT_LE(result.iterations, 3u);
}

TEST(LbfgsTest, IterationCallbackFires) {
  Quadratic f({1, 1}, {1, 1});
  la::Vector w(2);
  size_t calls = 0;
  LbfgsOptions options;
  options.iteration_callback = [&calls](size_t, double, double) { ++calls; };
  Lbfgs optimizer(options);
  ASSERT_TRUE(optimizer.Minimize(&f, w).ok());
  EXPECT_GT(calls, 0u);
}

TEST(LbfgsTest, StartingAtOptimumConvergesImmediately) {
  Quadratic f({2, 2}, {0, 0});
  la::Vector w(2);  // exactly the optimum
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(LbfgsTest, NullFunctionRejected) {
  la::Vector w(2);
  Lbfgs optimizer;
  EXPECT_FALSE(optimizer.Minimize(nullptr, w).ok());
}

TEST(LbfgsTest, DimensionMismatchRejected) {
  Quadratic f({1}, {0});
  la::Vector w(3);
  Lbfgs optimizer;
  EXPECT_FALSE(optimizer.Minimize(&f, w).ok());
}

TEST(LbfgsTest, ZeroHistoryRejected) {
  Quadratic f({1}, {0});
  la::Vector w(1);
  LbfgsOptions options;
  options.history = 0;
  Lbfgs optimizer(options);
  EXPECT_FALSE(optimizer.Minimize(&f, w).ok());
}

TEST(LbfgsTest, FunctionEvaluationsCounted) {
  Rosenbrock f;
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  // At least one evaluation per iteration plus the initial one.
  EXPECT_GE(result.function_evaluations, result.iterations + 1);
}

TEST(LbfgsTest, AcceptedProbeIsNotEvaluatedAgain) {
  Rosenbrock rosenbrock;
  Recording f(&rosenbrock);
  la::Vector w(2);
  w[0] = -1.2;
  w[1] = 1.0;
  Lbfgs optimizer;
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  const auto& points = f.points();
  ASSERT_EQ(result.function_evaluations, points.size());
  // The line search evaluates the step it accepts; evaluating that point
  // again right after would be a wasted data pass.
  size_t repeats = 0;
  for (size_t i = 1; i < points.size(); ++i) {
    repeats += points[i] == points[i - 1] ? 1 : 0;
  }
  EXPECT_EQ(repeats, 0u);
  // The kept value and gradient are the ones a fresh evaluation returns.
  la::Vector grad(2);
  EXPECT_EQ(result.objective, rosenbrock.EvaluateWithGradient(w, grad));
  EXPECT_EQ(result.gradient_norm, la::AbsMax(grad));
}

TEST(LbfgsTest, StepThatIsNotTheLastProbeIsEvaluated) {
  // The search probes 1.0 (past the wall), zooms to 0.5 (kept as the low
  // end), then to 0.75 (past the wall) and runs out of steps. It accepts
  // 0.5, which is not its last probe, so 0.5 is evaluated once more
  // rather than taking the value and gradient left by 0.75.
  Wall wall;
  Recording f(&wall);
  la::Vector w(1);
  LbfgsOptions options;
  options.max_iterations = 1;
  options.max_line_search_steps = 2;
  Lbfgs optimizer(options);
  auto result = optimizer.Minimize(&f, w).ValueOrDie();
  EXPECT_EQ(w[0], 0.5);
  EXPECT_EQ(result.objective, -0.5);
  EXPECT_EQ(result.function_evaluations, 5u);
  const std::vector<std::vector<double>> expected = {
      {0.0}, {1.0}, {0.5}, {0.75}, {0.5}};
  EXPECT_EQ(f.points(), expected);
}

}  // namespace
}  // namespace m3::ml
