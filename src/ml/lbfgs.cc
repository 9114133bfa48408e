#include "ml/lbfgs.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "la/blas.h"
#include "util/logging.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

/// State shared by the line-search helpers: evaluates
/// phi(alpha) = f(w + alpha * d) and phi'(alpha) = grad . d.
///
/// The opening probe of a line is a pass. Once it fails, a data-backed
/// objective that can restrict itself to the line (ChunkedObjective::
/// PrepareLine) answers every later probe of the line without a pass. What
/// those probes need is stored by one more pass, which counts as one
/// evaluation, unless the opening probe went through EvaluateOpeningProbe
/// (`hold_line`), whose pass stored it already.
struct LineProbe {
  DifferentiableFunction* function;
  ChunkedObjective* chunked;  // `function` if it is data-backed, else null
  la::ConstVectorView w0;
  la::ConstVectorView direction;
  la::VectorView w_trial;    // scratch: w0 + alpha d
  la::VectorView grad_trial; // scratch: gradient at w_trial
  size_t* evaluations;
  bool hold_line;            // open with chunked->EvaluateOpeningProbe
  size_t probes = 0;         // probes of this line so far
  bool on_line = false;      // later probes go to chunked->EvalLine
  double last_alpha = 0;  // step of the latest pass probe; w_trial is at it
  double last_value = 0;  // f(w_trial)

  double Eval(double alpha, double* derivative) {
    ++probes;
    if (probes == 2 && chunked != nullptr) {
      const size_t passes = chunked->passes();
      if (chunked->PrepareLine(w0, direction)) {
        *evaluations += chunked->passes() - passes;  // the margin pass, if any
        on_line = true;
      }
    }
    if (on_line) {
      return chunked->EvalLine(alpha, derivative);
    }
    la::Copy(w0, w_trial);
    la::Axpy(alpha, direction, w_trial);
    const double value =
        probes == 1 && hold_line
            ? chunked->EvaluateOpeningProbe(w0, direction, w_trial,
                                            grad_trial)
            : function->EvaluateWithGradient(w_trial, grad_trial);
    ++*evaluations;
    last_alpha = alpha;
    last_value = value;
    *derivative = la::Dot(grad_trial, direction);
    return value;
  }
};

/// Bisection inside [lo, hi]. Cubic interpolation (Nocedal & Wright
/// eq. 3.59) needs fewer probes but probes other points, so every iterate
/// after the first zoom moves: it changes the trained model (for better or
/// worse, depending on its safeguards), not only what training costs.
double Interpolate(double lo, double hi) { return 0.5 * (lo + hi); }

/// Nocedal & Wright Algorithm 3.6 ("zoom").
/// Returns the accepted step, or 0 on failure.
double Zoom(LineProbe* probe, double alpha_lo, double alpha_hi, double f_lo,
            double f0, double df0, double armijo, double wolfe,
            size_t max_steps) {
  for (size_t i = 0; i < max_steps; ++i) {
    const double alpha = Interpolate(alpha_lo, alpha_hi);
    double df = 0;
    const double f = probe->Eval(alpha, &df);
    if (f > f0 + armijo * alpha * df0 || f >= f_lo) {
      alpha_hi = alpha;
    } else {
      if (std::fabs(df) <= -wolfe * df0) {
        return alpha;  // strong Wolfe satisfied
      }
      if (df * (alpha_hi - alpha_lo) >= 0) {
        alpha_hi = alpha_lo;
      }
      alpha_lo = alpha;
      f_lo = f;
    }
    if (std::fabs(alpha_hi - alpha_lo) < 1e-16) {
      break;
    }
  }
  return alpha_lo > 0 ? alpha_lo : 0.0;
}

/// Nocedal & Wright Algorithm 3.5 (line search for strong Wolfe).
double WolfeLineSearch(LineProbe* probe, double f0, double df0, double armijo,
                       double wolfe, size_t max_steps, double initial_alpha) {
  if (df0 >= 0) {
    return 0.0;  // not a descent direction
  }
  double alpha_prev = 0.0;
  double f_prev = f0;
  double alpha = initial_alpha;
  constexpr double kAlphaMax = 1e6;
  for (size_t i = 0; i < max_steps; ++i) {
    double df = 0;
    const double f = probe->Eval(alpha, &df);
    if (f > f0 + armijo * alpha * df0 || (i > 0 && f >= f_prev)) {
      return Zoom(probe, alpha_prev, alpha, f_prev, f0, df0, armijo, wolfe,
                  max_steps);
    }
    if (std::fabs(df) <= -wolfe * df0) {
      return alpha;
    }
    if (df >= 0) {
      return Zoom(probe, alpha, alpha_prev, f, f0, df0, armijo, wolfe,
                  max_steps);
    }
    alpha_prev = alpha;
    f_prev = f;
    alpha = std::min(2.0 * alpha, kAlphaMax);
  }
  return alpha_prev;
}

}  // namespace

Lbfgs::Lbfgs(LbfgsOptions options) : options_(std::move(options)) {}

Result<OptimizationResult> Lbfgs::Minimize(DifferentiableFunction* function,
                                           la::VectorView w) const {
  if (function == nullptr) {
    return Status::InvalidArgument("null objective");
  }
  const size_t n = function->Dimension();
  if (w.size() != n) {
    return Status::InvalidArgument("initial point has wrong dimension");
  }
  if (options_.history == 0) {
    return Status::InvalidArgument("history must be positive");
  }

  OptimizationResult result;
  la::Vector grad(n), grad_prev(n), direction(n);
  la::Vector w_trial(n), grad_trial(n), w_prev(n);

  auto* chunked = dynamic_cast<ChunkedObjective*>(function);
  const size_t passes_before = chunked != nullptr ? chunked->passes() : 0;

  double f = function->EvaluateWithGradient(w, grad);
  ++result.function_evaluations;
  if (!std::isfinite(f)) {
    return Status::FailedPrecondition(
        "objective is not finite at the initial point");
  }

  // Correction-pair history (s = w_k+1 - w_k, y = g_k+1 - g_k).
  std::deque<la::Vector> s_history, y_history;
  std::deque<double> rho_history;

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    const double grad_inf = la::AbsMax(grad);
    if (options_.iteration_callback) {
      options_.iteration_callback(iter, f, grad_inf);
    }
    if (grad_inf <= options_.gradient_tolerance) {
      result.converged = true;
      break;
    }

    // Two-loop recursion: direction = -H grad.
    la::Copy(grad, direction);
    std::vector<double> alpha(s_history.size());
    for (size_t i = s_history.size(); i > 0; --i) {
      const size_t k = i - 1;
      alpha[k] = rho_history[k] * la::Dot(s_history[k], direction);
      la::Axpy(-alpha[k], y_history[k], direction);
    }
    if (!s_history.empty()) {
      // Initial Hessian scaling gamma = s.y / y.y (Nocedal eq. 7.20).
      const la::Vector& s_last = s_history.back();
      const la::Vector& y_last = y_history.back();
      const double yy = la::Dot(y_last, y_last);
      if (yy > 0) {
        la::Scal(la::Dot(s_last, y_last) / yy, direction);
      }
    }
    for (size_t k = 0; k < s_history.size(); ++k) {
      const double beta = rho_history[k] * la::Dot(y_history[k], direction);
      la::Axpy(alpha[k] - beta, s_history[k], direction);
    }
    la::Scal(-1.0, direction);

    // Strong-Wolfe line search along `direction`.
    const double df0 = la::Dot(grad, direction);
    la::Copy(w, w_prev);
    la::Copy(grad, grad_prev);
    // After the first update the two-loop recursion scales the direction
    // properly, so a unit step is the right opening probe. On the very
    // first iteration the direction is the raw (unscaled) negative
    // gradient, whose magnitude is arbitrary — open with ~unit-length
    // movement instead (Nocedal & Wright §6.1; mlpack does the same).
    // That probe usually fails and the line bisects, so its pass also
    // stores the line for the later probes: a bet of two row dots a row
    // in one pass against a whole margin pass.
    const bool unscaled = s_history.empty();
    const double initial_alpha =
        unscaled ? 1.0 / std::max(1.0, la::Nrm2(direction)) : 1.0;
    LineProbe probe{function,   chunked,
                    w_prev,     direction,
                    w_trial,    grad_trial,
                    &result.function_evaluations,
                    /*hold_line=*/unscaled && chunked != nullptr};
    const double step =
        WolfeLineSearch(&probe, f, df0, options_.armijo, options_.wolfe,
                        options_.max_line_search_steps, initial_alpha);
    if (step <= 0) {
      // Line search failed: either converged to numerical precision or the
      // direction was bad; stop with what we have.
      break;
    }

    // Accept w = w_prev + step * direction. When the step is the search's
    // latest pass probe, w_trial was built by the same Copy + Axpy and the
    // objective is deterministic, so the probe already holds the point, its
    // value and its gradient bit for bit: keep them instead of another pass.
    // Otherwise (zoom fell back to an earlier probe, or the step came from
    // EvalLine, whose values are exact only to rounding) evaluate the step
    // with a pass, so the iterate, f and the gradient are a pass's bits.
    double f_new = probe.last_value;
    if (step == probe.last_alpha) {
      la::Copy(w_trial, w);
      la::Copy(grad_trial, grad);
    } else {
      la::Copy(w_prev, w);
      la::Axpy(step, direction, w);
      f_new = function->EvaluateWithGradient(w, grad);
      ++result.function_evaluations;
    }

    // Update history.
    la::Vector s(n), y(n);
    la::Copy(w, s);
    la::Axpy(-1.0, w_prev, s);
    la::Copy(grad, y);
    la::Axpy(-1.0, grad_prev, y);
    const double sy = la::Dot(s, y);
    if (sy > 1e-12) {  // curvature condition; skip degenerate pairs
      if (s_history.size() == options_.history) {
        s_history.pop_front();
        y_history.pop_front();
        rho_history.pop_front();
      }
      s_history.push_back(std::move(s));
      y_history.push_back(std::move(y));
      rho_history.push_back(1.0 / sy);
    }

    const double improvement =
        std::fabs(f - f_new) / std::max(1.0, std::fabs(f));
    f = f_new;
    ++result.iterations;
    result.objective_history.push_back(f);
    if (improvement < options_.objective_tolerance) {
      result.converged = true;
      break;
    }
  }

  result.objective = f;
  result.gradient_norm = la::AbsMax(grad);
  if (result.gradient_norm <= options_.gradient_tolerance) {
    result.converged = true;
  }
  // Every evaluation of a chunked objective is one engine-driven pass over
  // the data; report how many this run performed (the paper's I/O unit).
  if (chunked != nullptr) {
    result.data_passes = chunked->passes() - passes_before;
  }
  return result;
}

}  // namespace m3::ml
