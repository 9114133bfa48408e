#ifndef M3_ML_LBFGS_H_
#define M3_ML_LBFGS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "ml/objective.h"
#include "util/result.h"

namespace m3::ml {

/// \brief Outcome of an optimizer run.
struct OptimizationResult {
  double objective = 0;              ///< final f(w)
  double gradient_norm = 0;          ///< final ||grad||
  size_t iterations = 0;             ///< outer iterations performed
  /// Objective evaluations: one data pass each for a ChunkedObjective,
  /// one job each for the cluster driver. A line search's margin pass
  /// (ChunkedObjective::PrepareLine) counts as one when it happens; it
  /// does not on a line whose opening probe stored the margins. The probes
  /// the margins answer count as none.
  size_t function_evaluations = 0;
  /// Sequential data passes the objective actually performed (from
  /// ChunkedObjective::passes(); equals function_evaluations for chunked
  /// objectives, 0 for objectives that do not scan data).
  size_t data_passes = 0;
  bool converged = false;            ///< gradient tolerance reached
  std::vector<double> objective_history;  ///< f after each iteration
};

/// \brief Options for the L-BFGS optimizer.
struct LbfgsOptions {
  size_t max_iterations = 100;
  /// Number of (s, y) correction pairs kept (mlpack default is 10).
  size_t history = 10;
  /// Stop when ||grad||_inf <= this.
  double gradient_tolerance = 1e-6;
  /// Stop when |f_k - f_{k+1}| / max(1, |f_k|) falls below this.
  double objective_tolerance = 1e-12;
  /// Armijo sufficient-decrease constant (c1) for the Wolfe line search.
  double armijo = 1e-4;
  /// Curvature constant (c2) for the strong Wolfe condition.
  double wolfe = 0.9;
  size_t max_line_search_steps = 30;
  /// Optional per-iteration observer: (iteration, f, ||grad||_inf).
  std::function<void(size_t, double, double)> iteration_callback;
};

/// \brief Limited-memory BFGS with a strong-Wolfe line search
/// (Nocedal & Wright, Algorithms 3.5/3.6 + 7.4 two-loop recursion).
///
/// This is the optimizer the paper uses for logistic regression ("10
/// iterations of L-BFGS"). Every evaluation streams the file once, which is
/// why L-BFGS on a memory-mapped out-of-core dataset is I/O-bound. A line
/// search's opening probe is a full pass. If it fails and the objective
/// can restrict itself to the line (ChunkedObjective::PrepareLine), the
/// line's later probes cost no pass; otherwise each probe is a pass. What
/// those probes need is stored by one more pass, except on a line opened
/// with the 1/||d|| step (no curvature pair yet, so the raw gradient's
/// line, which usually bisects): its opening probe goes through
/// ChunkedObjective::EvaluateOpeningProbe, whose pass stores it too. The
/// accepted step's value and gradient are kept when it is the latest pass
/// probe, and evaluated with a pass otherwise. So on the logistic loss an
/// iteration whose opening probe is accepted costs one pass, and one whose
/// opening probe fails costs two on the first line and three on a later
/// one; the trained bits are those of a pass per probe. A dense
/// paper-config call costs 12 passes: 1 initial, 2 for the first line and
/// 1 for each of the other nine.
class Lbfgs {
 public:
  explicit Lbfgs(LbfgsOptions options = LbfgsOptions());

  /// Minimizes `function` starting from (and updating) `w`.
  util::Result<OptimizationResult> Minimize(DifferentiableFunction* function,
                                            la::VectorView w) const;

  const LbfgsOptions& options() const { return options_; }

 private:
  LbfgsOptions options_;
};

}  // namespace m3::ml

#endif  // M3_ML_LBFGS_H_
