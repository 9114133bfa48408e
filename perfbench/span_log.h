#ifndef M3_PERFBENCH_SPAN_LOG_H_
#define M3_PERFBENCH_SPAN_LOG_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace m3::perfbench {

/// \brief The benchmark's own span recorder.
///
/// Spans are recorded from the benchmark's files only, around each call it
/// makes into a library layer (`data`, `core`, `exec`, `ml`, `cluster`,
/// `io`, `la`), so the library itself is measured from outside. Every span
/// is opened and closed on the driving thread: the training hooks the
/// benchmark wraps (ScanHooks, the L-BFGS iteration callback) all run
/// there. Spans stay in memory and are written out once, when the run
/// ends, as Chrome trace-event JSON (open it in Perfetto).
class SpanLog {
 public:
  struct Span {
    const char* layer = "";
    const char* name = "";
    double start_s = 0;  ///< seconds since the log's origin
    double end_s = -1;   ///< < 0 while open
    int parent = -1;     ///< enclosing span, -1 for roots
    double Seconds() const { return end_s - start_s; }
  };

  /// A disabled log records nothing; Begin returns -1 and End ignores it.
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }

  /// Seconds since the log was created (the trace's time origin).
  double Now() const;

  /// Opens a span nested in the innermost open one. `layer` and `name`
  /// must be string literals (they are stored by pointer).
  int Begin(const char* layer, const char* name);
  void End(int id) { EndAt(id, Now()); }
  /// Closes `id` at an earlier time `end_s` (a pass ends at its last
  /// chunk, which is only known once the next pass or the call begins).
  void EndAt(int id, double end_s);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every closed span as a Chrome trace-event "X" event.
  util::Status WriteChromeTrace(const std::string& path) const;

  /// RAII helper: Begin on construction, End on destruction.
  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, const char* name)
        : log_(log), id_(log->Begin(layer, name)) {}
    ~Scope() { log_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int id_;
  };

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// \brief getrusage snapshot of this process (or its reaped children).
struct Usage {
  double user_s = 0;
  double sys_s = 0;
  int64_t minor_faults = 0;
  int64_t major_faults = 0;
  double max_rss_mib = 0;

  static Usage Self();
  static Usage Children();
  Usage operator-(const Usage& rhs) const;  ///< max_rss_mib is not a delta
  Usage operator+(const Usage& rhs) const;  ///< max_rss_mib takes the max
};

/// Quantile q in [0, 1] of `values` by the exclusive method (1-based
/// position q * (n + 1), linearly interpolated; what Python's
/// statistics.quantiles computes by default); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Number of samples strictly above `threshold`.
size_t CountAbove(const std::vector<double>& values, double threshold);

}  // namespace m3::perfbench

#endif  // M3_PERFBENCH_SPAN_LOG_H_
