#ifndef M3_OBS_TRACE_ANALYSIS_H_
#define M3_OBS_TRACE_ANALYSIS_H_

/// \file
/// \brief Offline analysis of the Chrome-trace JSON written by
/// obs::TraceRecorder (docs/OBSERVABILITY.md).
///
/// Two consumers:
///  - `tools/trace_summarize` — the CLI that turns a captured trace into
///    per-stage utilization, measured overlap efficiency, and the top-N
///    longest stalls; CI runs it as a smoke gate over the nightly bench
///    trace.
///  - tests — `ValidateTrace` is the machine-checkable definition of "a
///    well-formed m3 trace": parses, spans nest per thread, and counter
///    events carry a name and args.
///
/// The overlap-efficiency calculation deliberately mirrors
/// m3::CombineOverlap (core/perf_model.h, max + (1-eff)*min): with cpu = compute+retire
/// busy seconds, io = prefetch+evict busy seconds, and drive = total
/// "pass" span seconds, solving drive = max + (1-eff)*min for eff gives
///   eff = (cpu + io - drive) / min(cpu, io), clamped to [0, 1].
/// That makes a measured trace directly comparable to the fitted
/// PerfModel's overlap_efficiency — the calibration loop's residual check.

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/result.h"
#include "util/status.h"

namespace m3::obs {

/// Aggregate of all "ph":"X" spans sharing one name.
struct StageUtilization {
  std::string name;
  uint64_t spans = 0;
  double busy_seconds = 0;   ///< sum of span durations
  /// busy_seconds / wall_seconds of the whole trace, in [0, 1] unless the
  /// stage runs concurrently with itself on several threads (workers).
  double utilization = 0;
};

/// One span that lost the prefetch race (args.race == "stall").
struct StallRecord {
  double seconds = 0;       ///< span duration
  uint64_t position = 0;    ///< schedule position (args.position)
  uint64_t chunk = 0;       ///< chunk id (args.chunk), 0 if absent
  uint64_t tid = 0;         ///< thread that served the fault
};

/// Everything trace_summarize prints; see AnalyzeTrace.
struct TraceSummary {
  double wall_seconds = 0;       ///< last span end - first span start
  double drive_seconds = 0;      ///< total "pass" span time
  double compute_seconds = 0;    ///< "compute" busy
  double retire_seconds = 0;     ///< "retire" busy
  double prefetch_seconds = 0;   ///< "prefetch" busy
  double evict_seconds = 0;      ///< "evict" busy
  /// Overlap efficiency solved from the measured stage times (see file
  /// doc). 0 when the pass had no I/O-side work to hide.
  double measured_overlap_efficiency = 0;
  /// CombineOverlap(cpu, io, 1.0) — the drive time a perfectly
  /// overlapped pipeline would have needed.
  double perfect_overlap_seconds = 0;
  /// drive - perfect: wall seconds lost to imperfect overlap ("bubble").
  double bubble_seconds = 0;

  std::vector<StageUtilization> stages;       ///< sorted by busy desc
  std::vector<std::string> counter_tracks;    ///< distinct counter names
  std::vector<StallRecord> top_stalls;        ///< longest first

  uint64_t events = 0;    ///< traceEvents entries (incl. metadata)
  uint64_t spans = 0;     ///< "ph":"X" events
  uint64_t counters = 0;  ///< "ph":"C" events
  uint64_t dropped_events = 0;  ///< ring-buffer overwrites (doc field)

  /// Human-readable report (what trace_summarize prints).
  std::string ToString() const;
};

/// \brief Structural validation of a parsed trace document.
///
/// Checks, in order:
///  - the document is an object with a "traceEvents" array;
///  - every event is an object with a string "ph";
///  - "ph":"X" spans carry finite ts/dur and, per tid, nest properly
///    (a span starting inside an earlier span ends within it — stack
///    discipline with a small epsilon for %.3f rounding);
///  - "ph":"C" counters carry a string name and a non-empty args object.
util::Status ValidateTrace(const util::JsonValue& doc);

/// \brief Aggregate a parsed trace into a TraceSummary.
///
/// Does not validate; call ValidateTrace first when the trace is
/// untrusted. `top_n` bounds top_stalls.
util::Result<TraceSummary> AnalyzeTrace(const util::JsonValue& doc,
                                        size_t top_n = 10);

/// Read + parse + validate + analyze a trace file in one call.
util::Result<TraceSummary> AnalyzeTraceFile(const std::string& path,
                                            size_t top_n = 10);

}  // namespace m3::obs

#endif  // M3_OBS_TRACE_ANALYSIS_H_
