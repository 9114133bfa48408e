#ifndef M3_CORE_MODEL_FIT_H_
#define M3_CORE_MODEL_FIT_H_

/// \file
/// \brief Fits the M3 performance model from measured engine execution.
///
/// `core/perf_model` predicts pass times from platform constants; the
/// execution engine measures what actually happened (`exec::PipelineStats`:
/// per-stage seconds, hit/stall counts, prefetch bytes). This is the layer
/// that closes the loop — the paper's §4 "profile and predict" — by fitting
/// every model parameter from a measured run instead of assuming it:
///
///   measured PipelineStats ──FitFromStats──▶ PerfModelParams
///        ▲                                        │ PredictPass / PredictRun
///        │          residual (predicted−measured) ▼
///   another measured run ◀────────────────── prediction
///
/// What each parameter is fit from:
///   - `cpu_seconds_per_byte`   — (compute + retire) seconds over the bytes
///                                the passes scanned. Calibrate on a *warm*
///                                run: on a cold one, stalled chunks serve
///                                their page faults inside the compute
///                                functor, inflating the CPU term.
///   - `disk_read_bytes_per_sec`— prefetch throughput on a run that
///                                actually stalled (MeasuredReadBandwidth):
///                                when the disk always wins the race the
///                                stats only bound bandwidth from below,
///                                and the caller's fallback (a disk probe)
///                                is kept.
///   - `overlap_efficiency`     — how much of min(cpu, io) the measured
///                                drive time shows was hidden, replacing
///                                the implicit perfect `max(cpu, io)`.
///   - `pass_overhead_seconds`  — optionally, the per-pass drive time left
///                                over beyond cpu + io (dispatch cost).
///
/// The cluster analogue is `cluster::ClusterConfig::CalibrateFromMeasured`,
/// which fits the simulator's spill/overlap constants from per-instance
/// `JobStats::instance_exec` through the same helpers.

#include <cstdint>
#include <string>

#include "core/perf_model.h"
#include "exec/pipeline_stats.h"
#include "util/result.h"

namespace m3 {

/// \brief Knobs for FitFromStats.
struct FitOptions {
  FitOptions() {}  // NOLINT: allows `= FitOptions()` defaults

  /// RAM assumed by the fitted params; 0 uses this machine's total RAM.
  uint64_t ram_bytes = 0;

  /// Storage bandwidth kept when the stats carry no stall evidence to fit
  /// one from (see MeasuredReadBandwidth). Feed io::ProbeDisk's measured
  /// sequential read rate here; the default is the paper's ~1 GB/s SSD.
  double fallback_disk_bytes_per_sec = 1e9;

  /// Attribute the per-pass drive time beyond cpu + io to
  /// `pass_overhead_seconds`. Off (the default) keeps overhead at zero so
  /// the fit's residual *reports* unmodeled time instead of absorbing it.
  bool fit_pass_overhead = false;
};

/// \brief A fitted model plus goodness-of-fit diagnostics.
///
/// The residual fields re-apply the fitted model to the calibration run
/// itself. They are zero when the three measured aggregates (cpu, io,
/// drive) are internally consistent with *some* overlap in [0, 1]; a
/// nonzero residual means the run fell outside the model family
/// (overlap_raw clamped — e.g. drive exceeded cpu + io and overhead
/// fitting was off). Cross-workload residuals — the interesting ones —
/// come from predicting a *different* measured run with `params`.
struct ModelFitResult {
  PerfModelParams params;

  uint64_t bytes_scanned = 0;  ///< calibration input: bytes over all passes
  uint64_t passes = 0;         ///< measured Run() invocations

  double cpu_seconds = 0;       ///< measured compute + retire seconds
  double io_seconds = 0;        ///< measured prefetch + evict seconds
  double measured_seconds = 0;  ///< measured drive (wall) seconds
  double predicted_seconds = 0;  ///< fitted model re-applied to the run
  double residual_seconds = 0;   ///< predicted − measured
  double relative_residual = 0;  ///< |residual| / measured

  /// Overlap estimate before clamping to [0, 1]: > 1 means drive was even
  /// shorter than max(cpu, io) (timer noise), < 0 means drive exceeded
  /// cpu + io (unmodeled per-pass overhead).
  double overlap_raw = 0;
  /// Fraction of scanned bytes whose chunk lost the prefetch race.
  double stall_byte_fraction = 0;
  /// True when `disk_read_bytes_per_sec` kept the caller's fallback
  /// because the run never stalled on storage.
  bool disk_bandwidth_from_fallback = false;

  std::string ToString() const;
};

/// \brief Storage read bandwidth measured by a stats block, bytes/sec.
///
/// Only a run that *stalled* observes raw storage speed — when every
/// prefetch wins its race, the stats bound bandwidth from below and
/// `fallback` is returned. The time base prefers the prefetch stage's own
/// seconds (real read time under the pread backend) and falls back
/// to the drive time not accounted for by compute (madvise's WILLNEED
/// returns before the I/O it triggers, so its prefetch_seconds measure
/// submission, not reading).
double MeasuredReadBandwidth(const exec::PipelineStats& stats,
                             double fallback);

/// \brief Fits PerfModelParams from one measured stats block.
///
/// `bytes_scanned` is the total bytes the block's passes visited (pass
/// bytes × passes for repeated scans of one dataset). Returns
/// InvalidArgument when the stats carry nothing to fit from (no passes,
/// no drive time, or no compute time).
util::Result<ModelFitResult> FitFromStats(const exec::PipelineStats& stats,
                                          uint64_t bytes_scanned,
                                          const FitOptions& options =
                                              FitOptions());

}  // namespace m3

#endif  // M3_CORE_MODEL_FIT_H_
