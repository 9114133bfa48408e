#ifndef M3_EXEC_PIPELINE_STATS_H_
#define M3_EXEC_PIPELINE_STATS_H_

#include <cstdint>
#include <string>

#include "util/histogram.h"
#include "util/json.h"
#include "util/result.h"

namespace m3::exec {

/// \brief Per-stage counters and timings for a ChunkPipeline.
///
/// One Run() is one pass; counters accumulate across passes until the
/// pipeline is destroyed or ConsumeStats() is called. The per-stage
/// second totals let the perf model (`core/perf_model`) be fit against
/// measured overlap: with perfect pipelining,
/// drive_seconds ~ max(compute_seconds, prefetch_seconds) rather than
/// their sum.
struct PipelineStats {
  uint64_t passes = 0;          ///< Run() invocations
  uint64_t chunks = 0;          ///< chunks driven through the compute stage
  uint64_t prefetches = 0;      ///< MADV_WILLNEED ranges issued
  uint64_t prefetch_bytes = 0;  ///< bytes covered by issued prefetches
  /// Chunks whose prefetch had completed before compute began (overlap
  /// succeeded). Only counted when a mapping is bound and readahead > 0.
  uint64_t prefetch_hits = 0;
  /// Chunks that reached their compute stage before their prefetch landed
  /// — the pipeline-stall signal (disk not keeping up with compute). The
  /// race is sampled at the stage that actually touches the chunk's pages
  /// (`exec::RaceStage`): at `map` dispatch for map-reduce scans, at
  /// retire for scans whose compute lives in the retire stage (SGD,
  /// union-find) — so the counts are trustworthy at every worker count.
  uint64_t stalls = 0;
  /// Bytes of the chunks counted in `stalls` — the data volume that
  /// actually waited on storage. core/model_fit requires this stall
  /// evidence before trusting a fitted disk bandwidth (which it computes
  /// as prefetch_bytes over the measured I/O wait, not from this field)
  /// and reports it as the stall_byte_fraction diagnostic.
  uint64_t stall_bytes = 0;
  /// Chunks excluded from the hit/stall race because their prefetch was
  /// issued with no compute lead time (pass warm-up: the first
  /// readahead_chunks positions, widened to the in-flight window under
  /// worker fan-out). After any complete pass of a bound pipeline with
  /// readahead enabled, every prefetched chunk is accounted exactly once:
  ///   prefetches == prefetch_hits + stalls + prefetch_unclassified.
  uint64_t prefetch_unclassified = 0;
  /// Evict (DONTNEED) ranges requested at retire whose calls returned OK.
  /// OK is not a drop: fadvise(DONTNEED) leaves page-cache folios that
  /// straddle the range's edges and pages another mapping holds. So this
  /// and `bytes_evicted` count requests, not dropped pages; the storage
  /// reads a run really made show in the system-wide `pgpgin` delta of
  /// /proc/vmstat across it.
  uint64_t evictions = 0;
  uint64_t bytes_evicted = 0;   ///< bytes covered by those requests
  /// \name Prefetch-backend counters (io::PrefetchBackend).
  /// One pipeline-level prefetch fans out into >= 1 backend submits (one
  /// madvise range, one pread block); completions count requests the
  /// kernel confirmed, fallbacks count requests the pread backend served
  /// by touching pages (anonymous regions). These sit beside the hit/stall
  /// race, which is untouched: for any complete pass prefetches ==
  /// prefetch_hits + stalls + prefetch_unclassified holds under every
  /// backend.
  /// @{
  uint64_t backend_submits = 0;
  uint64_t backend_completions = 0;
  uint64_t backend_fallbacks = 0;
  /// @}

  double prefetch_seconds = 0;  ///< background time inside Prefetch calls
  double compute_seconds = 0;   ///< wall time inside chunk `map` functors
  /// Wall time inside `retire` functors (driver thread, in-order). Scans
  /// whose sequential dependence keeps compute in retire — SGD weight
  /// updates, union-find merges — show their compute here, not in
  /// compute_seconds.
  double retire_seconds = 0;
  double evict_seconds = 0;     ///< time inside Evict calls at retire
  double drive_seconds = 0;     ///< wall time of whole passes (end to end)

  /// \name Per-chunk duration distributions (tail visibility: the totals
  /// above cannot distinguish "every chunk slightly slow" from "a few
  /// chunks catastrophically stalled", which is exactly what the ROADMAP's
  /// async-SGD and serving work needs to see).
  ///
  /// Both sample the wall seconds of the stage that touches a chunk's
  /// pages: the map stage for RaceStage::kMap scans, the retire stage for
  /// retire-compute scans (RaceStage::kRetire). `compute_duration` samples
  /// every chunk; `stall_duration` only the chunks that LOST the prefetch
  /// race — i.e. compute plus the unhidden fault-service time, the honest
  /// per-chunk cost of a stall.
  /// Surfaced as p50/p95/p99 by ToJson() and the bench JsonReporter.
  /// @{
  util::Histogram compute_duration;
  util::Histogram stall_duration;
  /// @}

  PipelineStats& operator+=(const PipelineStats& rhs);
  PipelineStats operator+(const PipelineStats& rhs) const;

  /// Fraction of prefetch-enabled chunks whose prefetch won the race,
  /// in [0, 1]; 1.0 when the prefetch stage fully hides the disk.
  double PrefetchHitRate() const;

  /// One JSON object carrying the counters, the per-stage seconds, and
  /// the duration percentiles — THE serialization of pipeline stats:
  /// bench JSON ("exec" objects via bench::JsonReporter) and trace
  /// metadata (obs::TraceRecorder) both emit exactly this, so the schema
  /// cannot fork. Keys are stable; additions are append-only.
  std::string ToJson() const;

  /// The parse side of ToJson() — how stats cross process boundaries
  /// (cluster::ProcessFleet workers serialize their per-job stats into
  /// the shm channel as ToJson() text; the parent rebuilds them here).
  /// Strict about the counter/seconds keys: a missing or non-numeric key
  /// is InvalidArgument, so schema drift fails loudly instead of reading
  /// as zero. The per-chunk duration histograms are NOT round-tripped:
  /// ToJson() emits only their percentiles, so the parsed stats carry
  /// empty histograms (their percentiles re-serialize as 0).
  static util::Result<PipelineStats> FromJson(const util::JsonValue& value);
};

}  // namespace m3::exec

#endif  // M3_EXEC_PIPELINE_STATS_H_
