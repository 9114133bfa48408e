#ifndef M3_EXEC_CHUNK_PIPELINE_H_
#define M3_EXEC_CHUNK_PIPELINE_H_

/// \file
/// \brief The engine's pass driver: prefetch -> compute -> retire -> evict.
///
/// Stage lifecycle of one Run() pass over a la::Chunker + ChunkSchedule:
///   1. prefetch — a single background I/O thread walks the schedule
///      `readahead_chunks` positions ahead of compute and hands each
///      chunk's byte range to the configured io::PrefetchBackend
///      (madvise/pread; see io/prefetch_backend.h).
///   2. map — the chunk functor. Runs on the driving thread
///      (num_workers <= 1) or on an internal worker pool with up to
///      2*num_workers chunks in flight, in any order.
///   3. retire — always the driving thread, in ascending schedule-position
///      order. The in-order barrier that makes reductions (and SGD weight
///      updates) bitwise identical at any worker count and any backend.
///   4. evict — retired chunks join a trailing residency window; the
///      oldest-visited ranges beyond `ram_budget_bytes` are dropped
///      (madvise DONTNEED + fadvise) on the I/O thread (or inline with
///      `synchronous_eviction`).
///
/// Thread-safety: Run() is not reentrant — one pass at a time per
/// pipeline. `map` must be thread-safe across chunks iff num_workers >= 2;
/// `retire` never needs to be. stats()/ConsumeStats() are safe from any
/// thread. The prefetch backend is only ever driven from the (single) I/O
/// thread; pipelines sharing pools/backends (cluster simulator) must not
/// run passes concurrently.
///
/// Observability: every stage is bracketed by an obs::ScopedSpan (pass,
/// prefetch, compute, retire, evict) carrying chunk ids and the hit/stall
/// race verdict, so a `--trace=FILE` run shows the overlap — or the
/// bubble — on a timeline. Free when tracing is off; see
/// docs/OBSERVABILITY.md.

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "exec/chunk_schedule.h"
#include "exec/pipeline_stats.h"
#include "io/mmap_file.h"
#include "io/prefetch_backend.h"
#include "la/chunker.h"
#include "util/thread_pool.h"

namespace m3::exec {

/// \brief A contiguous byte range inside a mapping (absolute offsets).
struct ByteSpan {
  uint64_t offset = 0;
  uint64_t length = 0;
};

/// \brief Maps row ranges to the byte spans a scan of those rows touches.
///
/// The byte-range abstraction that lets one engine drive layouts whose
/// rows are not a uniform stride. The dense layout is the implicit
/// identity map (`base_offset + r * row_bytes`, handled inline by the
/// pipeline); a CSR layout maps a row range to its row_ptr / col_idx /
/// values slices. The prefetch, evict, and stall-accounting stages all
/// consume spans, so schedules, backends, counters, and tracing carry
/// over to any layout unchanged.
///
/// Implementations must be pure functions of the row range (same range →
/// same spans, every call, every pass): the evict window dedupes revisited
/// chunks by their first span's offset, and stall accounting assumes a
/// chunk's byte cost is stable. Spans are absolute offsets into the
/// mapping. Must be safe to call from the pipeline's I/O thread
/// concurrently with the driver (const, no mutation).
class ChunkByteMap {
 public:
  virtual ~ChunkByteMap() = default;

  /// Appends the spans a scan of rows [row_begin, row_end) touches.
  /// Zero-length spans may be omitted; spans need not be sorted.
  virtual void AppendSpans(size_t row_begin, size_t row_end,
                           std::vector<ByteSpan>* out) const = 0;

  /// The enclosing byte range of every span this map can produce (what a
  /// whole-region madvise should cover).
  virtual ByteSpan Extent() const = 0;
};

/// \brief A window of a memory mapping that a pipeline scans.
///
/// With `byte_map == nullptr` the region is dense row-major: row r lives
/// at byte offset `base_offset + r * row_bytes` inside `mapping`. With a
/// `byte_map`, the map translates row ranges to byte spans and
/// `base_offset`/`row_bytes` are ignored by the I/O stages. An unbound
/// region (`mapping == nullptr`) disables the prefetch and evict stages —
/// the pipeline then only orchestrates compute.
struct MappedRegion {
  const io::MemoryMappedFile* mapping = nullptr;
  uint64_t base_offset = 0;
  uint64_t row_bytes = 0;
  /// Not-owned row→bytes translation for non-uniform layouts (CSR). Must
  /// outlive the pipeline.
  const ChunkByteMap* byte_map = nullptr;
};

/// \brief Knobs for the three pipeline stages.
struct PipelineOptions {
  PipelineOptions() {}  // NOLINT: explicit ctor so `= PipelineOptions()` works

  /// How many chunks ahead of the compute cursor the prefetch stage keeps
  /// MADV_WILLNEED issued. 0 disables prefetching.
  size_t readahead_chunks = 2;

  /// Compute-stage fan-out. 0 or 1 runs chunk functors on the driving
  /// thread in schedule order; >= 2 runs them on an internal worker pool
  /// with up to `2 * num_workers` chunks in flight (retirement stays in
  /// schedule order).
  size_t num_workers = 0;

  /// When positive, the evict stage keeps at most this many bytes of
  /// visited chunks resident: each retired chunk joins a trailing window
  /// and the oldest-visited chunks are dropped (madvise DONTNEED) once the
  /// window exceeds the budget. Works for any ChunkSchedule — under a
  /// shuffled or strided order the window follows the *visit* order, not
  /// ascending file offsets. 0 disables engine-side eviction — callers
  /// that already evict via ScanHooks keep doing so in `retire`.
  uint64_t ram_budget_bytes = 0;

  /// madvise hint applied to the scanned region at the start of each pass
  /// (honors the dataset's core AccessPattern/M3Options setting). Passes
  /// driven by a non-sequential schedule downgrade kSequential to kNormal
  /// so kernel readahead does not race ahead of the permuted visit order.
  io::Advice advice = io::Advice::kSequential;

  /// Run evictions inline at retire instead of on the background stage.
  /// Deterministic residency for tests; slightly less overlap.
  bool synchronous_eviction = false;

  /// Which io::PrefetchBackend the prefetch stage drives: kMadvise issues
  /// MADV_WILLNEED (the default), kPread warms the page cache with
  /// pread(2) reads. Results are bitwise identical under every backend —
  /// only overlap changes.
  io::PrefetchBackendKind prefetch_backend = io::PrefetchBackendKind::kMadvise;

  /// Not-owned backend shared between pipelines that never run passes
  /// concurrently (cluster simulator), like the shared pools below. Null
  /// means the pipeline creates and owns one from `prefetch_backend`.
  io::PrefetchBackend* shared_prefetch_backend = nullptr;

  /// Not-owned pools shared between pipelines that never run passes
  /// concurrently (e.g. the cluster simulator's per-partition pipelines,
  /// which a job drives one at a time): instead of every pipeline spawning
  /// its own threads, they borrow these. `shared_io_pool` must be
  /// single-threaded (prefetch completion order must match issue order).
  /// Null means the pipeline creates and owns its pools as needed.
  util::ThreadPool* shared_io_pool = nullptr;
  util::ThreadPool* shared_compute_pool = nullptr;
};

/// \brief Which stage's page access judges the prefetch hit/stall race
/// for a pass.
///
/// The race asks "had the chunk's prefetch landed by the time compute
/// touched its pages?", so it must be sampled at the stage that actually
/// touches them. Map-reduce scans read rows inside `map` (the default);
/// scans whose sequential dependence keeps compute in `retire` (SGD
/// weight updates, union-find merges) touch pages only at retire —
/// sampling those at map dispatch would count a prefetch that lands
/// between the no-op map and the retire as a stall that never happened,
/// an artifact that grew with worker fan-out.
enum class RaceStage {
  kMap,     ///< sample when the chunk's `map` is dispatched (default)
  kRetire,  ///< sample when the chunk retires (retire-stage compute)
};

/// Chunk functor: (chunk_index, row_begin, row_end).
using ChunkFn = std::function<void(size_t, size_t, size_t)>;

/// Schedule-aware chunk functor: (position, chunk_index, row_begin,
/// row_end). `position` is the chunk's place in the pass's visit order
/// (dense in [0, schedule.num_chunks())); `chunk_index` is the chunker's
/// chunk visited there. For a sequential schedule the two coincide.
using ScheduledChunkFn =
    std::function<void(size_t, size_t, size_t, size_t)>;

/// \brief Pipelined out-of-core scan driver: prefetch -> compute -> evict.
///
/// M3's thesis is that chunked scans let the OS hide disk latency; this
/// engine makes the overlap explicit and generalizes it beyond ascending
/// chunk order. While the compute stage runs the functor on the chunk at
/// schedule position p, a background thread has already issued
/// MADV_WILLNEED for the chunks at positions (p, p + readahead], and the
/// oldest-visited chunks beyond the RAM budget are dropped with Evict.
/// The result: the disk streams continuously instead of idling while we
/// compute — for sequential scans, shuffled SGD minibatch passes, and
/// strided shard interleavings alike — and resident bytes stay bounded.
///
///   exec::ChunkPipeline pipeline({&mapped, offset, row_bytes}, options);
///   pipeline.Run(la::RowChunker(rows, chunk_rows),
///                exec::ChunkSchedule::Shuffled(num_chunks, seed),
///                [&](size_t p, size_t c, size_t lo, size_t hi) { ... });
///
/// Thread model: Run() is driven from the calling thread. `map` may run
/// concurrently on internal workers when `num_workers >= 2`; `retire`
/// always runs on the calling thread in ascending schedule-position order
/// (so ScanHooks-style eviction and reductions stay sequential). Run() is
/// not itself thread-safe: one pass at a time per pipeline.
class ChunkPipeline {
 public:
  explicit ChunkPipeline(PipelineOptions options = PipelineOptions());
  ChunkPipeline(MappedRegion region, PipelineOptions options);
  ~ChunkPipeline();

  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  /// Drives one full pass over `chunker` in ascending chunk order.
  /// `map` is invoked exactly once per chunk (possibly concurrently, any
  /// order); `retire` is invoked once per chunk on the calling thread, in
  /// ascending chunk order, after that chunk's `map` has returned. Blocks
  /// until every chunk has retired and background evictions for the pass
  /// have settled.
  void Run(const la::Chunker& chunker, const ChunkFn& map,
           const ChunkFn& retire = ChunkFn());

  /// Drives one full pass visiting `chunker`'s chunks in `schedule` order.
  /// Prefetch walks the schedule's permutation `readahead_chunks` positions
  /// ahead of compute; stall/hit classification and the eviction window
  /// follow visit positions. `retire` runs on the calling thread in
  /// ascending *position* order — the in-order retire barrier that keeps
  /// schedule-driven reductions (and SGD weight updates) bitwise identical
  /// at any worker count. `race_stage` names the stage whose dispatch
  /// samples the prefetch hit/stall race for this pass (per pass, not per
  /// pipeline: trainers share one pipeline between map-compute
  /// evaluations and retire-compute epochs).
  /// \pre schedule.num_chunks() == chunker.NumChunks()
  void Run(const la::Chunker& chunker, const ChunkSchedule& schedule,
           const ScheduledChunkFn& map,
           const ScheduledChunkFn& retire = ScheduledChunkFn(),
           RaceStage race_stage = RaceStage::kMap);

  /// Upper bound on chunks simultaneously in flight inside Run(). Callers
  /// keeping per-chunk state (e.g. ChunkMapReduce slots) can size arrays
  /// with it; the slot `position % max_in_flight()` is free by the time the
  /// chunk at `position` is dispatched.
  size_t max_in_flight() const;

  bool bound() const { return region_.mapping != nullptr; }
  const PipelineOptions& options() const { return options_; }
  const MappedRegion& region() const { return region_; }

  /// The prefetch backend this pipeline drives, or nullptr when unbound.
  const io::PrefetchBackend* prefetch_backend() const { return backend_; }

  /// Counters accumulated since construction / the last ConsumeStats().
  PipelineStats stats() const;

  /// Returns the accumulated stats and resets them.
  PipelineStats ConsumeStats();

 private:
  void RunSerial(const la::Chunker& chunker, const ChunkSchedule& schedule,
                 const ScheduledChunkFn& map, const ScheduledChunkFn& retire);
  void RunParallel(const la::Chunker& chunker,
                   const ChunkSchedule& schedule, const ScheduledChunkFn& map,
                   const ScheduledChunkFn& retire);

  /// The byte spans a scan of rows [row_begin, row_end) touches: one
  /// `row_bytes`-strided span for dense regions, the byte_map's spans
  /// otherwise. Zero-length chunks append nothing.
  void AppendChunkSpans(size_t row_begin, size_t row_end,
                        std::vector<ByteSpan>* out) const;

  /// Total bytes a scan of rows [row_begin, row_end) touches.
  uint64_t ChunkBytes(size_t row_begin, size_t row_end) const;

  /// Issues background prefetch so the chunks at schedule positions
  /// [prefetch_goal_, goal) are in flight; updates prefetch_goal_.
  void RequestPrefetchThrough(const la::Chunker& chunker,
                              const ChunkSchedule& schedule, size_t goal);

  /// Checks the prefetch race for the chunk at `position` (RaceStage::kMap
  /// passes) and runs `map` timed.
  void RunMapStage(const ScheduledChunkFn& map, size_t position, size_t chunk,
                   size_t row_begin, size_t row_end);

  /// Samples the prefetch race at retire time (RaceStage::kRetire passes):
  /// called once per position on the driving thread, in position order,
  /// just before the chunk's retire runs.
  void ClassifyRetireRace(size_t position, const la::Chunker::Range& range);

  /// Runs `retire` timed (calling thread, ascending position order).
  void RunRetireStage(const ScheduledChunkFn& retire, size_t position,
                      size_t chunk, size_t row_begin, size_t row_end);

  /// Appends the retired chunk's byte spans to the trailing residency
  /// window and evicts the oldest-visited ranges beyond the RAM budget.
  void EvictRetired(const la::Chunker::Range& range);

  MappedRegion region_;
  PipelineOptions options_;
  /// Backend owned by this pipeline (null when the options share one).
  std::unique_ptr<io::PrefetchBackend> owned_backend_;
  /// The prefetch stage's I/O issuer (owned or shared); null when unbound.
  io::PrefetchBackend* backend_ = nullptr;
  /// Pools owned by this pipeline (empty when the options share pools).
  std::unique_ptr<util::ThreadPool> owned_io_pool_;
  std::unique_ptr<util::ThreadPool> owned_compute_pool_;
  /// One background thread shared by the prefetch and evict stages; FIFO
  /// order means prefetches complete in issue order.
  util::ThreadPool* io_pool_ = nullptr;
  /// Compute fan-out pool (only when num_workers >= 2). Deliberately
  /// separate from util::GlobalThreadPool so chunk functors that
  /// internally ParallelFor do not deadlock against the engine.
  util::ThreadPool* compute_pool_ = nullptr;

  // Per-pass cursors (driver thread only, except prefetched_through_).
  // All are in schedule-position space, not chunk-index space.
  size_t prefetch_goal_ = 0;  ///< positions [0, goal) have prefetch issued
  std::atomic<size_t> prefetched_through_{0};  ///< completed prefix
  /// Trailing residency window: byte spans (absolute offset, length) of
  /// retired chunks not yet evicted, in visit order. A ragged (byte_map)
  /// chunk contributes one entry per span.
  std::deque<std::pair<uint64_t, uint64_t>> resident_window_;
  uint64_t resident_window_bytes_ = 0;
  /// Positions below this raced their prefetch with no compute lead time
  /// (pass warm-up) and are excluded from hit/stall classification.
  size_t stall_classify_from_ = 0;
  /// The stage judging this pass's hit/stall race (set per Run()).
  RaceStage race_stage_ = RaceStage::kMap;
  /// RaceStage::kRetire only: the classification ClassifyRetireRace just
  /// made for the position about to retire — lets RunRetireStage attribute
  /// the retire duration to the stall histogram and tag its trace span.
  /// Driver thread only; "hit"/"stall"/"warmup" or null between chunks.
  const char* last_retire_race_ = nullptr;

  mutable std::mutex stats_mu_;
  PipelineStats stats_;
};

/// \brief Drives one pass with an optional pipeline.
///
/// The single code path the trainers share: with `pipeline == nullptr`
/// every chunk runs `map` then `retire` inline, in chunk order — the
/// serial reference semantics. With a pipeline, identical calls are made
/// but prefetch/evict overlap and `map` may fan out. Either way `retire`
/// observes chunks in ascending order, so reductions merged at retire are
/// bitwise identical across both modes and any worker count.
void RunPass(ChunkPipeline* pipeline, const la::Chunker& chunker,
             const ChunkFn& map, const ChunkFn& retire = ChunkFn());

/// \brief Schedule-aware RunPass: one pass in `schedule` order.
///
/// Without a pipeline every position runs `map` then `retire` inline in
/// schedule order; with one, prefetch/evict follow the schedule and
/// `retire` keeps ascending position order. Both modes therefore visit
/// chunks in exactly the same sequence — the serial loop is the reference
/// semantics for the pipelined one.
void RunPass(ChunkPipeline* pipeline, const la::Chunker& chunker,
             const ChunkSchedule& schedule, const ScheduledChunkFn& map,
             const ScheduledChunkFn& retire = ScheduledChunkFn(),
             RaceStage race_stage = RaceStage::kMap);

}  // namespace m3::exec

#endif  // M3_EXEC_CHUNK_PIPELINE_H_
