#include "exec/chunk_pipeline.h"

#include <algorithm>
#include <future>
#include <utility>
#include <vector>

#include "obs/trace_recorder.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace m3::exec {

ChunkPipeline::ChunkPipeline(PipelineOptions options)
    : ChunkPipeline(MappedRegion(), std::move(options)) {}

ChunkPipeline::ChunkPipeline(MappedRegion region, PipelineOptions options)
    : region_(region), options_(options) {
  if (region_.mapping != nullptr) {
    M3_CHECK(region_.row_bytes > 0 || region_.byte_map != nullptr,
             "bound region needs row_bytes or a byte_map");
    if (options_.shared_prefetch_backend != nullptr) {
      backend_ = options_.shared_prefetch_backend;
    } else {
      owned_backend_ = io::MakePrefetchBackend(options_.prefetch_backend);
      backend_ = owned_backend_.get();
    }
    if (options_.shared_io_pool != nullptr) {
      M3_CHECK(options_.shared_io_pool->num_threads() == 1,
               "shared_io_pool must be single-threaded (prefetch FIFO)");
      io_pool_ = options_.shared_io_pool;
    } else {
      // One thread keeps prefetches completing in issue order, which makes
      // prefetched_through_ a plain high-water mark.
      owned_io_pool_ = std::make_unique<util::ThreadPool>(1);
      io_pool_ = owned_io_pool_.get();
    }
  }
  if (options_.num_workers >= 2) {
    if (options_.shared_compute_pool != nullptr) {
      compute_pool_ = options_.shared_compute_pool;
    } else {
      owned_compute_pool_ =
          std::make_unique<util::ThreadPool>(options_.num_workers);
      compute_pool_ = owned_compute_pool_.get();
    }
  }
}

ChunkPipeline::~ChunkPipeline() = default;

size_t ChunkPipeline::max_in_flight() const {
  if (compute_pool_ == nullptr) {
    return 1;
  }
  return 2 * compute_pool_->num_threads();
}

PipelineStats ChunkPipeline::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

PipelineStats ChunkPipeline::ConsumeStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  PipelineStats out = stats_;
  stats_ = PipelineStats();
  return out;
}

void ChunkPipeline::AppendChunkSpans(size_t row_begin, size_t row_end,
                                     std::vector<ByteSpan>* out) const {
  if (region_.byte_map != nullptr) {
    region_.byte_map->AppendSpans(row_begin, row_end, out);
    return;
  }
  const uint64_t length =
      static_cast<uint64_t>(row_end - row_begin) * region_.row_bytes;
  if (length > 0) {
    out->push_back(
        ByteSpan{region_.base_offset + row_begin * region_.row_bytes, length});
  }
}

uint64_t ChunkPipeline::ChunkBytes(size_t row_begin, size_t row_end) const {
  if (region_.byte_map == nullptr) {
    return static_cast<uint64_t>(row_end - row_begin) * region_.row_bytes;
  }
  std::vector<ByteSpan> spans;
  region_.byte_map->AppendSpans(row_begin, row_end, &spans);
  uint64_t total = 0;
  for (const ByteSpan& span : spans) {
    total += span.length;
  }
  return total;
}

void ChunkPipeline::RequestPrefetchThrough(const la::Chunker& chunker,
                                           const ChunkSchedule& schedule,
                                           size_t goal) {
  if (io_pool_ == nullptr || options_.readahead_chunks == 0) {
    return;
  }
  goal = std::min(goal, schedule.num_chunks());
  for (size_t pos = prefetch_goal_; pos < goal; ++pos) {
    const la::Chunker::Range range = chunker.Chunk(schedule.At(pos));
    std::vector<ByteSpan> spans;
    AppendChunkSpans(range.begin, range.end, &spans);
    // Always submit the task, even for a zero-byte chunk (all-empty sparse
    // rows): the watermark must advance and the chunk must count as one
    // prefetch, or every later position would misclassify as a stall and
    // the prefetches == hits + stalls + unclassified invariant would break.
    const io::MemoryMappedFile* mapping = region_.mapping;
    io_pool_->Submit([this, mapping, spans = std::move(spans), pos] {
      obs::NameThisThread("pipeline-io");
      uint64_t total_bytes = 0;
      for (const ByteSpan& span : spans) {
        total_bytes += span.length;
      }
      obs::ScopedSpan span("exec", "prefetch");
      if (span.armed()) {
        span.AddArg("position", static_cast<uint64_t>(pos));
        span.AddArg("bytes", total_bytes);
        span.AddArg("backend",
                    io::PrefetchBackendKindToString(backend_->kind()));
      }
      util::Stopwatch watch;
      // Best effort: a failed prefetch only loses overlap, never data.
      io::PrefetchOutcome outcome;
      for (const ByteSpan& range : spans) {
        if (range.length == 0) {
          continue;
        }
        if (auto result =
                backend_->Prefetch(*mapping, range.offset, range.length);
            result.ok()) {
          outcome.submits += result.value().submits;
          outcome.completions += result.value().completions;
          outcome.fallbacks += result.value().fallbacks;
        }
      }
      const double elapsed = watch.ElapsedSeconds();
      if (span.armed()) {
        span.AddArg("submits", static_cast<uint64_t>(outcome.submits));
      }
      prefetched_through_.store(pos + 1, std::memory_order_release);
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.prefetches;
      stats_.prefetch_bytes += total_bytes;
      stats_.prefetch_seconds += elapsed;
      stats_.backend_submits += outcome.submits;
      stats_.backend_completions += outcome.completions;
      stats_.backend_fallbacks += outcome.fallbacks;
    });
  }
  prefetch_goal_ = std::max(prefetch_goal_, goal);
}

void ChunkPipeline::RunMapStage(const ScheduledChunkFn& map, size_t position,
                                size_t chunk, size_t row_begin,
                                size_t row_end) {
  // Warm-up positions are dispatched right after their prefetch is issued,
  // so losing that race says nothing about the disk; count them as
  // unclassified instead so every prefetched chunk is accounted once:
  // prefetches == prefetch_hits + stalls + prefetch_unclassified.
  // RaceStage::kRetire passes touch their pages at retire, not here, so
  // their classification happens in ClassifyRetireRace instead.
  const bool prefetching = bound() && options_.readahead_chunks > 0 &&
                           race_stage_ == RaceStage::kMap;
  const bool racing = prefetching && position >= stall_classify_from_;
  bool hit = false;
  if (racing) {
    hit = prefetched_through_.load(std::memory_order_acquire) > position;
  }
  obs::ScopedSpan span("exec", "compute");
  if (span.armed()) {
    span.AddArg("position", static_cast<uint64_t>(position));
    span.AddArg("chunk", static_cast<uint64_t>(chunk));
    span.AddArg("rows", static_cast<uint64_t>(row_end - row_begin));
    if (prefetching) {
      span.AddArg("race", racing ? (hit ? "hit" : "stall") : "warmup");
    }
  }
  util::Stopwatch watch;
  map(position, chunk, row_begin, row_end);
  const double elapsed = watch.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.compute_seconds += elapsed;
  stats_.compute_duration.Add(elapsed);
  if (racing) {
    if (hit) {
      ++stats_.prefetch_hits;
    } else {
      ++stats_.stalls;
      stats_.stall_bytes += ChunkBytes(row_begin, row_end);
      // The map stage touches the pages here, so its wall time carries the
      // unhidden fault-service cost — the stall's per-chunk duration.
      stats_.stall_duration.Add(elapsed);
    }
  } else if (prefetching) {
    ++stats_.prefetch_unclassified;
  }
}

void ChunkPipeline::ClassifyRetireRace(size_t position,
                                       const la::Chunker::Range& range) {
  if (race_stage_ != RaceStage::kRetire || !bound() ||
      options_.readahead_chunks == 0) {
    return;
  }
  // Sampled on the driving thread just before the chunk's retire — the
  // stage that touches the pages of a retire-compute scan. Retire order
  // is position order at every worker count, so these counts do not
  // depend on compute fan-out.
  const bool racing = position >= stall_classify_from_;
  const bool hit =
      prefetched_through_.load(std::memory_order_acquire) > position;
  last_retire_race_ = racing ? (hit ? "hit" : "stall") : "warmup";
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!racing) {
    ++stats_.prefetch_unclassified;
  } else if (hit) {
    ++stats_.prefetch_hits;
  } else {
    ++stats_.stalls;
    stats_.stall_bytes += ChunkBytes(range.begin, range.end);
  }
}

void ChunkPipeline::RunRetireStage(const ScheduledChunkFn& retire,
                                   size_t position, size_t chunk,
                                   size_t row_begin, size_t row_end) {
  // For RaceStage::kRetire passes this stage touches the pages, so its
  // wall time is the stalled chunk's duration; consume the classification
  // ClassifyRetireRace left for this position.
  const char* race = last_retire_race_;
  last_retire_race_ = nullptr;
  obs::ScopedSpan span("exec", "retire");
  if (span.armed()) {
    span.AddArg("position", static_cast<uint64_t>(position));
    span.AddArg("chunk", static_cast<uint64_t>(chunk));
    if (race != nullptr) {
      span.AddArg("race", race);
    }
  }
  util::Stopwatch watch;
  retire(position, chunk, row_begin, row_end);
  const double elapsed = watch.ElapsedSeconds();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.retire_seconds += elapsed;
  if (race != nullptr && race[0] == 's') {  // "stall"
    stats_.stall_duration.Add(elapsed);
  }
}

void ChunkPipeline::EvictRetired(const la::Chunker::Range& range) {
  if (!bound() || options_.ram_budget_bytes == 0) {
    return;
  }
  // The retired chunk's spans join the trailing residency window; the
  // oldest-visited spans beyond the budget leave it. Visit order — not
  // file order — so the window is correct under any schedule. A ragged
  // (byte_map) chunk holds one entry per span, all admitted together.
  std::vector<ByteSpan> spans;
  AppendChunkSpans(range.begin, range.end, &spans);
  for (const ByteSpan& span : spans) {
    if (span.length == 0) {
      continue;
    }
    // A revisited chunk (window carried across passes) would otherwise hold
    // two entries: its bytes double-counted and the stale entry later
    // evicting pages this visit just re-admitted. Keep only the newest.
    // Spans are a pure function of the row range, so offset identity is
    // chunk identity.
    for (auto it = resident_window_.begin(); it != resident_window_.end();
         ++it) {
      if (it->first == span.offset) {
        resident_window_bytes_ -= it->second;
        resident_window_.erase(it);
        break;
      }
    }
    resident_window_.emplace_back(span.offset, span.length);
    resident_window_bytes_ += span.length;
  }
  while (resident_window_bytes_ > options_.ram_budget_bytes &&
         !resident_window_.empty()) {
    const auto [offset, length] = resident_window_.front();
    resident_window_.pop_front();
    resident_window_bytes_ -= length;
    const io::MemoryMappedFile* mapping = region_.mapping;
    auto evict = [this, mapping, offset, length] {
      obs::NameThisThread("pipeline-io");
      obs::ScopedSpan span("exec", "evict");
      if (span.armed()) {
        span.AddArg("bytes", static_cast<uint64_t>(length));
      }
      util::Stopwatch watch;
      util::Status status = mapping->Evict(offset, length);
      const double elapsed = watch.ElapsedSeconds();
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.evict_seconds += elapsed;
      if (status.ok()) {
        ++stats_.evictions;
        stats_.bytes_evicted += length;
      }
    };
    if (options_.synchronous_eviction) {
      evict();
    } else {
      io_pool_->Submit(std::move(evict));
    }
  }
}

void ChunkPipeline::RunSerial(const la::Chunker& chunker,
                              const ChunkSchedule& schedule,
                              const ScheduledChunkFn& map,
                              const ScheduledChunkFn& retire) {
  const size_t n = schedule.num_chunks();
  for (size_t pos = 0; pos < n; ++pos) {
    // Keep the prefetch stage `readahead_chunks` positions ahead of compute.
    RequestPrefetchThrough(chunker, schedule, pos + 1 + options_.readahead_chunks);
    const size_t chunk = schedule.At(pos);
    const la::Chunker::Range range = chunker.Chunk(chunk);
    RunMapStage(map, pos, chunk, range.begin, range.end);
    ClassifyRetireRace(pos, range);
    if (retire) {
      RunRetireStage(retire, pos, chunk, range.begin, range.end);
    }
    EvictRetired(range);
  }
}

void ChunkPipeline::RunParallel(const la::Chunker& chunker,
                                const ChunkSchedule& schedule,
                                const ScheduledChunkFn& map,
                                const ScheduledChunkFn& retire) {
  const size_t n = schedule.num_chunks();
  const size_t window = max_in_flight();
  std::deque<std::pair<size_t, std::future<void>>> in_flight;
  size_t next = 0;
  try {
    for (size_t retiring = 0; retiring < n; ++retiring) {
      while (next < n && next - retiring < window) {
        RequestPrefetchThrough(chunker, schedule,
                               next + 1 + options_.readahead_chunks);
        const size_t chunk = schedule.At(next);
        const la::Chunker::Range range = chunker.Chunk(chunk);
        in_flight.emplace_back(
            next, compute_pool_->Submit([this, &map, p = next, chunk, range] {
              obs::NameThisThread("pipeline-worker");
              RunMapStage(map, p, chunk, range.begin, range.end);
            }));
        ++next;
      }
      in_flight.front().second.get();  // in-order retirement barrier
      in_flight.pop_front();
      const size_t chunk = schedule.At(retiring);
      const la::Chunker::Range range = chunker.Chunk(chunk);
      ClassifyRetireRace(retiring, range);
      if (retire) {
        RunRetireStage(retire, retiring, chunk, range.begin, range.end);
      }
      EvictRetired(range);
    }
  } catch (...) {
    // A throwing functor must not leave workers running maps that
    // reference `map` (and the caller's stack) after this frame unwinds:
    // wait out every in-flight chunk, then propagate the first exception.
    // Later chunks' stored exceptions are dropped with their futures.
    for (auto& [pos, future] : in_flight) {
      if (future.valid()) {
        future.wait();
      }
    }
    throw;
  }
}

void ChunkPipeline::Run(const la::Chunker& chunker, const ChunkFn& map,
                        const ChunkFn& retire) {
  M3_CHECK(map != nullptr, "null chunk functor");
  Run(chunker, ChunkSchedule::Sequential(chunker.NumChunks()),
      [&map](size_t, size_t chunk, size_t row_begin, size_t row_end) {
        map(chunk, row_begin, row_end);
      },
      retire ? ScheduledChunkFn([&retire](size_t, size_t chunk,
                                          size_t row_begin, size_t row_end) {
          retire(chunk, row_begin, row_end);
        })
             : ScheduledChunkFn());
}

void ChunkPipeline::Run(const la::Chunker& chunker,
                        const ChunkSchedule& schedule,
                        const ScheduledChunkFn& map,
                        const ScheduledChunkFn& retire,
                        RaceStage race_stage) {
  M3_CHECK(map != nullptr, "null chunk functor");
  M3_CHECK(schedule.num_chunks() == chunker.NumChunks(),
           "schedule covers %zu chunks, chunker has %zu",
           schedule.num_chunks(), chunker.NumChunks());
  obs::NameThisThread("driver");
  obs::ScopedSpan pass_span("exec", "pass");
  if (pass_span.armed()) {
    pass_span.AddArg("chunks", static_cast<uint64_t>(chunker.NumChunks()));
    pass_span.AddArg("workers", static_cast<uint64_t>(options_.num_workers));
  }
  util::Stopwatch watch;
  prefetch_goal_ = 0;
  prefetched_through_.store(0, std::memory_order_release);
  // resident_window_ deliberately carries over: the previous pass's
  // trailing window is still resident, so dropping it from accounting at
  // an epoch boundary would let peak residency reach ~2x the budget while
  // the new pass fills a fresh window. Revisits dedupe their stale entry
  // at retire (see EvictRetired); the residual cost is a stale entry
  // popping while its chunk is prefetched-but-not-yet-visited early in
  // the next pass — one wasted prefetch, never an accounting leak.
  race_stage_ = race_stage;
  // Warm-up exclusion window. At kMap the dispatch cursor runs up to the
  // in-flight window ahead of retire, so fan-out widens the set of
  // positions whose prefetch was issued with no compute lead time. At
  // kRetire the sampling point is the (always serial, in-order) retire
  // cursor, so the window is the readahead depth at every worker count —
  // which is what keeps retire-race counts comparable across {0,2,4}
  // workers.
  stall_classify_from_ =
      compute_pool_ != nullptr && race_stage_ == RaceStage::kMap
          ? std::max(options_.readahead_chunks, max_in_flight())
          : options_.readahead_chunks;
  if (bound()) {
    // Kernel-side sequential readahead would race ahead in file order; on
    // a permuted schedule that wastes RAM on chunks the pass visits much
    // later, so downgrade to kNormal and let the explicit WILLNEED stage
    // follow the schedule instead.
    io::Advice advice = options_.advice;
    if (!schedule.is_sequential() && advice == io::Advice::kSequential) {
      advice = io::Advice::kNormal;
    }
    ByteSpan extent{region_.base_offset,
                    chunker.total_rows() * region_.row_bytes};
    if (region_.byte_map != nullptr) {
      extent = region_.byte_map->Extent();
    }
    region_.mapping->AdviseRange(advice, extent.offset, extent.length)
        .IgnoreError();
    // Warm the pipe before compute starts.
    RequestPrefetchThrough(chunker, schedule, options_.readahead_chunks);
  }
  try {
    if (compute_pool_ != nullptr) {
      RunParallel(chunker, schedule, map, retire);
    } else {
      RunSerial(chunker, schedule, map, retire);
    }
  } catch (...) {
    if (io_pool_ != nullptr) {
      io_pool_->Wait();  // outstanding prefetch/evict tasks use `this`
    }
    throw;
  }
  if (io_pool_ != nullptr) {
    io_pool_->Wait();  // settle outstanding prefetches/evictions
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.passes;
    stats_.chunks += chunker.NumChunks();
    stats_.drive_seconds += watch.ElapsedSeconds();
  }
  if (obs::TracingEnabled()) {
    // Same serialization the bench JSON emits, so a trace is self-describing.
    obs::TraceRecorder::Get().SetMetadata("pipeline_stats", stats().ToJson());
  }
}

void RunPass(ChunkPipeline* pipeline, const la::Chunker& chunker,
             const ChunkFn& map, const ChunkFn& retire) {
  RunPass(pipeline, chunker, ChunkSchedule::Sequential(chunker.NumChunks()),
          [&map](size_t, size_t chunk, size_t row_begin, size_t row_end) {
            map(chunk, row_begin, row_end);
          },
          retire ? ScheduledChunkFn([&retire](size_t, size_t chunk,
                                              size_t row_begin,
                                              size_t row_end) {
              retire(chunk, row_begin, row_end);
            })
                 : ScheduledChunkFn());
}

void RunPass(ChunkPipeline* pipeline, const la::Chunker& chunker,
             const ChunkSchedule& schedule, const ScheduledChunkFn& map,
             const ScheduledChunkFn& retire, RaceStage race_stage) {
  if (pipeline != nullptr) {
    pipeline->Run(chunker, schedule, map, retire, race_stage);
    return;
  }
  M3_CHECK(schedule.num_chunks() == chunker.NumChunks(),
           "schedule covers %zu chunks, chunker has %zu",
           schedule.num_chunks(), chunker.NumChunks());
  for (size_t pos = 0; pos < schedule.num_chunks(); ++pos) {
    const size_t chunk = schedule.At(pos);
    const la::Chunker::Range range = chunker.Chunk(chunk);
    map(pos, chunk, range.begin, range.end);
    if (retire) {
      retire(pos, chunk, range.begin, range.end);
    }
  }
}

}  // namespace m3::exec
