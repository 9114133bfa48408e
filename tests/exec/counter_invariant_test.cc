// The prefetch accounting invariant: every chunk a bound pipeline
// prefetches is classified exactly once — as a hit (prefetch landed before
// compute), a stall (compute got there first), or unclassified (pass
// warm-up, where the race has no meaning). So after any complete pass,
// regardless of schedule kind or worker fan-out:
//
//   prefetches == prefetch_hits + stalls + prefetch_unclassified
//
// This is what lets the cluster simulator (and benches) treat the three
// counters as a partition of the prefetched chunks instead of a sample.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exec/chunk_pipeline.h"
#include "exec/chunk_schedule.h"
#include "io/file.h"
#include "la/chunker.h"
#include "obs/trace_analysis.h"
#include "obs/trace_recorder.h"
#include "util/json.h"

namespace m3::exec {
namespace {

class CounterInvariantTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_counter_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  io::MemoryMappedFile MakeMapped(size_t rows, size_t row_doubles) {
    const std::string path = dir_ + "/data.bin";
    std::vector<double> values(rows * row_doubles);
    std::iota(values.begin(), values.end(), 0.0);
    std::string bytes(reinterpret_cast<const char*>(values.data()),
                      values.size() * sizeof(double));
    EXPECT_TRUE(io::WriteStringToFile(path, bytes).ok());
    return io::MemoryMappedFile::Map(path).ValueOrDie();
  }

  std::string dir_;
};

void ExpectInvariant(const PipelineStats& stats) {
  EXPECT_EQ(stats.prefetches,
            stats.prefetch_hits + stats.stalls + stats.prefetch_unclassified)
      << "hits=" << stats.prefetch_hits << " stalls=" << stats.stalls
      << " unclassified=" << stats.prefetch_unclassified;
}

ChunkSchedule MakeKind(ScanOrder order, size_t num_chunks) {
  switch (order) {
    case ScanOrder::kShuffled:
      return ChunkSchedule::Shuffled(num_chunks, 17);
    case ScanOrder::kStrided:
      return ChunkSchedule::Strided(num_chunks, 3, /*offset=*/1);
    case ScanOrder::kSequential:
      break;
  }
  return ChunkSchedule::Sequential(num_chunks);
}

TEST_F(CounterInvariantTest, HoldsPerScheduleKindSerial) {
  const size_t kRows = 2048, kCols = 32;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  for (const ScanOrder order : {ScanOrder::kSequential, ScanOrder::kShuffled,
                                ScanOrder::kStrided}) {
    PipelineOptions options;
    options.readahead_chunks = 2;
    ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
    la::RowChunker chunker(kRows, 128);
    volatile double sink = 0;
    pipeline.Run(chunker, MakeKind(order, chunker.NumChunks()),
                 [&](size_t, size_t, size_t begin, size_t end) {
                   const double* data = mapped.As<const double>();
                   double sum = 0;
                   for (size_t r = begin; r < end; ++r) {
                     sum += data[r * kCols];
                   }
                   sink = sink + sum;
                 });
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.prefetches, chunker.NumChunks()) << ToString(order);
    ExpectInvariant(stats);
  }
}

TEST_F(CounterInvariantTest, HoldsUnderWorkerFanOutAndAcrossPasses) {
  const size_t kRows = 2048, kCols = 32;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    PipelineOptions options;
    options.readahead_chunks = 3;
    options.num_workers = workers;
    options.ram_budget_bytes = kRows * kCols * sizeof(double) / 4;
    ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
    la::RowChunker chunker(kRows, 64);
    for (size_t pass = 0; pass < 3; ++pass) {
      pipeline.Run(chunker,
                   ChunkSchedule::Shuffled(chunker.NumChunks(), 100 + pass),
                   [](size_t, size_t, size_t, size_t) {});
    }
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.prefetches, 3 * chunker.NumChunks());
    ExpectInvariant(stats);
  }
}

TEST_F(CounterInvariantTest, TinyPassIsAllWarmup) {
  // Fewer chunks than the readahead window: every position is dispatched
  // with no compute lead time, so nothing is classified — but nothing is
  // lost either.
  const size_t kRows = 64, kCols = 8;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  PipelineOptions options;
  options.readahead_chunks = 8;
  ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
  la::RowChunker chunker(kRows, 32);  // 2 chunks < 8 readahead
  pipeline.Run(chunker, [](size_t, size_t, size_t) {});
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.prefetches, chunker.NumChunks());
  EXPECT_EQ(stats.prefetch_hits + stats.stalls, 0u);
  EXPECT_EQ(stats.prefetch_unclassified, chunker.NumChunks());
  ExpectInvariant(stats);
}

TEST_F(CounterInvariantTest, UnboundOrNoReadaheadCountsNothing) {
  ChunkPipeline unbound;
  la::RowChunker chunker(100, 10);
  unbound.Run(chunker, [](size_t, size_t, size_t) {});
  EXPECT_EQ(unbound.stats().prefetches, 0u);
  EXPECT_EQ(unbound.stats().prefetch_unclassified, 0u);

  const size_t kCols = 8;
  io::MemoryMappedFile mapped = MakeMapped(100, kCols);
  PipelineOptions options;
  options.readahead_chunks = 0;
  ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
  pipeline.Run(chunker, [](size_t, size_t, size_t) {});
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.prefetches, 0u);
  EXPECT_EQ(stats.prefetch_hits + stats.stalls + stats.prefetch_unclassified,
            0u);
}

TEST(ExecCounterArithmeticTest, UnclassifiedFlowsThroughConversions) {
  PipelineStats a;
  a.prefetches = 10;
  a.prefetch_hits = 6;
  a.stalls = 1;
  a.prefetch_unclassified = 3;
  PipelineStats b = a + a;
  EXPECT_EQ(b.prefetch_unclassified, 6u);
}

// ---------------------------------------------------------------------------
// Retire-stage race sampling (RaceStage::kRetire)
// ---------------------------------------------------------------------------

TEST_F(CounterInvariantTest, RetireComputeStallsConsistentAcrossWorkers) {
  // The SGD shape: a no-op map and real work in retire. Pages are touched
  // at retire, so the race must be judged there. The retire at position p
  // waits until the prefetches of positions <= p + 1 have landed. The I/O
  // thread stores the watermark before it counts a prefetch, so the next
  // position's retire race is a hit under any scheduling — at every worker
  // count the classified positions are all hits and the stall count is
  // zero. Under the old map-dispatch sampling, fan-out dispatched the
  // no-op maps in a burst and miscounted those hits as stalls (the deleted
  // "judge on the serial configuration" caveat).
  const size_t kRows = 2048, kCols = 32;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  const la::RowChunker chunker(kRows, 128);  // 16 chunks
  const size_t n = chunker.NumChunks();
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    PipelineOptions options;
    options.readahead_chunks = 2;
    options.num_workers = workers;
    ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
    pipeline.Run(
        chunker, ChunkSchedule::Sequential(n),
        [](size_t, size_t, size_t, size_t) {},
        [&pipeline, n](size_t position, size_t, size_t, size_t) {
          const uint64_t landed = std::min(position + 2, n);
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (pipeline.stats().prefetches < landed) {
            if (std::chrono::steady_clock::now() > deadline) {
              ADD_FAILURE() << "prefetch " << landed - 1 << " never landed";
              return;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
        },
        RaceStage::kRetire);
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.stalls, 0u) << "workers=" << workers;
    EXPECT_EQ(stats.stall_bytes, 0u) << "workers=" << workers;
    // The retire cursor is serial at any fan-out, so the warm-up window
    // is the readahead depth — not widened by the in-flight window — and
    // the classified count matches the serial configuration exactly.
    EXPECT_EQ(stats.prefetch_unclassified, 2u) << "workers=" << workers;
    EXPECT_EQ(stats.prefetch_hits, chunker.NumChunks() - 2)
        << "workers=" << workers;
    ExpectInvariant(stats);
  }
}

TEST_F(CounterInvariantTest, InvariantHoldsAtRetireRaceUnderShuffle) {
  const size_t kRows = 2048, kCols = 32;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  const la::RowChunker chunker(kRows, 64);
  for (const size_t workers : {size_t{0}, size_t{4}}) {
    PipelineOptions options;
    options.readahead_chunks = 3;
    options.num_workers = workers;
    options.ram_budget_bytes = kRows * kCols * sizeof(double) / 4;
    ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
    for (size_t pass = 0; pass < 2; ++pass) {
      pipeline.Run(chunker,
                   ChunkSchedule::Shuffled(chunker.NumChunks(), 7 + pass),
                   [](size_t, size_t, size_t, size_t) {},
                   [](size_t, size_t, size_t, size_t) {},
                   RaceStage::kRetire);
    }
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.prefetches, 2 * chunker.NumChunks());
    ExpectInvariant(stats);
  }
}

TEST_F(CounterInvariantTest, StallBytesCoverStalledChunksOnly) {
  // stall_bytes is the fit's disk-bandwidth numerator: it must cover
  // exactly the chunks counted in `stalls`. With no I/O thread delay on
  // a warm mapping stalls are rare; force the inverse — prefetches that
  // can never win — by making compute instantaneous and the racing
  // window cover every chunk via a cold (just-evicted) region on a
  // pipeline with no readahead lead... simplest deterministic check:
  // classified-at-map stalls account their chunk bytes.
  const size_t kRows = 1024, kCols = 16;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  const la::RowChunker chunker(kRows, 128);
  PipelineOptions options;
  options.readahead_chunks = 1;
  ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
  pipeline.Run(chunker, [](size_t, size_t, size_t) {});
  const PipelineStats stats = pipeline.stats();
  // Whatever the race outcomes were, bytes and counts must agree: every
  // stalled chunk is 128 rows of 16 doubles.
  EXPECT_EQ(stats.stall_bytes,
            stats.stalls * 128 * kCols * sizeof(double));
  ExpectInvariant(stats);
}

// ---------------------------------------------------------------------------
// Tracing must observe, never perturb
// ---------------------------------------------------------------------------

TEST_F(CounterInvariantTest, InvariantUnchangedWithTracingOnAcrossWorkers) {
  // The span sites sit inside the classification paths; turning the
  // recorder on must not change what gets counted, at any fan-out. The
  // run doubles as the real-pipeline trace-validity check: the recorded
  // trace must parse, nest per thread, and carry every pipeline stage —
  // the same contract tools/trace_summarize gates CI on.
  const size_t kRows = 2048, kCols = 32;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kCols);
  obs::TraceRecorder::Get().Start();
  for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
    PipelineOptions options;
    options.readahead_chunks = 3;
    options.num_workers = workers;
    // A quarter-budget forces eviction behind the scan: evict spans show
    // up and the hit/stall race actually runs.
    options.ram_budget_bytes = kRows * kCols * sizeof(double) / 4;
    ChunkPipeline pipeline({&mapped, 0, kCols * sizeof(double)}, options);
    la::RowChunker chunker(kRows, 64);
    for (size_t pass = 0; pass < 3; ++pass) {
      // A (no-op) retire stage so all four pipeline stages hit the trace.
      pipeline.Run(chunker,
                   ChunkSchedule::Shuffled(chunker.NumChunks(), 100 + pass),
                   [](size_t, size_t, size_t, size_t) {},
                   [](size_t, size_t, size_t, size_t) {});
    }
    const PipelineStats stats = pipeline.stats();
    EXPECT_EQ(stats.prefetches, 3 * chunker.NumChunks())
        << "workers=" << workers;
    ExpectInvariant(stats);
  }
  obs::TraceRecorder::Get().Stop();
  auto json = obs::TraceRecorder::Get().ToJson();
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  auto doc = util::JsonParse(json.value());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const util::Status valid = obs::ValidateTrace(doc.value());
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  auto summary = obs::AnalyzeTrace(doc.value());
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  std::set<std::string> stage_names;
  for (const obs::StageUtilization& stage : summary.value().stages) {
    stage_names.insert(stage.name);
  }
  for (const char* required :
       {"pass", "prefetch", "compute", "retire", "evict"}) {
    EXPECT_EQ(stage_names.count(required), 1u)
        << "stage '" << required << "' missing from the recorded trace";
  }
}

// ---------------------------------------------------------------------------
// Ragged (byte-mapped) chunks: the invariant is a property of positions,
// not bytes, so it must survive chunks of wildly different sizes —
// including zero-byte chunks (all-empty CSR rows), whose prefetch stage
// has no I/O to issue but must still advance the watermark and count.
// ---------------------------------------------------------------------------

/// Maps row r to the byte range [row_offsets[r], row_offsets[r+1]) of the
/// region — the test-local stand-in for core::CsrByteMap, exercising the
/// engine's span plumbing without the file format.
class RaggedByteMap final : public ChunkByteMap {
 public:
  explicit RaggedByteMap(std::vector<uint64_t> row_offsets)
      : row_offsets_(std::move(row_offsets)) {}

  void AppendSpans(size_t row_begin, size_t row_end,
                   std::vector<ByteSpan>* out) const override {
    const uint64_t begin = row_offsets_[row_begin];
    const uint64_t end = row_offsets_[row_end];
    if (end > begin) {
      out->push_back(ByteSpan{begin, end - begin});
    }
  }

  ByteSpan Extent() const override {
    return ByteSpan{row_offsets_.front(),
                    row_offsets_.back() - row_offsets_.front()};
  }

 private:
  std::vector<uint64_t> row_offsets_;
};

class RaggedChunkTest : public CounterInvariantTest {
 protected:
  /// Ragged per-row payloads over a real mapped file: a few giant rows, a
  /// run of empty ones, and a tail of small ones. Returns row_ptr-style
  /// nnz offsets (8 bytes per nnz into the mapped doubles).
  static std::vector<uint64_t> RaggedRowPtr() {
    const std::vector<uint64_t> nnz_per_row = {
        0, 0, 512, 3, 0, 1024, 1, 1, 0, 0, 0, 256, 7, 7, 7, 0, 640, 2, 0, 90};
    std::vector<uint64_t> row_ptr{0};
    for (const uint64_t nnz : nnz_per_row) {
      row_ptr.push_back(row_ptr.back() + nnz);
    }
    return row_ptr;
  }
};

TEST_F(RaggedChunkTest, InvariantHoldsOnRaggedChunksPerScheduleKind) {
  const std::vector<uint64_t> row_ptr = RaggedRowPtr();
  const size_t rows = row_ptr.size() - 1;
  io::MemoryMappedFile mapped = MakeMapped(row_ptr.back(), 1);
  std::vector<uint64_t> offsets(row_ptr.size());
  for (size_t i = 0; i < row_ptr.size(); ++i) {
    offsets[i] = row_ptr[i] * sizeof(double);
  }
  const RaggedByteMap byte_map(offsets);
  // A tight budget yields chunks from one giant row down to all-empty.
  const la::SparseChunker chunker(row_ptr.data(), rows,
                                  300 * sizeof(double), sizeof(double));
  ASSERT_GT(chunker.NumChunks(), 4u);
  for (const ScanOrder order : {ScanOrder::kSequential, ScanOrder::kShuffled,
                                ScanOrder::kStrided}) {
    for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string(ToString(order)) +
                   " workers=" + std::to_string(workers));
      PipelineOptions options;
      options.readahead_chunks = 2;
      options.num_workers = workers;
      MappedRegion region;
      region.mapping = &mapped;
      region.byte_map = &byte_map;
      ChunkPipeline pipeline(region, options);
      pipeline.Run(chunker, MakeKind(order, chunker.NumChunks()),
                   [](size_t, size_t, size_t, size_t) {});
      const PipelineStats stats = pipeline.stats();
      EXPECT_EQ(stats.prefetches, chunker.NumChunks());
      ExpectInvariant(stats);
    }
  }
}

TEST_F(RaggedChunkTest, ZeroByteChunksStillCountAsPrefetches) {
  // One fat row, then nothing but empty rows: the SparseChunker closes the
  // fat chunk and the trailing empties form a second, zero-byte chunk. Its
  // prefetch has no bytes to move but must still submit, advance the
  // watermark (or the pass deadlocks), and land in exactly one of the
  // three classification counters.
  std::vector<uint64_t> row_ptr{0, 4096};
  for (int i = 0; i < 7; ++i) {
    row_ptr.push_back(4096);
  }
  const size_t rows = row_ptr.size() - 1;
  io::MemoryMappedFile mapped = MakeMapped(4096, 1);
  std::vector<uint64_t> offsets(row_ptr.size());
  for (size_t i = 0; i < row_ptr.size(); ++i) {
    offsets[i] = row_ptr[i] * sizeof(double);
  }
  const RaggedByteMap byte_map(offsets);
  const la::SparseChunker chunker(row_ptr.data(), rows, 64, sizeof(double));
  ASSERT_EQ(chunker.NumChunks(), 2u);
  ASSERT_EQ(chunker.Chunk(1).size(), rows - 1);  // the all-empty chunk
  PipelineOptions options;
  options.readahead_chunks = 1;
  MappedRegion region;
  region.mapping = &mapped;
  region.byte_map = &byte_map;
  ChunkPipeline pipeline(region, options);
  size_t chunks_seen = 0;
  pipeline.Run(chunker, [&](size_t, size_t, size_t) { ++chunks_seen; });
  EXPECT_EQ(chunks_seen, 2u);
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.prefetches, 2u);
  ExpectInvariant(stats);
}

TEST_F(RaggedChunkTest, EvictionUnderRamBudgetKeepsInvariantOnRaggedChunks) {
  const std::vector<uint64_t> row_ptr = RaggedRowPtr();
  const size_t rows = row_ptr.size() - 1;
  io::MemoryMappedFile mapped = MakeMapped(row_ptr.back(), 1);
  std::vector<uint64_t> offsets(row_ptr.size());
  for (size_t i = 0; i < row_ptr.size(); ++i) {
    offsets[i] = row_ptr[i] * sizeof(double);
  }
  const RaggedByteMap byte_map(offsets);
  const la::SparseChunker chunker(row_ptr.data(), rows,
                                  200 * sizeof(double), sizeof(double));
  PipelineOptions options;
  options.readahead_chunks = 3;
  options.num_workers = 2;
  options.ram_budget_bytes = row_ptr.back() * sizeof(double) / 4;
  MappedRegion region;
  region.mapping = &mapped;
  region.byte_map = &byte_map;
  ChunkPipeline pipeline(region, options);
  for (size_t pass = 0; pass < 3; ++pass) {
    pipeline.Run(chunker,
                 ChunkSchedule::Shuffled(chunker.NumChunks(), 17 + pass),
                 [](size_t, size_t, size_t, size_t) {});
  }
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.prefetches, 3 * chunker.NumChunks());
  ExpectInvariant(stats);
}

// ---------------------------------------------------------------------------
// Strided schedules with a lane offset (the cluster's shard order)
// ---------------------------------------------------------------------------

TEST(StridedOffsetTest, OffsetRotatesLaneOrder) {
  // 7 chunks, stride 3: lanes are {0,3,6}, {1,4}, {2,5}. Offset 1 starts
  // at lane 1, then continues through lane 2 and wraps to lane 0.
  const ChunkSchedule schedule = ChunkSchedule::Strided(7, 3, 1);
  const std::vector<size_t> expected = {1, 4, 2, 5, 0, 3, 6};
  ASSERT_EQ(schedule.num_chunks(), 7u);
  for (size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(schedule.At(p), expected[p]) << "position " << p;
  }
}

TEST(StridedOffsetTest, OffsetIsAPermutationAndModuloStride) {
  const ChunkSchedule a = ChunkSchedule::Strided(10, 4, 2);
  const ChunkSchedule b = ChunkSchedule::Strided(10, 4, 6);  // 6 % 4 == 2
  std::set<size_t> seen;
  for (size_t p = 0; p < 10; ++p) {
    EXPECT_TRUE(seen.insert(a.At(p)).second);
    EXPECT_EQ(a.At(p), b.At(p)) << "position " << p;
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(StridedOffsetTest, ZeroOffsetMatchesLegacyOrder) {
  const ChunkSchedule legacy = ChunkSchedule::Strided(9, 4);
  const ChunkSchedule explicit_zero = ChunkSchedule::Strided(9, 4, 0);
  for (size_t p = 0; p < 9; ++p) {
    EXPECT_EQ(legacy.At(p), explicit_zero.At(p));
  }
  // Wide stride with offset 0 keeps the sequential fast path; a nonzero
  // offset is a genuine rotation and must not collapse.
  EXPECT_TRUE(ChunkSchedule::Strided(4, 100, 0).is_sequential());
  const ChunkSchedule rotated = ChunkSchedule::Strided(4, 100, 2);
  EXPECT_FALSE(rotated.is_sequential());
  EXPECT_EQ(rotated.At(0), 2u);
  EXPECT_EQ(rotated.At(1), 3u);
  EXPECT_EQ(rotated.At(2), 0u);
  EXPECT_EQ(rotated.At(3), 1u);
}

TEST(StridedOffsetTest, HugeStrideIsCheapAndRotates) {
  // The lane walk is bounded by the chunk count, not the stride — a
  // pathological stride must neither hang nor allocate per lane.
  const ChunkSchedule rotated =
      ChunkSchedule::Strided(4, size_t{1} << 40, 1);
  ASSERT_EQ(rotated.num_chunks(), 4u);
  EXPECT_EQ(rotated.At(0), 1u);
  EXPECT_EQ(rotated.At(1), 2u);
  EXPECT_EQ(rotated.At(2), 3u);
  EXPECT_EQ(rotated.At(3), 0u);
  // An offset landing beyond the populated lanes wraps through the empty
  // ones straight to lane 0 — the identity, kept on the fast path.
  EXPECT_TRUE(ChunkSchedule::Strided(4, size_t{1} << 40, 10).is_sequential());
}

TEST(StridedOffsetTest, MakeForwardsOffset) {
  const ChunkSchedule made =
      ChunkSchedule::Make(ScanOrder::kStrided, 7, /*seed=*/0, /*stride=*/3,
                          /*offset=*/1);
  const ChunkSchedule direct = ChunkSchedule::Strided(7, 3, 1);
  for (size_t p = 0; p < 7; ++p) {
    EXPECT_EQ(made.At(p), direct.At(p));
  }
}

}  // namespace
}  // namespace m3::exec
