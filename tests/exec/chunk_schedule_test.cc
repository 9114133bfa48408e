#include "exec/chunk_schedule.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "exec/chunk_map_reduce.h"
#include "exec/chunk_pipeline.h"
#include "io/file.h"
#include "la/chunker.h"

namespace m3::exec {
namespace {

// ---------------------------------------------------------------------------
// Schedule construction
// ---------------------------------------------------------------------------

TEST(ChunkScheduleTest, SequentialIsIdentity) {
  const ChunkSchedule schedule = ChunkSchedule::Sequential(5);
  EXPECT_TRUE(schedule.is_sequential());
  EXPECT_EQ(schedule.num_chunks(), 5u);
  for (size_t p = 0; p < 5; ++p) {
    EXPECT_EQ(schedule.At(p), p);
  }
}

TEST(ChunkScheduleTest, ShuffledIsAPermutationAndSeedDeterministic) {
  const ChunkSchedule a = ChunkSchedule::Shuffled(100, 7);
  const ChunkSchedule b = ChunkSchedule::Shuffled(100, 7);
  const ChunkSchedule c = ChunkSchedule::Shuffled(100, 8);
  EXPECT_FALSE(a.is_sequential());
  std::set<size_t> seen;
  bool identical_ab = true, identical_ac = true;
  for (size_t p = 0; p < 100; ++p) {
    EXPECT_TRUE(seen.insert(a.At(p)).second);  // each chunk exactly once
    EXPECT_LT(a.At(p), 100u);
    identical_ab &= a.At(p) == b.At(p);
    identical_ac &= a.At(p) == c.At(p);
  }
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_TRUE(identical_ab);   // same seed, same order
  EXPECT_FALSE(identical_ac);  // different seed, different order
}

TEST(ChunkScheduleTest, StridedCoversEveryChunkInLaneOrder) {
  const ChunkSchedule schedule = ChunkSchedule::Strided(7, 3);
  // Lanes: 0,3,6 then 1,4 then 2,5.
  const std::vector<size_t> expected = {0, 3, 6, 1, 4, 2, 5};
  ASSERT_EQ(schedule.num_chunks(), 7u);
  for (size_t p = 0; p < expected.size(); ++p) {
    EXPECT_EQ(schedule.At(p), expected[p]) << "position " << p;
  }
}

TEST(ChunkScheduleTest, DegenerateStridesAreSequential) {
  EXPECT_TRUE(ChunkSchedule::Strided(10, 0).is_sequential());
  EXPECT_TRUE(ChunkSchedule::Strided(10, 1).is_sequential());
  // Stride >= num_chunks is one chunk per lane — the identity order — and
  // collapses to sequential so the fast paths stay enabled.
  const ChunkSchedule wide = ChunkSchedule::Strided(4, 100);
  EXPECT_TRUE(wide.is_sequential());
  std::set<size_t> seen;
  for (size_t p = 0; p < 4; ++p) {
    seen.insert(wide.At(p));
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(ChunkScheduleTest, MakeDispatchesOnOrder) {
  EXPECT_TRUE(ChunkSchedule::Make(ScanOrder::kSequential, 8).is_sequential());
  const ChunkSchedule shuffled =
      ChunkSchedule::Make(ScanOrder::kShuffled, 8, /*seed=*/3);
  EXPECT_FALSE(shuffled.is_sequential());
  const ChunkSchedule strided =
      ChunkSchedule::Make(ScanOrder::kStrided, 8, /*seed=*/0, /*stride=*/2);
  EXPECT_EQ(strided.At(1), 2u);
}

// ---------------------------------------------------------------------------
// Pipeline passes along a schedule
// ---------------------------------------------------------------------------

TEST(ScheduledPipelineTest, VisitAndRetireFollowTheScheduleOrder) {
  for (size_t workers : {0u, 2u, 4u}) {
    PipelineOptions options;
    options.num_workers = workers;
    ChunkPipeline pipeline(options);
    la::RowChunker chunker(1000, 64);
    const ChunkSchedule schedule =
        ChunkSchedule::Shuffled(chunker.NumChunks(), 11);
    std::vector<size_t> retired_chunks, retired_positions;
    pipeline.Run(
        chunker, schedule,
        [&](size_t, size_t chunk, size_t begin, size_t end) {
          const la::RowChunker::Range range = chunker.Chunk(chunk);
          EXPECT_EQ(begin, range.begin);
          EXPECT_EQ(end, range.end);
        },
        [&](size_t pos, size_t chunk, size_t, size_t) {
          retired_positions.push_back(pos);
          retired_chunks.push_back(chunk);
        });
    ASSERT_EQ(retired_chunks.size(), chunker.NumChunks()) << workers;
    for (size_t p = 0; p < retired_chunks.size(); ++p) {
      EXPECT_EQ(retired_positions[p], p);              // ascending positions
      EXPECT_EQ(retired_chunks[p], schedule.At(p));    // schedule order
    }
  }
}

TEST(ScheduledPipelineTest, RunPassWithoutPipelineFollowsSchedule) {
  la::RowChunker chunker(10, 3);
  const ChunkSchedule schedule = ChunkSchedule::Strided(4, 2);  // 0,2,1,3
  std::vector<size_t> mapped;
  RunPass(
      nullptr, chunker, schedule,
      [&](size_t, size_t chunk, size_t, size_t) { mapped.push_back(chunk); });
  const std::vector<size_t> expected = {0, 2, 1, 3};
  EXPECT_EQ(mapped, expected);
}

/// An order-sensitive floating-point reduction over a shuffled schedule:
/// bitwise equality across worker counts proves the in-order (by visit
/// position) merge guarantee extends to permuted schedules.
double ShuffledIllConditionedSum(ChunkPipeline* pipeline,
                                 const ChunkSchedule& schedule) {
  la::RowChunker chunker(4096, 13);
  double total = 0;
  MapReduceChunks<double>(
      pipeline, chunker, schedule,
      [](size_t, size_t begin, size_t end) {
        double partial = 0;
        for (size_t r = begin; r < end; ++r) {
          partial += (r % 2 == 0 ? 1.0 : -1.0) *
                     std::pow(10.0, static_cast<double>(r % 17) - 8.0);
        }
        return partial;
      },
      [&](size_t, double&& partial) { total += partial; });
  return total;
}

TEST(ScheduledPipelineTest, MapReduceBitIdenticalAcrossWorkerCounts) {
  la::RowChunker chunker(4096, 13);
  const ChunkSchedule schedule =
      ChunkSchedule::Shuffled(chunker.NumChunks(), 99);
  const double serial = ShuffledIllConditionedSum(nullptr, schedule);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    PipelineOptions options;
    options.num_workers = workers;
    ChunkPipeline pipeline(options);
    const double parallel = ShuffledIllConditionedSum(&pipeline, schedule);
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "workers=" << workers;
  }
}

// ---------------------------------------------------------------------------
// Bound pipelines: schedule-aware prefetch and eviction
// ---------------------------------------------------------------------------

class ScheduledBoundPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_sched_test_" +
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

TEST_F(ScheduledBoundPipelineTest, PrefetchWalksThePermutation) {
  const size_t kRows = 1024, kRowDoubles = 64;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kRowDoubles);
  MappedRegion region{&mapped, 0, kRowDoubles * sizeof(double)};
  PipelineOptions options;
  options.readahead_chunks = 3;
  ChunkPipeline pipeline(region, options);

  la::RowChunker chunker(kRows, 128);
  const ChunkSchedule schedule =
      ChunkSchedule::Shuffled(chunker.NumChunks(), 5);
  uint64_t checksum = 0;
  pipeline.Run(chunker, schedule,
               [&](size_t, size_t, size_t begin, size_t end) {
                 const double* data = mapped.As<const double>();
                 for (size_t r = begin; r < end; ++r) {
                   checksum += static_cast<uint64_t>(data[r * kRowDoubles]);
                 }
               });
  EXPECT_GT(checksum, 0u);
  const PipelineStats stats = pipeline.stats();
  // Every chunk gets one WILLNEED covering the whole region, regardless of
  // the visit order.
  EXPECT_EQ(stats.prefetches, chunker.NumChunks());
  EXPECT_EQ(stats.prefetch_bytes, kRows * kRowDoubles * sizeof(double));
  // Positions past the warm-up window are classified exactly once.
  EXPECT_EQ(stats.prefetch_hits + stats.stalls, chunker.NumChunks() - 3);
}

TEST_F(ScheduledBoundPipelineTest, EvictionWindowFollowsVisitOrder) {
  const size_t kRows = 100, kRowDoubles = 16;
  const uint64_t kRowBytes = kRowDoubles * sizeof(double);
  io::MemoryMappedFile mapped = MakeMapped(kRows, kRowDoubles);
  MappedRegion region{&mapped, 0, kRowBytes};
  PipelineOptions options;
  options.readahead_chunks = 0;  // isolate the evict stage
  options.ram_budget_bytes = 20 * kRowBytes;  // pins chunks 0 and 1
  ChunkPipeline pipeline(region, options);

  la::RowChunker chunker(kRows, 10);
  const ChunkSchedule schedule =
      ChunkSchedule::Shuffled(chunker.NumChunks(), 123);
  std::vector<uint64_t> evicted_after;
  pipeline.Run(
      chunker, schedule, [&](size_t, size_t, size_t, size_t) {},
      [&](size_t, size_t, size_t, size_t) {
        evicted_after.push_back(pipeline.stats().bytes_evicted);
      });
  // Chunks leave in visit order, each right after its own retire, but the
  // pinned set is chunk indices 0 and 1 wherever the permutation puts them:
  // the value seen at position p counts the unpinned chunks visited before.
  ASSERT_EQ(evicted_after.size(), 10u);
  uint64_t unpinned_before = 0;
  for (size_t p = 0; p < 10; ++p) {
    EXPECT_EQ(evicted_after[p], unpinned_before * 10 * kRowBytes)
        << "position " << p;
    if (schedule.At(p) >= 2) {
      ++unpinned_before;
    }
  }
  EXPECT_EQ(pipeline.stats().bytes_evicted, (kRows - 20) * kRowBytes);
}

// ---------------------------------------------------------------------------
// Exception safety (RunParallel drains in-flight work)
// ---------------------------------------------------------------------------

TEST(PipelineExceptionTest, ThrowingMapPropagatesAndPipelineSurvives) {
  PipelineOptions options;
  options.num_workers = 4;
  ChunkPipeline pipeline(options);
  la::RowChunker chunker(1000, 10);
  EXPECT_THROW(
      pipeline.Run(chunker,
                   [&](size_t c, size_t, size_t) {
                     if (c == 20) {
                       throw std::runtime_error("chunk functor failed");
                     }
                   }),
      std::runtime_error);
  // Every worker has drained: a fresh pass on the same pipeline runs to
  // completion and visits every chunk exactly once.
  std::set<size_t> seen;
  pipeline.Run(
      chunker, [](size_t, size_t, size_t) {},
      [&](size_t c, size_t, size_t) { seen.insert(c); });
  EXPECT_EQ(seen.size(), chunker.NumChunks());
}

TEST(PipelineExceptionTest, ThrowingRetireDrainsInFlightMaps) {
  PipelineOptions options;
  options.num_workers = 4;
  ChunkPipeline pipeline(options);
  la::RowChunker chunker(1000, 10);
  std::atomic<size_t> maps_running{0};
  EXPECT_THROW(
      pipeline.Run(
          chunker,
          [&](size_t, size_t, size_t) {
            ++maps_running;
            --maps_running;
          },
          [&](size_t c, size_t, size_t) {
            if (c == 5) {
              throw std::runtime_error("retire failed");
            }
          }),
      std::runtime_error);
  // If the drain skipped an in-flight map, it would still be mutating the
  // (destroyed) captures now; the counter being balanced is the smoke
  // signal that nothing outlived the pass.
  EXPECT_EQ(maps_running.load(), 0u);
}

}  // namespace
}  // namespace m3::exec
