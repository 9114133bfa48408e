#include "exec/chunk_pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <set>
#include <vector>

#include "exec/chunk_map_reduce.h"
#include "io/file.h"
#include "la/chunker.h"
#include "la/matrix.h"
#include "ml/kmeans.h"
#include "ml/logistic_regression.h"
#include "util/random.h"

namespace m3::exec {
namespace {

// ---------------------------------------------------------------------------
// Ordering and coverage
// ---------------------------------------------------------------------------

TEST(ChunkPipelineTest, SerialRunVisitsEveryChunkInOrder) {
  ChunkPipeline pipeline;  // unbound, serial: pure orchestration
  la::RowChunker chunker(100, 32);
  std::vector<size_t> mapped, retired;
  pipeline.Run(
      chunker,
      [&](size_t c, size_t begin, size_t end) {
        mapped.push_back(c);
        EXPECT_EQ(begin, c * 32);
        EXPECT_EQ(end, std::min<size_t>(100, begin + 32));
      },
      [&](size_t c, size_t, size_t) { retired.push_back(c); });
  const std::vector<size_t> expected = {0, 1, 2, 3};
  EXPECT_EQ(mapped, expected);
  EXPECT_EQ(retired, expected);
}

TEST(ChunkPipelineTest, ParallelRunRetiresInOrder) {
  PipelineOptions options;
  options.num_workers = 4;
  ChunkPipeline pipeline(options);
  la::RowChunker chunker(1000, 7);
  std::atomic<size_t> map_calls{0};
  std::vector<size_t> retired;
  pipeline.Run(
      chunker, [&](size_t, size_t, size_t) { ++map_calls; },
      [&](size_t c, size_t, size_t) { retired.push_back(c); });
  EXPECT_EQ(map_calls.load(), chunker.NumChunks());
  ASSERT_EQ(retired.size(), chunker.NumChunks());
  for (size_t i = 0; i < retired.size(); ++i) {
    EXPECT_EQ(retired[i], i);  // strictly ascending despite parallel maps
  }
}

TEST(ChunkPipelineTest, ZeroChunksIsANoOp) {
  ChunkPipeline pipeline;
  la::RowChunker chunker(0, 16);
  size_t calls = 0;
  pipeline.Run(chunker, [&](size_t, size_t, size_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(pipeline.stats().passes, 1u);
  EXPECT_EQ(pipeline.stats().chunks, 0u);
}

TEST(ChunkPipelineTest, RunPassWithoutPipelineIsSerialInOrder) {
  la::RowChunker chunker(10, 3);
  std::vector<std::pair<char, size_t>> events;
  RunPass(
      nullptr, chunker,
      [&](size_t c, size_t, size_t) { events.emplace_back('m', c); },
      [&](size_t c, size_t, size_t) { events.emplace_back('r', c); });
  ASSERT_EQ(events.size(), 8u);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(events[2 * c], std::make_pair('m', c));
    EXPECT_EQ(events[2 * c + 1], std::make_pair('r', c));
  }
}

// ---------------------------------------------------------------------------
// Map-reduce determinism
// ---------------------------------------------------------------------------

/// A floating-point reduction whose result depends on merge order: summing
/// terms of wildly different magnitudes. Any reordering of the merges
/// changes the rounded bits, so bitwise equality across worker counts
/// proves the engine's in-order merge guarantee.
double IllConditionedSum(ChunkPipeline* pipeline) {
  la::RowChunker chunker(4096, 13);
  double total = 0;
  MapReduceChunks<double>(
      pipeline, chunker,
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

TEST(ChunkMapReduceTest, BitIdenticalAcrossWorkerCounts) {
  const double serial = IllConditionedSum(nullptr);
  for (size_t workers : {1u, 2u, 4u, 8u}) {
    PipelineOptions options;
    options.num_workers = workers;
    ChunkPipeline pipeline(options);
    const double parallel = IllConditionedSum(&pipeline);
    // Bitwise, not approximate: the merge sequence must be identical.
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "workers=" << workers << " serial=" << serial
        << " parallel=" << parallel;
  }
}

TEST(ChunkMapReduceTest, SlotsAreReleasedAndReused) {
  PipelineOptions options;
  options.num_workers = 2;
  ChunkPipeline pipeline(options);
  // Far more chunks than in-flight slots: exercises slot reuse.
  la::RowChunker chunker(10000, 10);
  ASSERT_GT(chunker.NumChunks(), pipeline.max_in_flight());
  std::set<size_t> seen;
  uint64_t row_total = 0;
  MapReduceChunks<uint64_t>(
      &pipeline, chunker,
      [](size_t, size_t begin, size_t end) {
        uint64_t sum = 0;
        for (size_t r = begin; r < end; ++r) {
          sum += r;
        }
        return sum;
      },
      [&](size_t chunk, uint64_t&& partial) {
        EXPECT_TRUE(seen.insert(chunk).second);  // each chunk reduced once
        row_total += partial;
      });
  EXPECT_EQ(seen.size(), chunker.NumChunks());
  EXPECT_EQ(row_total, uint64_t{10000} * 9999 / 2);
}

// ---------------------------------------------------------------------------
// Trainer determinism through the engine (acceptance criterion)
// ---------------------------------------------------------------------------

/// Deterministic synthetic binary-classification data.
void MakeClassificationData(size_t n, size_t d, la::Matrix* x, la::Vector* y) {
  util::Rng rng(7);
  *x = la::Matrix(n, d);
  *y = la::Vector(n);
  for (size_t r = 0; r < n; ++r) {
    double score = 0;
    for (size_t c = 0; c < d; ++c) {
      const double v = rng.Uniform() * 2.0 - 1.0;
      (*x)(r, c) = v;
      score += (c % 2 == 0 ? 1.0 : -0.5) * v;
    }
    (*y)[r] = score > 0 ? 1.0 : 0.0;
  }
}

TEST(ChunkMapReduceTest, LogisticRegressionBitIdenticalAt1And4Workers) {
  la::Matrix x;
  la::Vector y;
  MakeClassificationData(600, 12, &x, &y);

  auto train = [&](ChunkPipeline* pipeline) {
    ml::LogisticRegressionOptions options;
    options.chunk_rows = 64;  // several chunks per pass
    options.lbfgs.max_iterations = 5;
    options.pipeline = pipeline;
    return ml::LogisticRegression(options)
        .Train(x.View(), y.View())
        .ValueOrDie();
  };

  const ml::LogisticRegressionModel serial = train(nullptr);
  for (size_t workers : {1u, 4u}) {
    PipelineOptions options;
    options.num_workers = workers;
    ChunkPipeline pipeline(options);
    const ml::LogisticRegressionModel model = train(&pipeline);
    ASSERT_EQ(model.weights.size(), serial.weights.size());
    EXPECT_EQ(std::memcmp(model.weights.data(), serial.weights.data(),
                          serial.weights.size() * sizeof(double)),
              0)
        << "workers=" << workers;
    EXPECT_EQ(
        std::memcmp(&model.intercept, &serial.intercept, sizeof(double)), 0);
  }
}

TEST(ChunkMapReduceTest, KMeansBitIdenticalAt1And4Workers) {
  la::Matrix x;
  la::Vector y_unused;
  MakeClassificationData(500, 8, &x, &y_unused);

  auto cluster = [&](ChunkPipeline* pipeline) {
    ml::KMeansOptions options;
    options.k = 4;
    options.max_iterations = 6;
    options.chunk_rows = 64;
    options.seed = 123;
    options.pipeline = pipeline;
    return ml::KMeans(options).Cluster(x.View()).ValueOrDie();
  };

  const ml::KMeansResult serial = cluster(nullptr);
  for (size_t workers : {1u, 4u}) {
    PipelineOptions options;
    options.num_workers = workers;
    ChunkPipeline pipeline(options);
    const ml::KMeansResult result = cluster(&pipeline);
    ASSERT_EQ(result.centers.rows(), serial.centers.rows());
    EXPECT_EQ(std::memcmp(result.centers.data(), serial.centers.data(),
                          serial.centers.rows() * serial.centers.cols() *
                              sizeof(double)),
              0)
        << "workers=" << workers;
    EXPECT_EQ(std::memcmp(&result.inertia, &serial.inertia, sizeof(double)),
              0);
  }
}

// ---------------------------------------------------------------------------
// Bound pipelines: prefetch and RAM-budget eviction
// ---------------------------------------------------------------------------

class BoundPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_exec_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Maps a file of `rows` rows of `row_doubles` doubles each.
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

TEST_F(BoundPipelineTest, PrefetchStageIssuesReadahead) {
  const size_t kRows = 1024, kRowDoubles = 64;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kRowDoubles);
  MappedRegion region{&mapped, 0, kRowDoubles * sizeof(double)};
  PipelineOptions options;
  options.readahead_chunks = 3;
  ChunkPipeline pipeline(region, options);

  la::RowChunker chunker(kRows, 128);
  uint64_t checksum = 0;
  pipeline.Run(chunker, [&](size_t, size_t begin, size_t end) {
    const double* data = mapped.As<const double>();
    for (size_t r = begin; r < end; ++r) {
      checksum += static_cast<uint64_t>(data[r * kRowDoubles]);
    }
  });
  EXPECT_GT(checksum, 0u);
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.chunks, chunker.NumChunks());
  // Every chunk gets one WILLNEED.
  EXPECT_EQ(stats.prefetches, chunker.NumChunks());
  EXPECT_EQ(stats.prefetch_bytes, kRows * kRowDoubles * sizeof(double));
  // Chunks past the warm-up window (the first `readahead_chunks`, whose
  // prefetch has no compute lead time) are classified exactly once.
  EXPECT_EQ(stats.prefetch_hits + stats.stalls, chunker.NumChunks() - 3);
}

TEST_F(BoundPipelineTest, RamBudgetEvictionHonored) {
  const size_t kRows = 2048, kRowDoubles = 64;
  const uint64_t kRowBytes = kRowDoubles * sizeof(double);
  io::MemoryMappedFile mapped = MakeMapped(kRows, kRowDoubles);
  MappedRegion region{&mapped, 0, kRowBytes};
  PipelineOptions options;
  options.readahead_chunks = 1;
  // Budget of 256 rows against a 2048-row scan: most of the region must
  // be evicted behind the cursor.
  options.ram_budget_bytes = 256 * kRowBytes;
  options.synchronous_eviction = true;
  ChunkPipeline pipeline(region, options);

  la::RowChunker chunker(kRows, 128);
  pipeline.Run(chunker, [&](size_t, size_t begin, size_t end) {
    const volatile double* data = mapped.As<const double>();
    for (size_t r = begin; r < end; ++r) {
      (void)data[r * kRowDoubles];
    }
  });
  const PipelineStats stats = pipeline.stats();
  EXPECT_GT(stats.evictions, 0u);
  // Everything more than 256 rows behind the final cursor is dropped.
  EXPECT_EQ(stats.bytes_evicted, (kRows - 256) * kRowBytes);
}

TEST_F(BoundPipelineTest, EvictionTrailsTheBudgetWindowExactly) {
  const size_t kRows = 100, kRowDoubles = 16;
  const uint64_t kRowBytes = kRowDoubles * sizeof(double);
  io::MemoryMappedFile mapped = MakeMapped(kRows, kRowDoubles);
  MappedRegion region{&mapped, 0, kRowBytes};
  PipelineOptions options;
  options.readahead_chunks = 0;  // isolate the evict stage
  options.ram_budget_bytes = 20 * kRowBytes;
  options.synchronous_eviction = true;
  ChunkPipeline pipeline(region, options);

  std::vector<uint64_t> evicted_after;
  la::RowChunker chunker(kRows, 10);
  pipeline.Run(
      chunker, [&](size_t, size_t, size_t) {},
      [&](size_t, size_t, size_t) {
        evicted_after.push_back(pipeline.stats().bytes_evicted);
      });
  // The evict stage runs after each retire, so the value observed at
  // retire of chunk i covers chunks 0..i-1: nothing until the 20-row
  // budget is exceeded, then exactly one 10-row chunk per step.
  ASSERT_EQ(evicted_after.size(), 10u);
  EXPECT_EQ(evicted_after[0], 0u);
  EXPECT_EQ(evicted_after[1], 0u);
  EXPECT_EQ(evicted_after[2], 0u);
  for (size_t i = 3; i < 10; ++i) {
    EXPECT_EQ(evicted_after[i], (i - 2) * 10 * kRowBytes) << "chunk " << i;
  }
  // After the pass: everything more than 20 rows behind the end is gone.
  EXPECT_EQ(pipeline.stats().bytes_evicted, (kRows - 20) * kRowBytes);
}

TEST_F(BoundPipelineTest, PassesAccumulateInPipelineStats) {
  const size_t kRows = 512, kRowDoubles = 32;
  io::MemoryMappedFile mapped = MakeMapped(kRows, kRowDoubles);
  MappedRegion region{&mapped, 0, kRowDoubles * sizeof(double)};
  ChunkPipeline pipeline(region, PipelineOptions());
  la::RowChunker chunker(kRows, 64);
  pipeline.Run(chunker, [](size_t, size_t, size_t) {});
  pipeline.Run(chunker, [](size_t, size_t, size_t) {});
  const PipelineStats stats = pipeline.stats();
  EXPECT_EQ(stats.passes, 2u);
  EXPECT_EQ(stats.chunks, 2 * chunker.NumChunks());
  EXPECT_EQ(stats.prefetches, 2 * chunker.NumChunks());
}

}  // namespace
}  // namespace m3::exec
