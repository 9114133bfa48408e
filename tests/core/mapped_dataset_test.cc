#include "core/mapped_dataset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <vector>

#include "core/m3.h"
#include "core/sparse_mapped_dataset.h"
#include "data/sparse_dataset.h"
#include "data/synthetic.h"

namespace m3 {
namespace {

class MappedDatasetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_mds_test_" + std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Writes a small dataset and returns its path.
  std::string MakeDataset(const std::string& name, size_t rows, size_t cols) {
    data::SeparableResult sep =
        data::LinearlySeparable(rows, cols, 0.0, 42);
    const std::string path = dir_ + "/" + name;
    EXPECT_TRUE(
        data::WriteDataset(path, sep.data.features, sep.data.labels, 2).ok());
    return path;
  }

  std::string dir_;
};

TEST_F(MappedDatasetTest, OpenExposesShapeAndViews) {
  const std::string path = MakeDataset("basic.m3", 100, 7);
  auto dataset = MappedDataset::Open(path);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  EXPECT_EQ(dataset.value().rows(), 100u);
  EXPECT_EQ(dataset.value().cols(), 7u);
  EXPECT_EQ(dataset.value().num_classes(), 2u);
  EXPECT_EQ(dataset.value().features().rows(), 100u);
  EXPECT_EQ(dataset.value().features().cols(), 7u);
  EXPECT_EQ(dataset.value().labels().size(), 100u);
}

TEST_F(MappedDatasetTest, ViewsMatchOriginalData) {
  data::SeparableResult sep = data::LinearlySeparable(50, 3, 0.0, 9);
  const std::string path = dir_ + "/match.m3";
  ASSERT_TRUE(
      data::WriteDataset(path, sep.data.features, sep.data.labels, 2).ok());
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  for (size_t r = 0; r < 50; ++r) {
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(dataset.features()(r, c), sep.data.features(r, c));
    }
    ASSERT_EQ(dataset.labels()[r], sep.data.labels[r]);
  }
  EXPECT_EQ(dataset.CopyLabels(), sep.data.labels);
}

TEST_F(MappedDatasetTest, OpenMissingFileFails) {
  EXPECT_FALSE(MappedDataset::Open(dir_ + "/missing.m3").ok());
}

TEST_F(MappedDatasetTest, NoBudgetMeansNoHooksAndNoEmulator) {
  const std::string path = MakeDataset("nobudget.m3", 10, 2);
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  ml::ScanHooks hooks = dataset.MakeScanHooks();
  EXPECT_FALSE(static_cast<bool>(hooks.after_chunk));
  EXPECT_FALSE(static_cast<bool>(hooks.before_pass));
  EXPECT_EQ(dataset.pipeline().options().ram_budget_bytes, 0u);
  dataset.ForEachChunk([](size_t, size_t, size_t) {});
  const exec::PipelineStats stats = dataset.pipeline().stats();
  EXPECT_EQ(stats.passes, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bytes_evicted, 0u);
}

TEST_F(MappedDatasetTest, BudgetCreatesWorkingEmulator) {
  const std::string path = MakeDataset("budget.m3", 1000, 8);
  M3Options options;
  options.ram_budget_bytes = 1000 * 8 * sizeof(double) / 4;  // quarter of data
  options.chunk_rows = 100;
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();
  // The budget lives in the pipeline; the hooks stay empty.
  EXPECT_EQ(dataset.pipeline().options().ram_budget_bytes,
            options.ram_budget_bytes);
  EXPECT_FALSE(static_cast<bool>(dataset.MakeScanHooks().after_chunk));
  dataset.ForEachChunk([](size_t, size_t, size_t) {});
  const exec::PipelineStats stats = dataset.pipeline().stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.bytes_evicted, 0u);
  EXPECT_EQ(stats.passes, 1u);
}

TEST_F(MappedDatasetTest, EmulatorEvictsExactlyBehindTheWindow) {
  const std::string path = MakeDataset("window.m3", 100, 4);
  const uint64_t row_bytes = 4 * sizeof(double);
  M3Options options;
  options.ram_budget_bytes = 20 * row_bytes;  // pins chunks 0 and 1
  options.chunk_rows = 10;
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();
  // Chunk i's map runs after chunks 0..i-1 retired, and each of those past
  // the pinned pair was evicted at its retire. Every pass repeats this: the
  // pinned chunks stay, so pass 2 evicts exactly what pass 1 did.
  for (uint64_t pass = 0; pass < 2; ++pass) {
    dataset.ForEachChunk([&](size_t chunk, size_t, size_t) {
      const uint64_t evicted_this_pass = chunk > 2 ? chunk - 2 : 0;
      EXPECT_EQ(dataset.pipeline().stats().bytes_evicted,
                (pass * 80 + evicted_this_pass * 10) * row_bytes)
          << "pass " << pass << " chunk " << chunk;
    });
    EXPECT_EQ(dataset.pipeline().stats().bytes_evicted,
              (pass + 1) * 80 * row_bytes);
  }
}

TEST_F(MappedDatasetTest, SequentialBudgetEvictsInThePipelineWhileTraining) {
  const std::string path = MakeDataset("train_budget.m3", 2000, 8);
  const uint64_t row_bytes = 8 * sizeof(double);
  M3Options options;
  options.chunk_rows = 200;                    // 10 chunks
  options.ram_budget_bytes = 450 * row_bytes;  // pins chunks 0 and 1
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();
  ml::LogisticRegressionOptions train_options;
  train_options.lbfgs = PaperLbfgsOptions();
  train_options.lbfgs.max_iterations = 3;
  ASSERT_TRUE(TrainLogisticRegression(dataset, train_options).ok());
  // Every training pass runs on the dataset's pipeline, and each one
  // evicts all but the pinned chunks.
  const exec::PipelineStats stats = dataset.pipeline().stats();
  ASSERT_GT(stats.passes, 0u);
  EXPECT_GT(stats.bytes_evicted, 0u);
  EXPECT_EQ(stats.bytes_evicted, stats.passes * (2000 - 400) * row_bytes);
}

TEST_F(MappedDatasetTest, SparseBudgetPinsTheSameChunksEveryPass) {
  const std::string path = dir_ + "/budget.m3s";
  data::SparseSyntheticOptions generate;
  generate.rows = 4000;
  generate.cols = 200;
  generate.nnz_per_row = 20;
  ASSERT_TRUE(data::GenerateSparseDataset(path, generate).ok());
  M3Options options;
  options.chunk_nnz_bytes = 64 << 10;

  // Each chunk's bytes are the byte map's spans for its rows (row_ptr,
  // col_idx and values slices).
  std::vector<uint64_t> chunk_bytes;
  {
    auto probe = MappedSparseDataset::Open(path, options).ValueOrDie();
    const la::SparseChunker chunker = probe.MakeChunker();
    for (size_t c = 0; c < chunker.NumChunks(); ++c) {
      const la::Chunker::Range range = chunker.Chunk(c);
      std::vector<exec::ByteSpan> spans;
      probe.byte_map().AppendSpans(range.begin, range.end, &spans);
      uint64_t bytes = 0;
      for (const exec::ByteSpan& span : spans) {
        bytes += span.length;
      }
      chunk_bytes.push_back(bytes);
    }
  }
  ASSERT_GT(chunk_bytes.size(), 6u);
  const uint64_t pinned = chunk_bytes[0] + chunk_bytes[1] + chunk_bytes[2];
  uint64_t total = 0;
  for (uint64_t bytes : chunk_bytes) {
    total += bytes;
  }
  options.ram_budget_bytes = pinned + chunk_bytes[3] / 2;  // pins 3 chunks

  auto dataset = MappedSparseDataset::Open(path, options).ValueOrDie();
  const la::SparseChunker chunker = dataset.MakeChunker();
  for (uint64_t pass = 1; pass <= 2; ++pass) {
    dataset.pipeline().Run(chunker, [](size_t, size_t, size_t) {});
    EXPECT_EQ(dataset.pipeline().stats().bytes_evicted,
              pass * (total - pinned))
        << "pass " << pass;
  }
}

TEST_F(MappedDatasetTest, AdviseAndEvictAllSucceed) {
  const std::string path = MakeDataset("adv.m3", 64, 4);
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  EXPECT_TRUE(dataset.Advise(io::Advice::kRandom).ok());
  EXPECT_TRUE(dataset.Advise(io::Advice::kSequential).ok());
  EXPECT_TRUE(dataset.EvictAll().ok());
  // Views still readable after eviction (pages fault back in).
  EXPECT_EQ(dataset.features()(0, 0), dataset.features()(0, 0));
}

TEST_F(MappedDatasetTest, MoveKeepsViewsAndEmulatorValid) {
  const std::string path = MakeDataset("move.m3", 200, 4);
  M3Options options;
  options.ram_budget_bytes = 1024;
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();
  const double first = dataset.features()(0, 0);
  dataset.pipeline();  // bound to the mapping before the move
  MappedDataset moved = std::move(dataset);
  EXPECT_EQ(moved.features()(0, 0), first);
  // The pipeline's region points at the mapping owned via unique_ptr, so
  // it still scans and evicts after the move.
  moved.ForEachChunk([](size_t, size_t, size_t) {});
  EXPECT_GT(moved.pipeline().stats().bytes_evicted, 0u);
}

TEST_F(MappedDatasetTest, ShuffledScanOrderVisitsEveryChunkOnce) {
  const std::string path = MakeDataset("shuf.m3", 1024, 8);
  M3Options options;
  options.chunk_rows = 64;  // 16 chunks
  options.scan_order = exec::ScanOrder::kShuffled;
  options.scan_seed = 77;
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();

  auto collect = [&] {
    std::vector<size_t> chunks;
    size_t rows_seen = 0;
    dataset.ForEachChunk([&](size_t chunk, size_t begin, size_t end) {
      chunks.push_back(chunk);
      rows_seen += end - begin;
    });
    EXPECT_EQ(rows_seen, dataset.rows());
    return chunks;
  };

  const std::vector<size_t> first = collect();
  const std::vector<size_t> second = collect();
  ASSERT_EQ(first.size(), 16u);
  std::set<size_t> unique(first.begin(), first.end());
  EXPECT_EQ(unique.size(), first.size());  // permutation, no repeats
  EXPECT_NE(first, second);  // epoch-shuffled: pass p reseeds with seed + p
  std::vector<size_t> sorted = first;
  std::sort(sorted.begin(), sorted.end());
  bool is_identity = first == sorted;
  EXPECT_FALSE(is_identity);  // shuffled, not sequential

  // The schedule for the *next* pass is exposed and deterministic.
  const exec::ChunkSchedule schedule = dataset.MakeScanSchedule(16);
  const exec::ChunkSchedule again = dataset.MakeScanSchedule(16);
  for (size_t p = 0; p < 16; ++p) {
    EXPECT_EQ(schedule.At(p), again.At(p));
  }
}

TEST_F(MappedDatasetTest, StridedScanHonorsStrideAndOffset) {
  const std::string path = MakeDataset("strided.m3", 1024, 8);
  M3Options options;
  options.chunk_rows = 64;  // 16 chunks
  options.scan_order = exec::ScanOrder::kStrided;
  options.scan_stride = 4;
  options.scan_stride_offset = 2;  // shard 2 of 4 scans its lane first
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();

  std::vector<size_t> chunks;
  dataset.ForEachChunk(
      [&](size_t chunk, size_t, size_t) { chunks.push_back(chunk); });
  ASSERT_EQ(chunks.size(), 16u);
  const exec::ChunkSchedule expected = exec::ChunkSchedule::Strided(16, 4, 2);
  for (size_t p = 0; p < 16; ++p) {
    EXPECT_EQ(chunks[p], expected.At(p)) << "position " << p;
  }
  EXPECT_EQ(chunks[0], 2u);  // the offset lane leads
}

TEST_F(MappedDatasetTest, ShuffledScanWithBudgetEvictsEngineSide) {
  const std::string path = MakeDataset("shufbudget.m3", 1024, 8);
  const uint64_t row_bytes = 8 * sizeof(double);
  M3Options options;
  options.chunk_rows = 64;
  options.scan_order = exec::ScanOrder::kShuffled;
  options.ram_budget_bytes = 256 * row_bytes;  // quarter of the rows
  auto dataset = MappedDataset::Open(path, options).ValueOrDie();
  double checksum = 0;
  dataset.ForEachChunk([&](size_t, size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      checksum += dataset.features()(r, 0);
    }
  });
  (void)checksum;
  const exec::PipelineStats stats = dataset.pipeline().stats();
  EXPECT_GT(stats.evictions, 0u);
  // Everything but the pinned chunks 0-3 was evicted.
  EXPECT_EQ(stats.bytes_evicted, (1024 - 256) * row_bytes);
}

TEST_F(MappedDatasetTest, PopulateOptionWorks) {
  const std::string path = MakeDataset("pop.m3", 64, 4);
  M3Options options;
  options.populate = true;
  auto dataset = MappedDataset::Open(path, options);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset.value().features()(0, 0),
            dataset.value().features()(0, 0));
}

}  // namespace
}  // namespace m3
