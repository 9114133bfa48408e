// Conformance suite for the pluggable prefetch backends: every backend
// must (a) keep the engine's counter invariants, (b) degrade gracefully
// when its mechanism is unavailable, and (c) leave scan results bitwise
// identical — backends move bytes, never values.

#include "io/prefetch_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "exec/chunk_map_reduce.h"
#include "exec/chunk_pipeline.h"
#include "io/file.h"
#include "io/platform.h"
#include "la/chunker.h"
#include "util/sys_info.h"

namespace m3::io {
namespace {

/// Every backend kind.
std::vector<PrefetchBackendKind> AllBackendKinds() {
  return {PrefetchBackendKind::kMadvise, PrefetchBackendKind::kPread};
}

class PrefetchBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_prefetch_backend_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  // Creates a file with `count` doubles 0..count-1 and maps it read-only.
  MemoryMappedFile MakeMapped(const std::string& name, size_t count) {
    std::vector<double> values(count);
    std::iota(values.begin(), values.end(), 0.0);
    const std::string path = Path(name);
    std::string bytes(reinterpret_cast<const char*>(values.data()),
                      count * sizeof(double));
    EXPECT_TRUE(WriteStringToFile(path, bytes).ok());
    auto mapped = MemoryMappedFile::Map(path);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    return std::move(mapped.value());
  }

  std::string dir_;
};

TEST(PrefetchBackendKindTest, NamesRoundTrip) {
  for (const PrefetchBackendKind kind :
       {PrefetchBackendKind::kMadvise, PrefetchBackendKind::kPread}) {
    auto parsed = ParsePrefetchBackendKind(PrefetchBackendKindToString(kind));
    ASSERT_TRUE(parsed.ok()) << PrefetchBackendKindToString(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
  // Any other name is rejected rather than mapped to a default, so a
  // config naming a backend this build lacks fails loudly.
  EXPECT_FALSE(ParsePrefetchBackendKind("uring").ok());
  EXPECT_FALSE(ParsePrefetchBackendKind("io_uring").ok());
  EXPECT_FALSE(ParsePrefetchBackendKind("auto").ok());
  EXPECT_FALSE(ParsePrefetchBackendKind("sendfile").ok());
  EXPECT_FALSE(ParsePrefetchBackendKind("").ok());
}

TEST_F(PrefetchBackendTest, EveryBackendPrefetchesAndCounts) {
  MemoryMappedFile mapped = MakeMapped("data.bin", 64 << 10);  // 512 KiB
  for (const PrefetchBackendKind kind : AllBackendKinds()) {
    SCOPED_TRACE(std::string(PrefetchBackendKindToString(kind)));
    auto backend = MakePrefetchBackend(kind);
    ASSERT_NE(backend, nullptr);
    EXPECT_EQ(backend->kind(), kind);
    M3_IGNORE_STATUS(mapped.Evict(0, mapped.size()), "best-effort evict");
    auto outcome = backend->Prefetch(mapped, 0, mapped.size());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_GE(outcome.value().submits, 1u);
    EXPECT_LE(outcome.value().completions, outcome.value().submits);
    // Lifetime counters accumulated the call.
    EXPECT_EQ(backend->counters().submits, outcome.value().submits);
    // The mapped data is untouched by any backend.
    const double* values = mapped.As<const double>();
    EXPECT_EQ(values[0], 0.0);
    EXPECT_EQ(values[1000], 1000.0);
  }
}

TEST_F(PrefetchBackendTest, PreadWarmsThePageCache) {
  if (!GetPlatformCapabilities().mincore_tracks_eviction) {
    GTEST_SKIP() << "mincore does not track eviction here";
  }
  MemoryMappedFile mapped = MakeMapped("warm.bin", 256 << 10);  // 2 MiB
  auto backend = MakePrefetchBackend(PrefetchBackendKind::kPread);
  ASSERT_TRUE(mapped.Evict(0, mapped.size()).ok());
  auto outcome = backend->Prefetch(mapped, 0, mapped.size());
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  // The pread reads landed in the page cache, which a file mapping shares:
  // the mapping is resident again without a single fault through it.
  auto resident = mapped.CountResidentPages(0, mapped.size());
  ASSERT_TRUE(resident.ok());
  const uint64_t pages =
      (mapped.size() + util::PageSize() - 1) / util::PageSize();
  EXPECT_GT(resident.value(), pages / 2);
  EXPECT_EQ(outcome.value().fallbacks, 0u);
}

TEST_F(PrefetchBackendTest, PreadFallsBackToTouchOnAnonymousMappings) {
  auto mapped = MemoryMappedFile::MapAnonymous(1 << 20);
  ASSERT_TRUE(mapped.ok());
  auto backend = MakePrefetchBackend(PrefetchBackendKind::kPread);
  auto outcome = backend->Prefetch(mapped.value(), 0, 1 << 20);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_GE(outcome.value().fallbacks, 1u);
  EXPECT_EQ(outcome.value().completions, outcome.value().submits);
}

// The engine invariant must hold under every backend: after any complete
// pass, prefetches == prefetch_hits + stalls + prefetch_unclassified, and
// every pipeline-level prefetch produced at least one backend submit.
TEST_F(PrefetchBackendTest, PipelineCounterInvariantHoldsPerBackend) {
  MemoryMappedFile mapped = MakeMapped("invariant.bin", 512 << 10);
  const uint64_t row_bytes = 256 * sizeof(double);
  const size_t rows = mapped.size() / row_bytes;
  for (const PrefetchBackendKind kind : AllBackendKinds()) {
    for (const size_t workers : {size_t{0}, size_t{2}}) {
      SCOPED_TRACE(std::string(PrefetchBackendKindToString(kind)) +
                   " workers=" + std::to_string(workers));
      exec::PipelineOptions options;
      options.readahead_chunks = 2;
      options.num_workers = workers;
      options.prefetch_backend = kind;
      exec::ChunkPipeline pipeline({&mapped, 0, row_bytes}, options);
      pipeline.Run(la::RowChunker(rows, 64),
                   [](size_t, size_t, size_t) {});
      const exec::PipelineStats stats = pipeline.ConsumeStats();
      EXPECT_GT(stats.prefetches, 0u);
      EXPECT_EQ(stats.prefetches, stats.prefetch_hits + stats.stalls +
                                      stats.prefetch_unclassified);
      EXPECT_GE(stats.backend_submits, stats.prefetches);
      EXPECT_LE(stats.backend_completions, stats.backend_submits);
    }
  }
}

// Backends move bytes, never values: a deterministic map-reduce over the
// same data must produce bitwise-identical results under every backend at
// every worker count.
TEST_F(PrefetchBackendTest, MapReduceBitwiseIdenticalAcrossBackends) {
  MemoryMappedFile mapped = MakeMapped("bitwise.bin", 256 << 10);
  const uint64_t row_bytes = 128 * sizeof(double);
  const size_t rows = mapped.size() / row_bytes;
  const double* values = mapped.As<const double>();

  auto run = [&](PrefetchBackendKind kind, size_t workers) {
    exec::PipelineOptions options;
    options.readahead_chunks = 2;
    options.num_workers = workers;
    options.prefetch_backend = kind;
    exec::ChunkPipeline pipeline({&mapped, 0, row_bytes}, options);
    double sum = 0;
    exec::MapReduceChunks<double>(
        &pipeline, la::RowChunker(rows, 37),
        [&](size_t, size_t row_begin, size_t row_end) {
          double partial = 0;
          for (size_t r = row_begin; r < row_end; ++r) {
            for (size_t c = 0; c < 128; ++c) {
              partial += values[r * 128 + c] * 1.000000119;
            }
          }
          return partial;
        },
        [&](size_t, double&& partial) { sum += partial; });
    return sum;
  };

  const double reference = run(PrefetchBackendKind::kMadvise, 0);
  for (const PrefetchBackendKind kind : AllBackendKinds()) {
    for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string(PrefetchBackendKindToString(kind)) +
                   " workers=" + std::to_string(workers));
      const double sum = run(kind, workers);
      EXPECT_EQ(std::memcmp(&sum, &reference, sizeof(sum)), 0)
          << sum << " vs " << reference;
    }
  }
}

}  // namespace
}  // namespace m3::io
