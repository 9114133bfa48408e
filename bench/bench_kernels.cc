// google-benchmark micro-kernels: the la primitives on heap memory vs a
// warm memory mapping. Quantifies the per-kernel side of Table 1's
// "treated identically" claim at nanosecond resolution.

#ifndef M3_NO_GOOGLE_BENCHMARK

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "io/file.h"
#include "io/mmap_file.h"
#include "la/blas.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "ml/kmeans.h"
#include "util/random.h"

namespace m3 {
namespace {

constexpr size_t kCols = 784;  // one InfiMNIST-style image row

/// Shared fixture state: a heap matrix and an identical warm mapping.
struct Backings {
  la::Matrix heap;
  io::MemoryMappedFile mapped;
  std::string path;

  explicit Backings(size_t rows)
      : heap(rows, kCols),
        path("/tmp/m3_bench_kernels_" + std::to_string(rows) + ".bin") {
    util::Rng rng(42);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < kCols; ++c) {
        heap(r, c) = rng.Uniform(0, 255);
      }
    }
    auto created = io::MemoryMappedFile::CreateAndMap(
        path, rows * kCols * sizeof(double));
    mapped = std::move(created).ValueOrDie();
    std::memcpy(mapped.mutable_data(), heap.data(),
                rows * kCols * sizeof(double));
    mapped.TouchAllPages();  // warm
    // Unlink immediately: the mapping stays valid and /tmp stays clean
    // even though the benchmark registry never destroys the fixture.
    M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  }

  la::ConstMatrixView HeapView() const { return heap.View(); }
  la::ConstMatrixView MappedView() const {
    return la::ConstMatrixView(mapped.As<const double>(), heap.rows(), kCols);
  }
};

Backings& SharedBackings(size_t rows) {
  static auto* cache = new std::map<size_t, std::unique_ptr<Backings>>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, std::make_unique<Backings>(rows)).first;
  }
  return *it->second;
}

void BM_Dot(benchmark::State& state) {
  la::Vector a(static_cast<size_t>(state.range(0)), 1.5);
  la::Vector b(static_cast<size_t>(state.range(0)), 2.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::Dot(a, b));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_Dot)->Arg(784)->Arg(1 << 14);

void BM_Axpy(benchmark::State& state) {
  la::Vector x(static_cast<size_t>(state.range(0)), 1.5);
  la::Vector y(static_cast<size_t>(state.range(0)), 0.0);
  for (auto _ : state) {
    la::Axpy(0.5, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 24);
}
BENCHMARK(BM_Axpy)->Arg(784)->Arg(1 << 14);

template <bool kMapped>
void BM_GemvBacking(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Backings& backings = SharedBackings(rows);
  la::ConstMatrixView x =
      kMapped ? backings.MappedView() : backings.HeapView();
  la::Vector v(kCols, 0.5);
  la::Vector out(rows);
  for (auto _ : state) {
    la::Gemv(1.0, x, v, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * kCols * 8);
}
BENCHMARK_TEMPLATE(BM_GemvBacking, false)  // heap
    ->Arg(1024)
    ->Arg(8192)
    ->Name("BM_Gemv_heap");
BENCHMARK_TEMPLATE(BM_GemvBacking, true)  // mmap (warm)
    ->Arg(1024)
    ->Arg(8192)
    ->Name("BM_Gemv_mmap_warm");

template <bool kMapped>
void BM_RowScanBacking(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  Backings& backings = SharedBackings(rows);
  la::ConstMatrixView x =
      kMapped ? backings.MappedView() : backings.HeapView();
  for (auto _ : state) {
    double sum = 0;
    for (size_t r = 0; r < rows; ++r) {
      sum += la::Sum(x.Row(r));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(state.iterations() * rows * kCols * 8);
}
BENCHMARK_TEMPLATE(BM_RowScanBacking, false)
    ->Arg(8192)
    ->Name("BM_RowScan_heap");
BENCHMARK_TEMPLATE(BM_RowScanBacking, true)
    ->Arg(8192)
    ->Name("BM_RowScan_mmap_warm");

void BM_ParallelGemv(benchmark::State& state) {
  const size_t rows = 8192;
  Backings& backings = SharedBackings(rows);
  la::Vector v(kCols, 0.5);
  la::Vector out(rows);
  for (auto _ : state) {
    la::ParallelGemv(1.0, backings.HeapView(), v, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * kCols * 8);
}
BENCHMARK(BM_ParallelGemv);

void BM_GemvT(benchmark::State& state) {
  const size_t rows = 8192;
  Backings& backings = SharedBackings(rows);
  la::Vector v(rows, 0.5);
  la::Vector out(kCols);
  for (auto _ : state) {
    la::GemvT(1.0, backings.HeapView(), v, 0.0, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * rows * kCols * 8);
}
BENCHMARK(BM_GemvT);

void BM_SquaredDistance(benchmark::State& state) {
  la::Vector a(kCols, 1.0);
  la::Vector b(kCols, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::SquaredDistance(a, b));
  }
  state.SetBytesProcessed(state.iterations() * kCols * 16);
}
BENCHMARK(BM_SquaredDistance);

// One CSR row of the benchmark's sparse shape: 32 nonzeros over 65,536
// columns. Bytes count the column index, the value and the gathered
// weight of each nonzero.
void BM_SparseDot(benchmark::State& state) {
  constexpr size_t kSparseCols = 1 << 16;
  constexpr size_t kNnz = 32;
  util::Rng rng(7);
  std::set<uint32_t> picked;
  while (picked.size() < kNnz) {
    picked.insert(static_cast<uint32_t>(rng.UniformInt(kSparseCols)));
  }
  const std::vector<uint32_t> cols(picked.begin(), picked.end());
  std::vector<double> values(kNnz);
  for (double& v : values) {
    v = rng.Uniform(-1.0, 1.0);
  }
  la::Vector w(kSparseCols);
  for (size_t j = 0; j < kSparseCols; ++j) {
    w[j] = rng.Uniform(-1.0, 1.0);
  }
  const la::SparseRowView row{cols.data(), values.data(), kNnz};
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::SparseDot(row, w));
  }
  state.SetBytesProcessed(state.iterations() * kNnz *
                          (sizeof(uint32_t) + 2 * sizeof(double)));
}
BENCHMARK(BM_SparseDot);

// The k-means assignment step: one InfiMNIST-style row against k = 5
// centers, as in the paper's Fig. 1b.
void BM_NearestCenter(benchmark::State& state) {
  constexpr size_t kCenters = 5;
  util::Rng rng(11);
  la::Matrix centers(kCenters, kCols);
  la::Vector point(kCols);
  for (size_t c = 0; c < kCols; ++c) {
    point[c] = rng.Uniform(0, 255);
    for (size_t k = 0; k < kCenters; ++k) {
      centers(k, c) = rng.Uniform(0, 255);
    }
  }
  for (auto _ : state) {
    double dist2 = 0;
    benchmark::DoNotOptimize(
        ml::KMeans::NearestCenter(point, centers, &dist2));
    benchmark::DoNotOptimize(dist2);
  }
  state.SetBytesProcessed(state.iterations() * kCenters * kCols * 16);
}
BENCHMARK(BM_NearestCenter);

}  // namespace
}  // namespace m3

// Custom main instead of BENCHMARK_MAIN(): --trace=FILE is extracted
// before benchmark::Initialize sees argv, because google-benchmark
// rejects flags it does not recognize. The kernels themselves carry no
// span sites, so the trace holds the residency/RSS counter tracks the
// sampler emits while the kernels run.
int main(int argc, char** argv) {
  std::string trace;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      trace = argv[i] + 8;
      if (trace.empty()) {
        std::fprintf(stderr, "error: --trace needs a non-empty path\n");
        return 1;
      }
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        std::fprintf(stderr, "error: --trace needs a non-empty path\n");
        return 1;
      }
      trace = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  m3::bench::TraceSession trace_session(trace);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#else  // M3_NO_GOOGLE_BENCHMARK

#include <cstdio>

// The CMake fallback for hosts without google-benchmark: keep the target
// buildable so `make` stays green; the kernels simply do not run.
int main() {
  std::printf("bench_kernels: built without google-benchmark; skipping\n");
  return 0;
}

#endif  // M3_NO_GOOGLE_BENCHMARK
