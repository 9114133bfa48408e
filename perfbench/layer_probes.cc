#include "layer_probes.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "io/disk_probe.h"
#include "io/mmap_file.h"
#include "io/prefetch_backend.h"
#include "la/blas.h"
#include "util/stopwatch.h"
#include "util/sys_info.h"

namespace m3::perfbench {

using util::Result;

namespace {

constexpr double kGb = 1e9;

/// Keeps a computed value alive without the cost of a real side effect.
void Sink(double value) {
  static volatile double sink = 0;
  sink = sink + value;
}

}  // namespace

Result<double> DiskReadGbps(const std::string& dir) {
  M3_ASSIGN_OR_RETURN(io::DiskProbeResult probe, io::ProbeDisk(dir));
  return probe.sequential_read_bytes_per_sec / kGb;
}

Result<double> FaultMicrosPerPage(const std::string& path, bool cold) {
  // The datasets' own advice (M3Options::advice), so a cold touch gets the
  // kernel readahead a training scan gets.
  io::MemoryMappedFile::Options options;
  options.advice = io::Advice::kSequential;
  M3_ASSIGN_OR_RETURN(io::MemoryMappedFile mapping,
                      io::MemoryMappedFile::Map(path, options));
  if (cold) {
    M3_RETURN_IF_ERROR(mapping.Evict(0, mapping.size()));
  } else {
    // Warm the page cache through a throwaway mapping, so the timed one
    // below still takes one (minor) fault per page.
    io::MemoryMappedFile warmer;
    M3_ASSIGN_OR_RETURN(warmer, io::MemoryMappedFile::Map(path));
    Sink(static_cast<double>(warmer.TouchAllPages()));
  }
  const double pages = static_cast<double>(
      (mapping.size() + util::PageSize() - 1) / util::PageSize());
  util::Stopwatch watch;
  Sink(static_cast<double>(mapping.TouchAllPages()));
  return watch.ElapsedSeconds() * 1e6 / pages;
}

Result<double> PrefetchGbps(const std::string& path) {
  M3_ASSIGN_OR_RETURN(io::MemoryMappedFile mapping,
                      io::MemoryMappedFile::Map(path));
  M3_RETURN_IF_ERROR(mapping.Evict(0, mapping.size()));
  std::unique_ptr<io::PrefetchBackend> backend =
      io::MakePrefetchBackend(io::PrefetchBackendKind::kMadvise);
  util::Stopwatch watch;
  M3_RETURN_IF_ERROR(backend->Prefetch(mapping, 0, mapping.size()).status());
  // Poll residency until the file is in, or it has stopped growing for
  // 100 ms (a WILLNEED the kernel ignores never fills it), or 2 s pass.
  constexpr double kStallSeconds = 0.1;
  constexpr double kTimeoutSeconds = 2.0;
  double resident = 0;
  double progress_at = 0;
  while (true) {
    double now_resident = 0;
    M3_ASSIGN_OR_RETURN(now_resident, mapping.ResidentFraction());
    const double now = watch.ElapsedSeconds();
    if (now_resident > resident) {
      resident = now_resident;
      progress_at = now;
    }
    if (resident >= 1.0 || now - progress_at > kStallSeconds ||
        now > kTimeoutSeconds) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return resident * static_cast<double>(mapping.size()) /
         watch.ElapsedSeconds() / kGb;
}

double StreamGbps() {
  constexpr size_t kWords = (128u << 20) / sizeof(uint64_t);
  constexpr int kPasses = 4;
  std::vector<uint64_t> buffer(kWords);
  for (size_t i = 0; i < kWords; ++i) {
    buffer[i] = i * 0x9E3779B97F4A7C15ull;
  }
  uint64_t lanes[8] = {};
  util::Stopwatch watch;
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t i = 0; i < kWords; i += 8) {
      for (size_t lane = 0; lane < 8; ++lane) {
        lanes[lane] += buffer[i + lane];
      }
    }
  }
  const double seconds = watch.ElapsedSeconds();
  uint64_t total = 0;
  for (const uint64_t lane : lanes) {
    total += lane;
  }
  Sink(static_cast<double>(total));
  return static_cast<double>(kWords * sizeof(uint64_t) * kPasses) / seconds /
         kGb;
}

DenseKernelRates MeasureDenseKernels(la::ConstMatrixView x) {
  DenseKernelRates rates;
  const size_t rows = x.rows();
  const size_t cols = x.cols();
  if (rows == 0 || cols == 0) {
    return rates;
  }
  const double elements = static_cast<double>(rows) * static_cast<double>(cols);
  la::Vector w(cols);
  for (size_t j = 0; j < cols; ++j) {
    w[j] = 1e-3 * static_cast<double>(j % 17);
  }
  // Fault the rows in first so every kernel below reads resident memory.
  constexpr size_t kDoublesPerPage = 512;
  double warm = 0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; c += kDoublesPerPage) {
      warm += x(r, c);
    }
  }
  Sink(warm);

  util::Stopwatch watch;
  double dot = 0;
  for (size_t r = 0; r < rows; ++r) {
    dot += la::Dot(x.Row(r), w);
  }
  rates.dot_gbps = elements * 8.0 / watch.ElapsedSeconds() / kGb;
  Sink(dot);

  la::Vector y(cols);
  watch.Restart();
  for (size_t r = 0; r < rows; ++r) {
    la::Axpy(1e-9, x.Row(r), y);
  }
  rates.axpy_gbps = elements * 8.0 / watch.ElapsedSeconds() / kGb;
  Sink(y[cols / 2]);

  constexpr size_t kCenters = 5;
  la::Matrix centers(kCenters, cols);
  for (size_t c = 0; c < kCenters; ++c) {
    la::Copy(x.Row(c % rows), centers.Row(c));
  }
  watch.Restart();
  double distance = 0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < kCenters; ++c) {
      distance += la::SquaredDistance(x.Row(r), centers.Row(c));
    }
  }
  rates.sqdist_gbps = elements * 8.0 / watch.ElapsedSeconds() / kGb;
  Sink(distance);
  return rates;
}

double MeasureSparseKernelsGbps(const la::CsrView& x) {
  const size_t rows = x.rows();
  if (rows == 0 || x.nnz() == 0) {
    return 0;
  }
  la::Vector w(x.cols());
  for (size_t j = 0; j < x.cols(); ++j) {
    w[j] = 1e-3 * static_cast<double>(j % 17);
  }
  la::Vector y(x.cols());
  double warm = 0;
  for (size_t r = 0; r < rows; ++r) {
    const la::SparseRowView row = x.Row(r);
    warm += row.nnz > 0 ? row.values[0] + row.cols[0] : 0.0;
  }
  Sink(warm);
  util::Stopwatch watch;
  double dot = 0;
  for (size_t r = 0; r < rows; ++r) {
    const la::SparseRowView row = x.Row(r);
    dot += la::SparseDot(row, w);
    la::SparseAxpy(1e-9, row, y);
  }
  const double seconds = watch.ElapsedSeconds();
  Sink(dot + y[x.cols() / 2]);
  return static_cast<double>(x.nnz()) * 12.0 / seconds / kGb;
}

}  // namespace m3::perfbench
