#ifndef M3_IO_IO_STATS_H_
#define M3_IO_IO_STATS_H_

#include <cstdint>
#include <string>

#include "util/result.h"

namespace m3::io {

/// \brief Process-wide I/O counters from /proc/self/io.
///
/// `read_bytes`/`write_bytes` count actual storage traffic (what the paper
/// observes saturating the SSD); `rchar`/`wchar` include page-cache hits.
struct IoCounters {
  uint64_t rchar = 0;
  uint64_t wchar = 0;
  uint64_t syscr = 0;
  uint64_t syscw = 0;
  uint64_t read_bytes = 0;
  uint64_t write_bytes = 0;

  IoCounters operator-(const IoCounters& rhs) const;
  std::string ToString() const;
};

/// \brief Reads the current /proc/self/io counters.
util::Result<IoCounters> ReadIoCounters();

/// \brief Process-wide counters for the pipelined execution engine
/// (`exec::ChunkPipeline`) and the RAM-budget emulator.
///
/// `prefetches`/`prefetch_bytes` count MADV_WILLNEED ranges issued by the
/// prefetch stage; `evictions`/`bytes_evicted` count DONTNEED drops (from
/// the engine's evict stage and from core::RamBudgetEmulator hooks);
/// `prefetch_hits` counts chunks whose prefetch completed before compute
/// reached them (overlap succeeded), `stalls` counts chunks that entered
/// compute before their prefetch landed — hits below stalls mean the
/// disk, not the CPU, is the bottleneck.
struct ExecCounters {
  uint64_t passes = 0;
  uint64_t chunks = 0;
  uint64_t prefetches = 0;
  uint64_t prefetch_bytes = 0;
  uint64_t evictions = 0;
  uint64_t bytes_evicted = 0;
  uint64_t prefetch_hits = 0;
  uint64_t stalls = 0;
  /// Bytes of the chunks counted in `stalls` — the volume that actually
  /// waited on storage. core/model_fit requires this stall evidence
  /// before trusting a fitted disk bandwidth (the bandwidth itself is
  /// prefetch_bytes over the measured I/O wait) and reports it as the
  /// stall_byte_fraction diagnostic.
  uint64_t stall_bytes = 0;
  /// Chunks whose prefetch race was not classified (pass warm-up). For any
  /// complete pass, prefetches == prefetch_hits + stalls +
  /// prefetch_unclassified.
  uint64_t prefetch_unclassified = 0;
  /// I/O requests the prefetch backend handed to the kernel (one madvise
  /// range, one pread block — see io/prefetch_backend.h). Orthogonal to
  /// `prefetches`, which counts pipeline-level chunk ranges: one prefetch
  /// fans out into >= 1 backend submits.
  uint64_t backend_submits = 0;
  /// Backend requests confirmed complete (madvise succeeded, pread block
  /// fully read). submits > completions means lost overlap.
  uint64_t backend_completions = 0;
  /// Backend requests served by the pread backend's page-touch path for
  /// anonymous regions.
  uint64_t backend_fallbacks = 0;

  ExecCounters operator-(const ExecCounters& rhs) const;
  std::string ToString() const;
};

/// \brief Accumulates `delta` into the process-wide exec counters
/// (thread-safe; called by the engine at the end of every pass).
void AddExecCounters(const ExecCounters& delta);

/// \brief Snapshot of the process-wide exec counters.
///
/// Always safe to call: the engine publishes whole-pass deltas, so a
/// snapshot taken while passes are running sees every *completed* pass
/// and none of the running ones.
ExecCounters GlobalExecCounters();

/// \brief Page-fault counters from getrusage(2).
///
/// Major faults required real I/O (the out-of-core signal); minor faults
/// were satisfied from the page cache or by zero-fill.
struct FaultCounters {
  int64_t minor = 0;
  int64_t major = 0;

  FaultCounters operator-(const FaultCounters& rhs) const;
  std::string ToString() const;
};

/// \brief Reads the current process fault counters.
FaultCounters ReadFaultCounters();

/// \brief CPU time consumed by this process (user + system), in seconds.
///
/// Comparing CPU-seconds against wall-seconds yields the utilization figure
/// behind the paper's "CPU was only utilized at around 13%" observation.
double ProcessCpuSeconds();

/// \brief Samples wall time, CPU time, I/O and fault counters together.
///
/// Typical use brackets a measured region:
///   auto before = ResourceSample::Now();
///   Work();
///   auto delta = ResourceSample::Now() - before;
///   delta.CpuUtilization(num_cpus);
struct ResourceSample {
  double wall_seconds = 0;
  double cpu_seconds = 0;
  IoCounters io;
  FaultCounters faults;

  static ResourceSample Now();
  ResourceSample operator-(const ResourceSample& rhs) const;

  /// CPU utilization in [0, 1] relative to `num_cpus` cores.
  double CpuUtilization(size_t num_cpus) const;

  /// Storage read throughput over the interval, bytes/second.
  double ReadBandwidth() const;

  std::string ToString() const;
};

}  // namespace m3::io

#endif  // M3_IO_IO_STATS_H_
