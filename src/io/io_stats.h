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
