#include "io/io_stats.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "io/platform.h"
#include "util/sys_info.h"

namespace m3::io {
namespace {

TEST(IoStatsTest, ReadIoCountersParses) {
  auto counters = ReadIoCounters();
  ASSERT_TRUE(counters.ok()) << counters.status().ToString();
  if (!GetPlatformCapabilities().proc_io_counters_live) {
    GTEST_SKIP() << "kernel serves static /proc/self/io (sandbox)";
  }
  // We have certainly issued some read syscalls by now.
  EXPECT_GT(counters.value().syscr, 0u);
}

TEST(IoStatsTest, CountersDeltaIsNonNegativeAndMonotone) {
  if (!GetPlatformCapabilities().proc_io_counters_live) {
    GTEST_SKIP() << "kernel serves static /proc/self/io (sandbox)";
  }
  auto before = ReadIoCounters().ValueOrDie();
  // Generate some syscall traffic.
  for (int i = 0; i < 10; ++i) {
    ReadIoCounters().ValueOrDie();
  }
  auto after = ReadIoCounters().ValueOrDie();
  IoCounters delta = after - before;
  EXPECT_GT(delta.syscr, 0u);
  EXPECT_GE(after.rchar, before.rchar);
}

TEST(IoStatsTest, FaultCountersIncreaseWhenTouchingNewMemory) {
  if (!GetPlatformCapabilities().rusage_tracks_faults) {
    GTEST_SKIP() << "kernel does not account minor faults (sandbox)";
  }
  FaultCounters before = ReadFaultCounters();
  // Touch 16 MiB of fresh pages -> minor faults.
  std::vector<char> block(16 << 20);
  for (size_t i = 0; i < block.size(); i += util::PageSize()) {
    block[i] = 1;
  }
  FaultCounters after = ReadFaultCounters();
  EXPECT_GT(after.minor, before.minor);
}

TEST(IoStatsTest, PlatformCapabilitiesProbeIsStableAndPrintable) {
  const PlatformCapabilities& a = GetPlatformCapabilities();
  const PlatformCapabilities& b = GetPlatformCapabilities();
  EXPECT_EQ(&a, &b);  // cached singleton
  EXPECT_NE(a.ToString().find("mincore_tracks_eviction="), std::string::npos);
}

TEST(IoStatsTest, ProcessCpuSecondsAdvancesUnderLoad) {
  const double before = ProcessCpuSeconds();
  volatile double sink = 0;
  for (int i = 0; i < 20000000; ++i) {
    sink = sink + static_cast<double>(i) * 1e-9;
  }
  const double after = ProcessCpuSeconds();
  EXPECT_GT(after, before);
}

TEST(IoStatsTest, ResourceSampleDeltaHasPositiveWall) {
  ResourceSample before = ResourceSample::Now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ResourceSample delta = ResourceSample::Now() - before;
  EXPECT_GT(delta.wall_seconds, 0.01);
  EXPECT_GE(delta.cpu_seconds, 0.0);
}

TEST(IoStatsTest, CpuUtilizationBoundedByOne) {
  ResourceSample before = ResourceSample::Now();
  volatile double sink = 0;
  for (int i = 0; i < 20000000; ++i) {
    sink = sink + static_cast<double>(i) * 1e-9;
  }
  ResourceSample delta = ResourceSample::Now() - before;
  const double util = delta.CpuUtilization(util::NumCpus());
  EXPECT_GE(util, 0.0);
  EXPECT_LE(util, 1.5);  // allow scheduler noise above 1.0 per-core
}

TEST(IoStatsTest, UtilizationZeroCases) {
  ResourceSample zero;
  EXPECT_DOUBLE_EQ(zero.CpuUtilization(4), 0.0);
  EXPECT_DOUBLE_EQ(zero.ReadBandwidth(), 0.0);
  ResourceSample some;
  some.wall_seconds = 1.0;
  EXPECT_DOUBLE_EQ(some.CpuUtilization(0), 0.0);
}

TEST(IoStatsTest, ToStringsContainKeyFields) {
  IoCounters io;
  io.read_bytes = 1024;
  EXPECT_NE(io.ToString().find("read=1.00 KiB"), std::string::npos);
  FaultCounters faults{3, 1};
  EXPECT_NE(faults.ToString().find("major=1"), std::string::npos);
  ResourceSample sample = ResourceSample::Now();
  EXPECT_NE(sample.ToString().find("wall="), std::string::npos);
}

}  // namespace
}  // namespace m3::io
