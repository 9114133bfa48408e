#include "io/io_stats.h"

#include <sys/resource.h>
#include <sys/time.h>

#include <chrono>

#include "io/file.h"
#include "util/format.h"

namespace m3::io {

using util::Result;
using util::Status;

IoCounters IoCounters::operator-(const IoCounters& rhs) const {
  IoCounters out;
  out.rchar = rchar - rhs.rchar;
  out.wchar = wchar - rhs.wchar;
  out.syscr = syscr - rhs.syscr;
  out.syscw = syscw - rhs.syscw;
  out.read_bytes = read_bytes - rhs.read_bytes;
  out.write_bytes = write_bytes - rhs.write_bytes;
  return out;
}

std::string IoCounters::ToString() const {
  return util::StrFormat(
      "read=%s write=%s (cached reads=%s) syscalls r/w=%llu/%llu",
      util::HumanBytes(read_bytes).c_str(),
      util::HumanBytes(write_bytes).c_str(), util::HumanBytes(rchar).c_str(),
      static_cast<unsigned long long>(syscr),
      static_cast<unsigned long long>(syscw));
}

Result<IoCounters> ReadIoCounters() {
  M3_ASSIGN_OR_RETURN(std::string text, ReadFileToString("/proc/self/io"));
  IoCounters counters;
  for (const std::string& line : util::StrSplit(text, '\n')) {
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    const std::string key = line.substr(0, colon);
    auto value = util::ParseInt64(line.substr(colon + 1));
    if (!value.ok()) {
      continue;
    }
    const uint64_t v = static_cast<uint64_t>(value.value());
    if (key == "rchar") {
      counters.rchar = v;
    } else if (key == "wchar") {
      counters.wchar = v;
    } else if (key == "syscr") {
      counters.syscr = v;
    } else if (key == "syscw") {
      counters.syscw = v;
    } else if (key == "read_bytes") {
      counters.read_bytes = v;
    } else if (key == "write_bytes") {
      counters.write_bytes = v;
    }
  }
  return counters;
}

FaultCounters FaultCounters::operator-(const FaultCounters& rhs) const {
  return FaultCounters{minor - rhs.minor, major - rhs.major};
}

std::string FaultCounters::ToString() const {
  return util::StrFormat("faults minor=%lld major=%lld",
                         static_cast<long long>(minor),
                         static_cast<long long>(major));
}

FaultCounters ReadFaultCounters() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return FaultCounters{usage.ru_minflt, usage.ru_majflt};
}

double ProcessCpuSeconds() {
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  auto to_seconds = [](const struct timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return to_seconds(usage.ru_utime) + to_seconds(usage.ru_stime);
}

ResourceSample ResourceSample::Now() {
  ResourceSample sample;
  sample.wall_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  sample.cpu_seconds = ProcessCpuSeconds();
  auto io = ReadIoCounters();
  if (io.ok()) {
    sample.io = io.value();
  }
  sample.faults = ReadFaultCounters();
  return sample;
}

ResourceSample ResourceSample::operator-(const ResourceSample& rhs) const {
  ResourceSample out;
  out.wall_seconds = wall_seconds - rhs.wall_seconds;
  out.cpu_seconds = cpu_seconds - rhs.cpu_seconds;
  out.io = io - rhs.io;
  out.faults = faults - rhs.faults;
  return out;
}

double ResourceSample::CpuUtilization(size_t num_cpus) const {
  if (wall_seconds <= 0 || num_cpus == 0) {
    return 0.0;
  }
  return cpu_seconds / (wall_seconds * static_cast<double>(num_cpus));
}

double ResourceSample::ReadBandwidth() const {
  if (wall_seconds <= 0) {
    return 0.0;
  }
  return static_cast<double>(io.read_bytes) / wall_seconds;
}

std::string ResourceSample::ToString() const {
  return util::StrFormat("wall=%s cpu=%s %s %s",
                         util::HumanDuration(wall_seconds).c_str(),
                         util::HumanDuration(cpu_seconds).c_str(),
                         io.ToString().c_str(), faults.ToString().c_str());
}

}  // namespace m3::io
