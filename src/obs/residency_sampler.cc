#include "obs/residency_sampler.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>

#include "io/mmap_file.h"
#include "obs/trace_recorder.h"

namespace m3::obs {

namespace {

/// Process RSS in bytes from /proc/self/statm (second field, pages).
/// Returns 0 on any parse trouble — a missing sample, not an error.
uint64_t ReadRssBytes() {
  std::FILE* file = std::fopen("/proc/self/statm", "r");
  if (file == nullptr) {
    return 0;
  }
  unsigned long long total_pages = 0, resident_pages = 0;
  const int matched =
      std::fscanf(file, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(file);
  if (matched != 2) {
    return 0;
  }
  return resident_pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace

ResidencySampler& ResidencySampler::Get() {
  static ResidencySampler* sampler = new ResidencySampler;
  return *sampler;
}

void ResidencySampler::Start(double period_seconds) {
  // lifecycle_mu_ serializes whole Start/Stop transitions: a Start racing
  // a Stop waits for the join to finish instead of observing `running_`
  // mid-teardown and returning with no live thread.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  period_seconds_ = period_seconds > 0 ? period_seconds : 0.01;
  if (running_) {
    return;
  }
  stop_requested_ = false;
  running_ = true;
  thread_ = std::thread([this] { Loop(); });
}

void ResidencySampler::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) {
      return;
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  stop_requested_ = false;
}

bool ResidencySampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return running_;
}

void ResidencySampler::RegisterMapping(const io::MemoryMappedFile* mapping) {
  if (mapping == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  mappings_.push_back(mapping);
}

void ResidencySampler::UnregisterMapping(const io::MemoryMappedFile* mapping) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = mappings_.begin(); it != mappings_.end(); ++it) {
    if (*it == mapping) {
      mappings_.erase(it);
      return;
    }
  }
}

void ResidencySampler::SampleOnce() {
  if (!TracingEnabled()) {
    return;
  }
  uint64_t resident_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const io::MemoryMappedFile* mapping : mappings_) {
      if (!mapping->is_mapped()) {
        continue;
      }
      auto pages = mapping->CountResidentPages(0, mapping->size());
      if (pages.ok()) {
        resident_bytes += pages.value() *
                          static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
      }
    }
  }
  EmitCounter("residency", "resident_bytes",
              static_cast<double>(resident_bytes));
  EmitCounter("rss", "rss_bytes", static_cast<double>(ReadRssBytes()));
}

void ResidencySampler::Loop() {
  NameThisThread("residency-sampler");
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const auto period = std::chrono::duration<double>(period_seconds_);
    cv_.wait_for(lock, period, [this] { return stop_requested_; });
    if (stop_requested_) {
      return;
    }
    lock.unlock();
    SampleOnce();
    lock.lock();
  }
}

}  // namespace m3::obs
