#include "io/prefetch_backend.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "io/syscall_injection.h"
#include "util/sys_info.h"
#include "util/thread_pool.h"

namespace m3::io {

using util::Result;
using util::Status;

const char* PrefetchBackendKindToString(PrefetchBackendKind kind) {
  switch (kind) {
    case PrefetchBackendKind::kMadvise:
      return "madvise";
    case PrefetchBackendKind::kPread:
      return "pread";
  }
  return "unknown";
}

Result<PrefetchBackendKind> ParsePrefetchBackendKind(std::string_view name) {
  if (name == "madvise") {
    return PrefetchBackendKind::kMadvise;
  }
  if (name == "pread") {
    return PrefetchBackendKind::kPread;
  }
  return Status::InvalidArgument("unknown prefetch backend '" +
                                 std::string(name) +
                                 "' (want madvise|pread)");
}

PrefetchOutcome& PrefetchOutcome::operator+=(const PrefetchOutcome& rhs) {
  submits += rhs.submits;
  completions += rhs.completions;
  fallbacks += rhs.fallbacks;
  return *this;
}

PrefetchBackend::~PrefetchBackend() = default;

Result<PrefetchOutcome> PrefetchBackend::Prefetch(
    const MemoryMappedFile& mapping, uint64_t offset, uint64_t length) {
  if (!mapping.is_mapped()) {
    return Status::FailedPrecondition("prefetch on unmapped region");
  }
  if (offset >= mapping.size() || length == 0) {
    return PrefetchOutcome();  // nothing to bring in
  }
  M3_ASSIGN_OR_RETURN(PrefetchOutcome outcome,
                      DoPrefetch(mapping, offset, length));
  std::lock_guard<std::mutex> lock(mu_);
  totals_ += outcome;
  return outcome;
}

PrefetchOutcome PrefetchBackend::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

namespace {

/// Faults [offset, offset+length) of the mapping in by reading one byte
/// per page. Returns a checksum so the reads cannot be elided.
uint64_t TouchRange(const MemoryMappedFile& mapping, uint64_t offset,
                    uint64_t length) {
  const uint64_t page = util::PageSize();
  const volatile char* bytes = static_cast<const char*>(mapping.data());
  const uint64_t end = std::min(offset + length, mapping.size());
  uint64_t checksum = 0;
  for (uint64_t off = offset; off < end; off += page) {
    checksum += static_cast<uint64_t>(bytes[off]);
  }
  return checksum;
}

// ---------------------------------------------------------------------------
// MadviseBackend
// ---------------------------------------------------------------------------

class MadviseBackend : public PrefetchBackend {
 public:
  PrefetchBackendKind kind() const override {
    return PrefetchBackendKind::kMadvise;
  }

 protected:
  Result<PrefetchOutcome> DoPrefetch(const MemoryMappedFile& mapping,
                                     uint64_t offset,
                                     uint64_t length) override {
    PrefetchOutcome outcome;
    outcome.submits = 1;
    // Best effort: a failed WILLNEED only loses overlap, never data.
    if (mapping.Prefetch(offset, length).ok()) {
      outcome.completions = 1;
    }
    return outcome;
  }
};

// ---------------------------------------------------------------------------
// PreadBackend
// ---------------------------------------------------------------------------

class PreadBackend : public PrefetchBackend {
 public:
  PreadBackend() : pool_(kThreads) {}

  PrefetchBackendKind kind() const override {
    return PrefetchBackendKind::kPread;
  }

 protected:
  Result<PrefetchOutcome> DoPrefetch(const MemoryMappedFile& mapping,
                                     uint64_t offset,
                                     uint64_t length) override {
    PrefetchOutcome outcome;
    const uint64_t end = std::min(offset + length, mapping.size());
    if (!mapping.file_backed()) {
      // No descriptor to read from: fault the pages in directly. For
      // anonymous regions this is zero-fill, effectively free.
      TouchRange(mapping, offset, end - offset);
      outcome.submits = outcome.completions = outcome.fallbacks = 1;
      return outcome;
    }
    const int fd = mapping.backing_file().fd();
    std::vector<std::pair<uint64_t, uint64_t>> blocks;  // (offset, length)
    for (uint64_t off = offset; off < end; off += kBlockBytes) {
      blocks.emplace_back(off, std::min<uint64_t>(kBlockBytes, end - off));
    }
    outcome.submits = blocks.size();
    if (blocks.size() > 1) {
      std::vector<std::future<void>> pending;
      std::atomic<uint64_t> completed{0};
      pending.reserve(blocks.size());
      // Relaxed: completed is a pure counter; future.get() below is the
      // synchronization point before it is read.
      for (const auto& [off, len] : blocks) {
        pending.push_back(pool_.Submit([fd, off = off, len = len,
                                        &completed] {
          if (ReadBlock(fd, off, len)) {
            completed.fetch_add(1, std::memory_order_relaxed);
          }
        }));
      }
      for (auto& future : pending) {
        future.get();
      }
      // Relaxed: every writer was joined via future.get() above.
      outcome.completions = completed.load(std::memory_order_relaxed);
    } else {
      for (const auto& [off, len] : blocks) {
        if (ReadBlock(fd, off, len)) {
          ++outcome.completions;
        }
      }
    }
    return outcome;
  }

 private:
  static constexpr uint64_t kBlockBytes = 1 << 20;
  static constexpr size_t kThreads = 2;

  /// One block-sized page-cache-warming read; true when fully read.
  static bool ReadBlock(int fd, uint64_t offset, uint64_t length) {
    // The data is discarded — the read's only job is to leave the pages in
    // the page cache so the mapping's later faults are minor. A modest
    // scratch keeps the working set cache-friendly.
    constexpr size_t kScratchBytes = 256 << 10;
    char scratch[8 << 10];
    std::vector<char> heap;
    char* buffer = scratch;
    size_t buffer_bytes = sizeof(scratch);
    if (length > sizeof(scratch)) {
      heap.resize(std::min<uint64_t>(length, kScratchBytes));
      buffer = heap.data();
      buffer_bytes = heap.size();
    }
    uint64_t done = 0;
    while (done < length) {
      const size_t want =
          static_cast<size_t>(std::min<uint64_t>(buffer_bytes, length - done));
      const ssize_t got = internal::Pread(fd, buffer, want,
                                          static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) {
          continue;  // interrupted before transferring anything: retry
        }
        return false;
      }
      if (got == 0) {
        return false;  // EOF mid-block
      }
      done += static_cast<uint64_t>(got);
    }
    return true;
  }

  util::ThreadPool pool_;
};

}  // namespace

std::unique_ptr<PrefetchBackend> MakePrefetchBackend(PrefetchBackendKind kind) {
  switch (kind) {
    case PrefetchBackendKind::kMadvise:
      return std::make_unique<MadviseBackend>();
    case PrefetchBackendKind::kPread:
      return std::make_unique<PreadBackend>();
  }
  return std::make_unique<MadviseBackend>();
}

}  // namespace m3::io
