#ifndef M3_IO_PREFETCH_BACKEND_H_
#define M3_IO_PREFETCH_BACKEND_H_

/// \file
/// \brief Pluggable prefetch backends for the execution engine.
///
/// The engine's prefetch stage (exec::ChunkPipeline) asks one of these
/// backends to bring a byte range of a mapping toward RAM before compute
/// reaches it. Two strategies exist because the cheap one does not work
/// everywhere:
///
///   - MadviseBackend: MADV_WILLNEED — the paper's mechanism and the
///     default. Asynchronous and cheap, but a silent no-op on several
///     container/overlay filesystems, which stalls the whole pipeline on
///     exactly the hardware where overlap matters most.
///   - PreadBackend: pread(2) reads into scratch buffers, fanned out over
///     two internal threads. The reads land in the page cache, so the
///     mapping's later faults are minor. Blocking, but works on every
///     POSIX filesystem.
///
/// Thread model: the pipeline calls Prefetch() from its single background
/// I/O thread, one call at a time; a backend shared between pipelines
/// (cluster simulator) is still only driven by one pass at a time.
/// Prefetch() may block — it runs on the I/O thread precisely so that the
/// compute stage never waits on it. counters() is safe from any thread.
///
/// Selection is wired through M3Options::prefetch_backend /
/// cluster::ClusterExecOptions::prefetch_backend / exec::PipelineOptions.
/// Backends move bytes, never values: results of any scan are bitwise
/// identical under every backend (the retire order is fixed by the
/// engine, and no backend touches mapped data).

#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>

#include "io/mmap_file.h"
#include "util/result.h"
#include "util/status.h"

namespace m3::io {

/// \brief Which prefetch implementation a pipeline should use.
enum class PrefetchBackendKind {
  kMadvise,  ///< MADV_WILLNEED (the default; the paper's mechanism)
  kPread,    ///< pread(2) page-cache warming (works everywhere)
};

/// \brief Short lowercase name ("madvise", "pread"). A string literal, so
/// trace args may hold it.
const char* PrefetchBackendKindToString(PrefetchBackendKind kind);

/// \brief Parses a backend name as printed by PrefetchBackendKindToString.
util::Result<PrefetchBackendKind> ParsePrefetchBackendKind(
    std::string_view name);

/// \brief What one Prefetch() call (or a backend lifetime) did.
///
/// `submits` counts I/O requests handed to the kernel (one madvise range,
/// one pread block); `completions` counts requests confirmed done — a
/// submit without a completion is a failed madvise or a short pread.
/// `fallbacks` counts requests served by the pread backend's page-touch
/// path for anonymous regions, which have no descriptor to read from.
struct PrefetchOutcome {
  uint64_t submits = 0;
  uint64_t completions = 0;
  uint64_t fallbacks = 0;

  PrefetchOutcome& operator+=(const PrefetchOutcome& rhs);
};

/// \brief Interface the engine's prefetch stage drives.
///
/// Implementations hold no per-mapping state: the same backend serves
/// many pipelines and mappings.
class PrefetchBackend {
 public:
  virtual ~PrefetchBackend();

  PrefetchBackend(const PrefetchBackend&) = delete;
  PrefetchBackend& operator=(const PrefetchBackend&) = delete;

  /// The kind this backend was constructed as.
  virtual PrefetchBackendKind kind() const = 0;

  /// Brings mapping[offset, offset+length) toward RAM. Called on the
  /// pipeline's I/O thread; may block. Best effort: an error loses
  /// overlap, never data. Returns what was submitted/completed so the
  /// pipeline can fold the outcome into its PipelineStats.
  util::Result<PrefetchOutcome> Prefetch(const MemoryMappedFile& mapping,
                                         uint64_t offset, uint64_t length);

  /// Lifetime totals across all Prefetch() calls (thread-safe).
  PrefetchOutcome counters() const;

 protected:
  PrefetchBackend() = default;

  /// Backend-specific implementation; Prefetch() adds its outcome to the
  /// lifetime totals.
  virtual util::Result<PrefetchOutcome> DoPrefetch(
      const MemoryMappedFile& mapping, uint64_t offset, uint64_t length) = 0;

 private:
  mutable std::mutex mu_;
  PrefetchOutcome totals_;
};

/// \brief Constructs the backend for `kind`.
std::unique_ptr<PrefetchBackend> MakePrefetchBackend(PrefetchBackendKind kind);

}  // namespace m3::io

#endif  // M3_IO_PREFETCH_BACKEND_H_
