#ifndef M3_IO_MMAP_FILE_H_
#define M3_IO_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "io/file.h"
#include "util/result.h"
#include "util/status.h"

namespace m3::io {

/// \brief Access-pattern hints forwarded to madvise(2).
enum class Advice {
  kNormal,      // MADV_NORMAL: default kernel readahead
  kRandom,      // MADV_RANDOM: disable readahead
  kSequential,  // MADV_SEQUENTIAL: aggressive readahead, early reclaim
  kWillNeed,    // MADV_WILLNEED: prefetch now
  kDontNeed,    // MADV_DONTNEED: drop the pages from this mapping
};

/// \brief A file (or anonymous region) mapped into the virtual address
/// space — the core mechanism of M3.
///
/// Move-only RAII: `munmap` runs on destruction. For file-backed mappings
/// the File is kept open for the mapping's lifetime so cache-control
/// operations (Evict, DropFileCache) can reach the backing file.
///
/// Usage (the paper's Table 1 pattern):
///
///   auto mapped = MemoryMappedFile::Map(path).ValueOrDie();
///   const double* m = mapped.As<const double>();
///   la::ConstMatrixView data(m, rows, cols);   // treated like RAM
class MemoryMappedFile {
 public:
  enum class Mode {
    kReadOnly,   // PROT_READ, MAP_SHARED
    kReadWrite,  // PROT_READ|PROT_WRITE, MAP_SHARED (writes reach the file)
    kPrivate,    // PROT_READ|PROT_WRITE, MAP_PRIVATE (copy-on-write)
  };

  struct Options {
    Options() {}  // NOLINT: explicit ctor so `= Options()` default args work

    Mode mode = Mode::kReadOnly;
    /// Pre-fault all pages at map time (MAP_POPULATE).
    bool populate = false;
    /// Initial madvise hint applied to the whole mapping.
    Advice advice = Advice::kNormal;
  };

  /// An empty mapping that owns nothing.
  MemoryMappedFile() = default;

  /// Maps the whole existing file at `path`.
  static util::Result<MemoryMappedFile> Map(const std::string& path,
                                            Options options = Options());

  /// Creates (truncating) `path`, sizes it to `size` bytes, and maps it
  /// read-write — the paper's `mmapAlloc(file, n)` helper.
  static util::Result<MemoryMappedFile> CreateAndMap(const std::string& path,
                                                     uint64_t size);

  /// Maps `size` bytes of zeroed anonymous memory (no backing file).
  static util::Result<MemoryMappedFile> MapAnonymous(uint64_t size);

  ~MemoryMappedFile();
  MemoryMappedFile(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile& operator=(MemoryMappedFile&& other) noexcept;
  MemoryMappedFile(const MemoryMappedFile&) = delete;
  MemoryMappedFile& operator=(const MemoryMappedFile&) = delete;

  bool is_mapped() const { return addr_ != nullptr; }
  uint64_t size() const { return size_; }
  const std::string& path() const { return file_.path(); }
  bool file_backed() const { return file_.is_open(); }

  const void* data() const { return addr_; }
  void* mutable_data() { return addr_; }

  /// The backing File — the pread prefetch backend reads through its
  /// descriptor to warm the page cache. `!is_open()` for anonymous
  /// mappings.
  const File& backing_file() const { return file_; }

  /// Typed view of the mapping. \pre size() is a multiple of sizeof(T).
  template <typename T>
  T* As() {
    return static_cast<T*>(addr_);
  }
  template <typename T>
  const T* As() const {
    return static_cast<const T*>(addr_);
  }

  /// Applies an madvise hint to the whole mapping. Cache-control calls
  /// are `const`: they steer the kernel's paging, not the mapping object.
  util::Status Advise(Advice advice) const;

  /// Applies an madvise hint to `[offset, offset + length)` (page-aligned
  /// internally; `length` is clamped to the mapping).
  util::Status AdviseRange(Advice advice, uint64_t offset,
                           uint64_t length) const;

  /// Asks the kernel to prefetch a range (MADV_WILLNEED).
  util::Status Prefetch(uint64_t offset, uint64_t length) const;

  /// Drops a range from this mapping *and* from the backing file's page
  /// cache, so the next access re-reads from storage. This is how a RAM
  /// budget (exec::PipelineOptions) forces out-of-core behaviour at laptop
  /// scale.
  util::Status Evict(uint64_t offset, uint64_t length) const;

  /// Touches every page so it is resident (sequential read fault).
  /// Returns a checksum so the compiler cannot elide the reads.
  uint64_t TouchAllPages() const;

  /// msync: flushes dirty pages of a shared file mapping to the file.
  util::Status Sync(bool asynchronous = false);

  /// Number of resident pages in `[offset, offset + length)` via mincore(2).
  util::Result<uint64_t> CountResidentPages(uint64_t offset,
                                            uint64_t length) const;

  /// Fraction of the whole mapping currently resident in RAM, in [0, 1].
  util::Result<double> ResidentFraction() const;

  /// Unmaps early; subsequent accesses are invalid. Idempotent, and safe
  /// on every error path: addr_/size_ are reset before munmap's verdict
  /// is known and the backing fd is closed even when munmap fails, so a
  /// failed Unmap never leaves a dangling mapping pointer or a leaked
  /// descriptor behind.
  util::Status Unmap();

 private:
  MemoryMappedFile(void* addr, uint64_t size, File file)
      : addr_(addr), size_(size), file_(std::move(file)) {}

  void* addr_ = nullptr;
  uint64_t size_ = 0;
  File file_;  // closed/empty for anonymous mappings
};

/// \brief Converts an Advice value to the corresponding MADV_* constant.
int AdviceToMadvFlag(Advice advice);

/// \brief Human-readable advice name ("sequential", ...).
std::string_view AdviceToString(Advice advice);

}  // namespace m3::io

#endif  // M3_IO_MMAP_FILE_H_
