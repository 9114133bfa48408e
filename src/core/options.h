#ifndef M3_CORE_OPTIONS_H_
#define M3_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "exec/chunk_schedule.h"
#include "io/mmap_file.h"
#include "io/prefetch_backend.h"

namespace m3 {

/// \brief Options controlling how M3 maps and scans a dataset.
struct M3Options {
  M3Options() {}  // NOLINT: explicit ctor so `= M3Options()` defaults work

  /// madvise hint applied to the feature region after mapping. The paper's
  /// workloads are sequential scans, so kSequential (aggressive readahead)
  /// is the default; kRandom is the ablation setting.
  io::Advice advice = io::Advice::kSequential;

  /// Pre-fault all pages at map time (only sensible when the dataset fits
  /// in RAM; defeats the purpose for out-of-core data).
  bool populate = false;

  /// Emulated RAM budget in bytes for the feature region. 0 disables
  /// emulation (use all physical RAM, the paper's in-core regime). When
  /// positive, every scan pass keeps the longest prefix of chunks that fits
  /// in `ram_budget_bytes` resident and evicts every other chunk
  /// (madvise(DONTNEED) + fadvise(DONTNEED)) as it retires, reproducing the
  /// paper's dataset-exceeds-RAM regime at laptop scale: each pass re-reads
  /// all but the pinned bytes. Chunks in flight (dispatched or prefetched)
  /// come on top of the budget; see exec::PipelineOptions.
  uint64_t ram_budget_bytes = 0;

  /// Rows per sequential scan chunk for training algorithms (0 = auto).
  uint64_t chunk_rows = 0;

  /// Sparse (CSR) scans only: target payload bytes (col_idx + values) per
  /// chunk for the nnz-budget SparseChunker (0 = auto, ~8 MiB). Positive
  /// `chunk_rows` overrides with uniform row chunking — the mode whose
  /// chunk boundaries (and therefore bits) match a dense scan of the
  /// densified data.
  uint64_t chunk_nnz_bytes = 0;

  /// Chunks of MADV_WILLNEED readahead the execution engine
  /// (exec::ChunkPipeline) keeps ahead of training scans. 0 disables the
  /// prefetch stage; the default overlaps the next chunk's disk reads
  /// with the current chunk's compute. Engine-driven scans also feed the
  /// calibration loop: their measured per-stage `exec::PipelineStats`
  /// (via MappedDataset::pipeline()) are what `core/model_fit` fits the
  /// performance model from — see docs/ARCHITECTURE.md, "The calibration
  /// loop".
  uint64_t readahead_chunks = 2;

  /// Compute-stage fan-out of the execution engine: 0 or 1 runs chunk
  /// functors serially on the scanning thread; >= 2 map-reduces chunks
  /// across that many engine workers (results stay bitwise identical —
  /// partials merge in chunk order).
  uint64_t pipeline_workers = 0;

  /// How the engine's prefetch stage issues readahead I/O: kMadvise
  /// (MADV_WILLNEED, the default) or kPread (page-cache-warming reads —
  /// works where WILLNEED is a silent no-op, e.g. several
  /// container/overlay filesystems). Trained results are bitwise
  /// identical under every backend; only the degree of compute/disk
  /// overlap changes. See docs/ARCHITECTURE.md for the selection matrix.
  io::PrefetchBackendKind prefetch_backend = io::PrefetchBackendKind::kMadvise;

  /// Visit order for dataset-driven chunk scans (MappedDataset::
  /// ForEachChunk / MapReduceChunks). Non-sequential orders prefetch and
  /// evict along the schedule's permutation. Training objectives always
  /// scan sequentially (their in-chunk-order reductions are the bitwise
  /// determinism reference); SGD builds its own per-epoch shuffled
  /// schedules from SgdOptions::seed.
  ///
  /// The RAM budget pins chunks by index, so every order keeps the same
  /// chunks resident and evicts the others as it visits them.
  exec::ScanOrder scan_order = exec::ScanOrder::kSequential;

  /// Base seed for kShuffled dataset scans. Pass p reshuffles with seed
  /// `scan_seed + p` (epoch-shuffled), so repeated scans are deterministic
  /// but not identical pass to pass.
  uint64_t scan_seed = 42;

  /// Stride for kStrided dataset scans; 0 or 1 degenerates to sequential.
  uint64_t scan_stride = 0;

  /// Lane a kStrided scan starts at (offset % scan_stride): shard id when
  /// interleaved consumers each scan their own residue class first — the
  /// cluster simulator uses stride = instance count, offset = instance id.
  uint64_t scan_stride_offset = 0;

  /// When non-empty, MappedDataset::Open starts the process-global trace
  /// session (obs::StartGlobalTrace): pipeline stage spans and residency
  /// counter tracks are recorded and written to this path as Chrome
  /// trace-event JSON at obs::StopGlobalTraceAndWrite (or process exit).
  /// The dataset's mapping is registered with the residency sampler for
  /// its lifetime. Tracing is process-global: the first non-empty path
  /// wins; later Opens join the running session. Empty (the default)
  /// records nothing and costs one predicted branch per span site —
  /// see docs/OBSERVABILITY.md.
  std::string trace_path;
};

}  // namespace m3

#endif  // M3_CORE_OPTIONS_H_
