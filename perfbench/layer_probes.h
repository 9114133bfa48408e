#ifndef M3_PERFBENCH_LAYER_PROBES_H_
#define M3_PERFBENCH_LAYER_PROBES_H_

#include <string>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/result.h"

namespace m3::perfbench {

/// \file
/// \brief Per-layer probes the traced run times from outside the library:
/// storage and mapping costs (`io`), kernel rates (`la`) and the memory
/// ceiling they are judged against. Rates are GB/s (1e9 bytes/s). Kernel
/// bytes are computed, not counted: the bytes of the rows a kernel
/// streams (8 per dense element, 12 per stored nonzero), since the small
/// dense operand stays cache-resident; so they compare with the stream
/// ceiling directly.

/// Cold sequential read bandwidth of the storage under `dir`
/// (io::ProbeDisk with a 64 MiB scratch file). The `io` ceiling.
util::Result<double> DiskReadGbps(const std::string& dir);

/// Microseconds to touch one byte per page of a fresh mapping of `path`
/// (sequential advice, so kernel readahead applies as in a training scan).
/// Call it while no other mapping of the file holds its pages.
/// `cold` evicts the file from the page cache first (major faults, Table
/// 1's cold mapping); otherwise the file is already cached and the faults
/// are minor (warm mapping).
util::Result<double> FaultMicrosPerPage(const std::string& path, bool cold);

/// Bytes/s (as GB/s) the madvise prefetch backend brings an evicted file
/// into RAM, timed from the Prefetch call until mincore reports it fully
/// resident — the read time WILLNEED hides from the pipeline's own
/// `prefetch_seconds`. Polling stops when residency stops growing for
/// 100 ms or after 2 s, and only the resident part is rated, so a WILLNEED
/// the kernel ignores reads as close to 0.
util::Result<double> PrefetchGbps(const std::string& path);

/// A plain sequential read of at least 420 MiB (a 128 MiB heap buffer,
/// four passes, 8 independent integer lanes): the memory-bandwidth
/// ceiling for the `la` kernel rates.
double StreamGbps();

/// Dense kernel rates over resident rows of `x`.
struct DenseKernelRates {
  double dot_gbps = 0;     ///< la::Dot(row, w) per row
  double axpy_gbps = 0;    ///< la::Axpy(a, row, y) per row
  double sqdist_gbps = 0;  ///< la::SquaredDistance(row, c) for 5 centers
};
DenseKernelRates MeasureDenseKernels(la::ConstMatrixView x);

/// la::SparseDot then la::SparseAxpy on each resident CSR row.
double MeasureSparseKernelsGbps(const la::CsrView& x);

}  // namespace m3::perfbench

#endif  // M3_PERFBENCH_LAYER_PROBES_H_
