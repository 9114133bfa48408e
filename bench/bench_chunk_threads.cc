// Ablation: sensitivity of the chunked training scan to chunk size, and of
// the parallel kernels to worker count. DESIGN.md calls out chunk size as
// the knob coupling the RAM budget's eviction granularity to scan
// throughput; this bench shows the flat region where the default (~8 MiB)
// sits.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "la/blas.h"
#include "util/flags.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace m3::bench {
namespace {

int Run(int argc, char** argv) {
  int64_t size_mb = 48;
  std::string dir = "/tmp";
  bool csv = false;
  std::string trace;
  util::FlagParser flags("Chunk-size and thread-count ablation");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB");
  flags.AddString("dir", &dir, "scratch directory");
  flags.AddBool("csv", &csv, "emit CSV");
  flags.AddString("trace", &trace,
                  "write a Chrome trace-event JSON of the run to this path");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0], {{"size_mb", size_mb}},
                          {}, &trace)) {
    return 1;
  }

  PrintPreamble("Chunk size & thread count ablation");
  TraceSession trace_session(trace);
  const std::string path = dir + "/m3_chunks.m3";
  if (auto st =
          EnsureDataset(path, ImagesForMb(static_cast<uint64_t>(size_mb)));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  auto dataset = MappedDataset::Open(path).ValueOrDie();
  dataset.mapping().TouchAllPages();
  la::ConstMatrixView x = dataset.features();
  la::ConstVectorView y = dataset.labels();

  // --- Chunk-size sweep: one gradient pass per configuration. -------------
  std::printf("\n-- gradient-pass time vs chunk_rows (default auto ~ %zu) "
              "--\n",
              ml::AutoChunkRows(x.cols(), 0));
  util::TablePrinter chunk_table({"chunk_rows", "chunk_mib", "pass_s"});
  for (size_t chunk_rows : {64ul, 256ul, 1024ul, 4096ul, 16384ul, 65536ul}) {
    ml::LogisticRegressionObjective objective(x, y, 0.0, chunk_rows);
    la::Vector w(objective.Dimension());
    la::Vector grad(objective.Dimension());
    // Warm-up + 3 timed passes, keep the minimum.
    objective.EvaluateWithGradient(w, grad);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      util::Stopwatch watch;
      objective.EvaluateWithGradient(w, grad);
      best = std::min(best, watch.ElapsedSeconds());
    }
    chunk_table.AddRow(
        {util::StrFormat("%zu", chunk_rows),
         util::StrFormat("%.1f", static_cast<double>(chunk_rows * x.cols() *
                                                     sizeof(double)) /
                                     (1 << 20)),
         util::StrFormat("%.3f", best)});
  }
  chunk_table.Print(stdout, csv);

  // --- Thread sweep on the parallel kernels. -------------------------------
  std::printf("\n-- ParallelGemv speedup vs worker count --\n");
  la::Vector vec(x.cols(), 0.5);
  la::Vector out(x.rows());
  util::TablePrinter thread_table({"threads", "gemv_s", "speedup"});
  double base = 0;
  for (size_t threads : {1ul, 2ul, 4ul}) {
    util::ThreadPool pool(threads);
    // Warm-up + best of 3.
    la::ParallelGemv(1.0, x, vec, 0.0, out, &pool);
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
      util::Stopwatch watch;
      la::ParallelGemv(1.0, x, vec, 0.0, out, &pool);
      best = std::min(best, watch.ElapsedSeconds());
    }
    if (threads == 1) {
      base = best;
    }
    thread_table.AddRow({util::StrFormat("%zu", threads),
                         util::StrFormat("%.4f", best),
                         util::StrFormat("%.2fx", base / best)});
  }
  thread_table.Print(stdout, csv);
  std::printf("(machine has %zu logical cpus)\n", util::NumCpus());

  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  return 0;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
