// Dense-equivalent vs CSR logistic-regression passes under a constrained
// RAM budget. Both sides scan the same logical matrix: the sparse file
// stores only the nonzeros (col_idx + values behind a row_ptr index); the
// dense twin is its densified copy. At the same budget percentage the CSR
// scan touches a small fraction of the dense bytes per pass — the M3
// story applied to sparse features: mmap the compact format and let the
// byte-range pipeline (CsrByteMap) prefetch/evict exactly the section
// spans a chunk needs.
//
// Before any timing, a conformance gate trains nothing but evaluates one
// loss+gradient on both representations chunked identically: the results
// must agree to the last bit (sparse kernels are the dense kernels minus
// the zero terms, into the same lanes). A mismatch exits nonzero — this
// bench doubles as the nightly's sparse/dense drift tripwire.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "core/sparse_mapped_dataset.h"
#include "data/sparse_dataset.h"
#include "io/io_stats.h"
#include "io/prefetch_backend.h"
#include "la/sparse.h"
#include "ml/sparse_logistic_regression.h"
#include "util/flags.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

struct PassResult {
  double seconds = 0;
  exec::PipelineStats stats;
  io::ResourceSample usage;
  bool trained = false;
};

int Run(int argc, char** argv) {
  int64_t rows = 40000;
  int64_t cols = 256;
  int64_t nnz_per_row = 16;
  int64_t budget_percent = 25;
  int64_t iterations = 6;
  int64_t readahead = 4;
  int64_t workers = 2;
  std::string dir = "/tmp";
  std::string backend = "madvise";
  std::string trace;
  bool csv = false;
  util::FlagParser flags(
      "dense-equivalent vs CSR out-of-core logistic-regression passes");
  flags.AddInt64("rows", &rows, "dataset rows");
  flags.AddInt64("cols", &cols, "dataset columns (dense width)");
  flags.AddInt64("nnz_per_row", &nnz_per_row,
                 "mean stored nonzeros per row (raggedness is 2x this)");
  flags.AddInt64("budget_percent", &budget_percent,
                 "RAM budget as percent of each format's scan bytes");
  flags.AddInt64("iterations", &iterations, "L-BFGS iterations per config");
  flags.AddInt64("readahead", &readahead, "engine readahead chunks");
  flags.AddInt64("workers", &workers, "engine workers");
  flags.AddString("dir", &dir, "scratch directory");
  flags.AddString("backend", &backend,
                  "prefetch backend: madvise|pread");
  flags.AddString("trace", &trace,
                  "write a Chrome trace-event JSON of the run to this path");
  flags.AddBool("csv", &csv, "emit CSV");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    return UsageError(flags, argv[0], st.ToString());
  }
  if (flags.help_requested()) {
    return 0;
  }
  if (!ValidateBenchFlags(flags, argv[0],
                          {{"rows", rows},
                           {"cols", cols},
                           {"nnz_per_row", nnz_per_row},
                           {"budget_percent", budget_percent},
                           {"iterations", iterations},
                           {"readahead", readahead}},
                          {{"workers", workers}}, &trace)) {
    return 1;
  }
  auto backend_kind = io::ParsePrefetchBackendKind(backend);
  if (!backend_kind.ok()) {
    return UsageError(flags, argv[0], backend_kind.status().ToString());
  }

  PrintPreamble("sparse overlap: dense-equivalent vs CSR at a RAM budget");
  TraceSession trace_session(trace);

  const std::string sparse_path = dir + "/m3_sparse_overlap.m3s";
  const std::string dense_path = dir + "/m3_sparse_overlap_dense.m3";
  data::SparseSyntheticOptions gen;
  gen.rows = static_cast<uint64_t>(rows);
  gen.cols = static_cast<uint64_t>(cols);
  gen.nnz_per_row = static_cast<uint64_t>(nnz_per_row);
  gen.seed = 2016;
  if (auto st = data::GenerateSparseDataset(sparse_path, gen); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  uint64_t sparse_scan_bytes = 0;
  uint64_t dense_scan_bytes = 0;
  std::vector<double> labels;
  {
    // Densify once to write the dense twin, then drop the copy.
    auto sparse = MappedSparseDataset::Open(sparse_path).ValueOrDie();
    sparse_scan_bytes = sparse.payload_bytes();
    dense_scan_bytes = sparse.rows() * sparse.cols() * sizeof(double);
    labels = sparse.CopyLabels();
    const la::Matrix dense = la::Densify(sparse.csr());
    if (auto st = data::WriteDataset(dense_path, dense.View(), labels,
                                     sparse.num_classes());
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  std::printf("scan bytes per pass: dense %s, CSR %s (%.1fx smaller)\n\n",
              util::HumanBytes(dense_scan_bytes).c_str(),
              util::HumanBytes(sparse_scan_bytes).c_str(),
              static_cast<double>(dense_scan_bytes) /
                  static_cast<double>(std::max<uint64_t>(1,
                                                         sparse_scan_bytes)));

  // -------------------------------------------------------------------
  // Conformance gate: one loss+gradient, both formats, uniform chunks.
  // -------------------------------------------------------------------
  bool gate_passed = false;
  {
    auto sparse = MappedSparseDataset::Open(sparse_path).ValueOrDie();
    auto dense = MappedDataset::Open(dense_path).ValueOrDie();
    const la::ConstVectorView y(labels.data(), labels.size());
    const size_t chunk_rows = 4096;
    ml::LogisticRegressionObjective dense_obj(dense.features(), y, 1e-4,
                                              chunk_rows);
    ml::SparseLogisticRegressionObjective sparse_obj(sparse.csr(), y, 1e-4,
                                                     chunk_rows);
    la::Vector w(dense_obj.Dimension());
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = 0.01 * static_cast<double>(i % 13) - 0.06;
    }
    la::Vector dense_grad(dense_obj.Dimension());
    la::Vector sparse_grad(sparse_obj.Dimension());
    const double dense_loss = dense_obj.EvaluateWithGradient(w, dense_grad);
    const double sparse_loss = sparse_obj.EvaluateWithGradient(w, sparse_grad);
    gate_passed =
        std::memcmp(&dense_loss, &sparse_loss, sizeof(double)) == 0 &&
        std::memcmp(dense_grad.data(), sparse_grad.data(),
                    dense_grad.size() * sizeof(double)) == 0;
    std::printf("conformance gate (loss+gradient, uniform chunks): %s\n\n",
                gate_passed ? "bitwise identical" : "MISMATCH");
    if (!gate_passed) {
      std::fprintf(stderr,
                   "GRADIENT MISMATCH: sparse objective drifted from its "
                   "dense twin (loss %.17g vs %.17g)\n",
                   sparse_loss, dense_loss);
    }
  }

  // -------------------------------------------------------------------
  // Timed passes: each format at budget_percent of its own scan bytes.
  // -------------------------------------------------------------------
  auto run_dense = [&]() {
    M3Options options;
    options.ram_budget_bytes =
        dense_scan_bytes * static_cast<uint64_t>(budget_percent) / 100;
    options.readahead_chunks = static_cast<uint64_t>(readahead);
    options.pipeline_workers = static_cast<uint64_t>(workers);
    options.prefetch_backend = backend_kind.value();
    options.trace_path = trace;
    auto dataset = MappedDataset::Open(dense_path, options).ValueOrDie();
    M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
    ml::LogisticRegressionOptions train_options;
    train_options.lbfgs = PaperLbfgsOptions();
    train_options.lbfgs.max_iterations = static_cast<size_t>(iterations);
    PassResult result;
    const io::ResourceSample before = io::ResourceSample::Now();
    util::Stopwatch watch;
    auto model = TrainLogisticRegression(dataset, train_options);
    result.seconds = watch.ElapsedSeconds();
    result.usage = io::ResourceSample::Now() - before;
    result.stats = dataset.pipeline().stats();
    result.trained = model.ok();
    if (!model.ok()) {
      std::fprintf(stderr, "dense training failed: %s\n",
                   model.status().ToString().c_str());
    }
    return result;
  };

  auto run_sparse = [&]() {
    M3Options options;
    options.ram_budget_bytes =
        sparse_scan_bytes * static_cast<uint64_t>(budget_percent) / 100;
    options.readahead_chunks = static_cast<uint64_t>(readahead);
    options.pipeline_workers = static_cast<uint64_t>(workers);
    options.prefetch_backend = backend_kind.value();
    options.trace_path = trace;
    auto dataset = MappedSparseDataset::Open(sparse_path, options)
                       .ValueOrDie();
    M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
    ml::SparseLogisticRegressionOptions train_options;
    train_options.lbfgs = PaperLbfgsOptions();
    train_options.lbfgs.max_iterations = static_cast<size_t>(iterations);
    train_options.chunk_nnz_bytes = dataset.ChunkNnzBytes();
    train_options.pipeline = &dataset.pipeline();
    PassResult result;
    const io::ResourceSample before = io::ResourceSample::Now();
    util::Stopwatch watch;
    auto model = ml::SparseLogisticRegression(train_options)
                     .Train(dataset.csr(),
                            la::ConstVectorView(labels.data(), labels.size()));
    result.seconds = watch.ElapsedSeconds();
    result.usage = io::ResourceSample::Now() - before;
    result.stats = dataset.pipeline().stats();
    result.trained = model.ok();
    if (!model.ok()) {
      std::fprintf(stderr, "sparse training failed: %s\n",
                   model.status().ToString().c_str());
    }
    return result;
  };

  const PassResult dense = run_dense();
  const PassResult sparse = run_sparse();

  util::TablePrinter table({"config", "epochs_s", "scan_bytes_per_pass",
                            "read", "prefetches", "stalls", "evicted"});
  auto add_row = [&](const std::string& name, const PassResult& r,
                     uint64_t scan_bytes) {
    table.AddRow({name, util::StrFormat("%.3f", r.seconds),
                  util::HumanBytes(scan_bytes),
                  util::HumanBytes(r.usage.io.read_bytes),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              r.stats.prefetches)),
                  util::StrFormat("%llu", static_cast<unsigned long long>(
                                              r.stats.stalls)),
                  util::HumanBytes(r.stats.bytes_evicted)});
  };
  add_row("dense_equivalent", dense, dense_scan_bytes);
  add_row("csr", sparse, sparse_scan_bytes);
  table.Print(stdout, csv);

  JsonReporter reporter("sparse_overlap");
  reporter.Add("dense_equivalent", dense.seconds, dense.stats,
               {{"scan_bytes_per_pass", dense_scan_bytes}});
  reporter.Add("csr", sparse.seconds, sparse.stats,
               {{"scan_bytes_per_pass", sparse_scan_bytes},
                {"gradient_bitwise_identical", gate_passed ? 1u : 0u}});
  if (util::Status json = reporter.Write(dir); !json.ok()) {
    std::fprintf(stderr, "bench JSON not written: %s\n",
                 json.ToString().c_str());
  }

  if (dense.seconds > 0 && sparse.trained && dense.trained) {
    std::printf("\nCSR pass is %.1fx the dense-equivalent wall-clock at the "
                "same budget percentage (scanning %.1fx fewer bytes)\n",
                sparse.seconds / dense.seconds,
                static_cast<double>(dense_scan_bytes) /
                    static_cast<double>(
                        std::max<uint64_t>(1, sparse_scan_bytes)));
  }
  M3_IGNORE_STATUS(io::RemoveFile(sparse_path), "best-effort scratch cleanup");
  M3_IGNORE_STATUS(io::RemoveFile(dense_path), "best-effort scratch cleanup");
  return (gate_passed && dense.trained && sparse.trained) ? 0 : 1;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
