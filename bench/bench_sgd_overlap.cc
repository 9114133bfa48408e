// Hand-rolled vs engine-driven shuffled SGD under a constrained RAM
// budget. The hand-rolled configuration is the loop src/ml/sgd.cc used
// before the engine port: visit shuffled minibatches, fault each batch's
// pages synchronously, evict a trailing window by hand — the disk idles
// while we compute. The engine configuration runs the identical schedule
// through exec::ChunkPipeline: MADV_WILLNEED walks the epoch's permutation
// `readahead` positions ahead of the weight updates and the engine's
// visit-order window evicts behind them. Both visit the same batches in
// the same order with the same arithmetic, so the trained weights are
// bitwise identical — only the I/O overlap differs.

#include <cstdio>
#include <cstring>
#include <deque>

#include "bench/bench_common.h"
#include "core/m3.h"
#include "exec/chunk_schedule.h"
#include "la/blas.h"
#include "ml/sgd.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/table_printer.h"

namespace m3::bench {
namespace {

struct SgdConfig {
  std::string name;
  size_t readahead = 0;  ///< 0 = hand-rolled synchronous loop
  size_t workers = 0;
};

struct SgdRun {
  double seconds = 0;
  la::Vector weights;
  /// Engine runs carry their pipeline's stats; the hand-rolled run, which
  /// has no pipeline, fills in only the evictions it issued itself.
  exec::PipelineStats stats;
};

struct BenchParams {
  uint64_t budget_bytes = 0;
  size_t epochs = 3;
  size_t batch_rows = 512;
  uint64_t seed = 42;

  /// The SGD hyperparameters both configurations share; the hand-rolled
  /// loop reads learning_rate/decay from here so the two paths cannot
  /// silently diverge arithmetically.
  ml::SgdOptions MakeSgdOptions() const {
    ml::SgdOptions options;
    options.epochs = epochs;
    options.batch_rows = batch_rows;
    options.seed = seed;
    return options;
  }
};

/// The pre-port SGD loop: shuffled contiguous batches, synchronous page
/// faults, manual trailing-window eviction. Kept verbatim as the bench
/// baseline so the engine port has a hand-rolled reference to beat.
SgdRun RunHandRolled(MappedDataset& dataset, la::ConstVectorView y,
                     const BenchParams& params) {
  const ml::SgdOptions sgd = params.MakeSgdOptions();
  const uint64_t row_bytes = dataset.cols() * sizeof(double);
  // Hand-rolled evictions bypass the engine, so count them here —
  // otherwise the bench table and JSON would show a baseline that appears
  // to do no eviction work.
  SgdRun run;
  // The final full-data pass must stay under the same budget as the
  // epochs (the engine config evicts on every pass), so hook a linear
  // trailing-cursor eviction onto the objective's full scans.
  uint64_t scan_cursor = 0;
  ml::ScanHooks hooks;
  hooks.before_pass = [&](size_t) { scan_cursor = 0; };
  hooks.after_chunk = [&](size_t, size_t end) {
    const uint64_t scanned = end * row_bytes;
    if (scanned <= params.budget_bytes) {
      return;
    }
    const uint64_t evict_end = scanned - params.budget_bytes;
    if (evict_end <= scan_cursor) {
      return;
    }
    if (dataset.mapping()
            .Evict(dataset.meta().features_offset + scan_cursor,
                   evict_end - scan_cursor)
            .ok()) {
      ++run.stats.evictions;
      run.stats.bytes_evicted += evict_end - scan_cursor;
    }
    scan_cursor = evict_end;
  };
  ml::LogisticRegressionObjective objective(dataset.features(), y, 1e-4,
                                            /*chunk_rows=*/0, hooks);
  const size_t n = objective.NumRows();
  la::RowChunker chunker(n, sgd.batch_rows);
  util::Rng rng(sgd.seed);

  run.weights = la::Vector(objective.Dimension());
  la::VectorView w = run.weights.View();
  la::Vector grad(w.size());
  std::deque<std::pair<uint64_t, uint64_t>> resident;  // (offset, length)
  uint64_t resident_bytes = 0;
  size_t step_index = 0;
  util::Stopwatch watch;
  for (size_t epoch = 0; epoch < sgd.epochs; ++epoch) {
    const exec::ChunkSchedule schedule =
        exec::ChunkSchedule::Shuffled(chunker.NumChunks(), rng.Next());
    for (size_t pos = 0; pos < schedule.num_chunks(); ++pos) {
      const la::RowChunker::Range range = chunker.Chunk(schedule.At(pos));
      grad.SetZero();
      const double scale =
          static_cast<double>(n) / static_cast<double>(range.size());
      objective.EvaluateChunk(range.begin, range.end, w, grad);
      const double lr =
          sgd.learning_rate /
          (1.0 + sgd.decay * static_cast<double>(step_index));
      la::Axpy(-lr * scale, grad, w);
      ++step_index;
      // Trailing-window eviction by hand. The engine's evict stage instead
      // pins a chunk prefix and evicts every other chunk at retire.
      resident.emplace_back(
          dataset.meta().features_offset + range.begin * row_bytes,
          range.size() * row_bytes);
      resident_bytes += resident.back().second;
      while (resident_bytes > params.budget_bytes && !resident.empty()) {
        if (dataset.mapping()
                .Evict(resident.front().first, resident.front().second)
                .ok()) {
          ++run.stats.evictions;
          run.stats.bytes_evicted += resident.front().second;
        }
        resident_bytes -= resident.front().second;
        resident.pop_front();
      }
    }
  }
  grad.SetZero();
  objective.EvaluateWithGradient(w, grad);  // final full-data pass
  run.seconds = watch.ElapsedSeconds();
  return run;
}

SgdRun RunEngine(MappedDataset& dataset, la::ConstVectorView y,
                 const BenchParams& params, const SgdConfig& config) {
  ml::LogisticRegressionObjective objective(dataset.features(), y, 1e-4);
  exec::MappedRegion region;
  region.mapping = &dataset.mapping();
  region.base_offset = dataset.meta().features_offset;
  region.row_bytes = dataset.cols() * sizeof(double);
  exec::PipelineOptions pipeline_options;
  pipeline_options.readahead_chunks = config.readahead;
  pipeline_options.num_workers = config.workers;
  pipeline_options.ram_budget_bytes = params.budget_bytes;
  pipeline_options.advice = io::Advice::kNormal;
  exec::ChunkPipeline pipeline(region, pipeline_options);
  objective.set_pipeline(&pipeline);
  const ml::SgdOptions sgd_options = params.MakeSgdOptions();

  SgdRun run;
  run.weights = la::Vector(objective.Dimension());
  util::Stopwatch watch;
  auto result = ml::Sgd(sgd_options).Minimize(&objective, run.weights.View());
  run.seconds = watch.ElapsedSeconds();
  run.stats = pipeline.stats();
  objective.set_pipeline(nullptr);
  if (!result.ok()) {
    std::fprintf(stderr, "SGD failed: %s\n",
                 result.status().ToString().c_str());
  }
  return run;
}

int Run(int argc, char** argv) {
  int64_t size_mb = 96;
  int64_t budget_percent = 25;
  int64_t epochs = 3;
  int64_t batch_rows = 512;
  int64_t readahead = 4;
  std::string dir = "/tmp";
  bool csv = false;
  std::string trace;
  util::FlagParser flags(
      "hand-rolled vs engine-driven shuffled SGD epochs under a RAM budget");
  flags.AddInt64("size_mb", &size_mb, "dataset size in MiB");
  flags.AddInt64("budget_percent", &budget_percent,
                 "RAM budget as percent of the dataset");
  flags.AddInt64("epochs", &epochs, "SGD epochs per config");
  flags.AddInt64("batch_rows", &batch_rows, "rows per minibatch");
  flags.AddInt64("readahead", &readahead,
                 "engine configuration readahead chunks");
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
  if (!ValidateBenchFlags(flags, argv[0], {{"size_mb", size_mb}, {"budget_percent", budget_percent}, {"epochs", epochs}, {"batch_rows", batch_rows}, {"readahead", readahead}},
                          {}, &trace)) {
    return 1;
  }

  PrintPreamble("sgd overlap: hand-rolled loop vs schedule-aware engine");
  TraceSession trace_session(trace);
  const std::string path = dir + "/m3_sgd_overlap.m3";
  if (auto st =
          EnsureDataset(path, ImagesForMb(static_cast<uint64_t>(size_mb)));
      !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  BenchParams params;
  params.budget_bytes = (static_cast<uint64_t>(size_mb) << 20) *
                        static_cast<uint64_t>(budget_percent) / 100;
  params.epochs = static_cast<size_t>(epochs);
  params.batch_rows = static_cast<size_t>(batch_rows);
  std::printf("budget: %s (%lld%% of data) — every epoch re-reads the "
              "evicted remainder through the mapping\n\n",
              util::HumanBytes(params.budget_bytes).c_str(),
              static_cast<long long>(budget_percent));

  auto dataset = MappedDataset::Open(path).ValueOrDie();
  const std::vector<double> labels = dataset.CopyLabels();
  const la::ConstVectorView y(labels.data(), labels.size());

  const std::vector<SgdConfig> configs = {
      {"handrolled", 0, 0},
      {"engine", static_cast<size_t>(readahead), 0},
      {"engine_w2", static_cast<size_t>(readahead), 2},
  };
  std::vector<SgdRun> runs;
  for (const SgdConfig& config : configs) {
    M3_IGNORE_STATUS(dataset.Advise(io::Advice::kNormal), "advisory madvise");
    // cold start: first epoch reads from storage
    M3_IGNORE_STATUS(dataset.EvictAll(), "best-effort cold-start evict");
    runs.push_back(config.readahead == 0
                       ? RunHandRolled(dataset, y, params)
                       : RunEngine(dataset, y, params, config));
  }

  util::TablePrinter table({"config", "epochs_s", "prefetches", "hits",
                            "stalls", "evicted"});
  JsonReporter reporter("sgd_overlap");
  for (size_t i = 0; i < configs.size(); ++i) {
    table.AddRow(
        {configs[i].name, util::StrFormat("%.3f", runs[i].seconds),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(
                             runs[i].stats.prefetches)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(
                             runs[i].stats.prefetch_hits)),
         util::StrFormat("%llu",
                         static_cast<unsigned long long>(runs[i].stats.stalls)),
         util::HumanBytes(runs[i].stats.bytes_evicted)});
    reporter.Add(configs[i].name, runs[i].seconds, runs[i].stats);
  }
  table.Print(stdout, csv);
  if (util::Status json = reporter.Write(dir); !json.ok()) {
    std::fprintf(stderr, "bench JSON not written: %s\n",
                 json.ToString().c_str());
  }

  // Same schedule, same arithmetic: every config must train the exact
  // same model bits regardless of engine or worker count.
  bool identical = true;
  for (size_t i = 1; i < runs.size(); ++i) {
    identical &= runs[i].weights.size() == runs[0].weights.size() &&
                 std::memcmp(runs[i].weights.data(), runs[0].weights.data(),
                             runs[0].weights.size() * sizeof(double)) == 0;
  }
  std::printf("\nweights bitwise identical across configs: %s\n",
              identical ? "yes" : "NO — determinism regression");

  const double improvement =
      runs[0].seconds > 0
          ? (runs[0].seconds - runs[1].seconds) / runs[0].seconds * 100.0
          : 0.0;
  std::printf("engine-driven shuffled SGD is %.1f%% %s than the "
              "hand-rolled loop (target: faster, with hits > stalls)\n",
              std::abs(improvement),
              improvement >= 0 ? "faster" : "slower");
  M3_IGNORE_STATUS(io::RemoveFile(path), "best-effort scratch cleanup");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace m3::bench

int main(int argc, char** argv) { return m3::bench::Run(argc, argv); }
