// Out-of-core logistic regression: the paper's headline scenario.
//
// Generates a dataset, maps it under an emulated RAM budget smaller than
// the data, and brackets training with process resource samples to report
// CPU utilization. On the paper's hardware this is the regime where "disk
// I/O was 100% utilized while CPU was only utilized at around 13%".
//
//   out_of_core_logreg --images=40000 --budget_mb=32

#include <cstdio>

#include "core/m3.h"
#include "data/dataset.h"
#include "io/io_stats.h"
#include "io/platform.h"
#include "ml/metrics.h"
#include "util/flags.h"
#include "util/format.h"
#include "util/sys_info.h"

namespace {

int Run(int argc, char** argv) {
  int64_t images = 20000;
  int64_t budget_mb = 32;
  std::string path = "/tmp/m3_ooc.m3";
  bool keep = false;
  m3::util::FlagParser flags(
      "Out-of-core logistic regression under an emulated RAM budget");
  flags.AddInt64("images", &images, "digit images to generate");
  flags.AddInt64("budget_mb", &budget_mb,
                 "emulated RAM budget for the mapped features (MiB)");
  flags.AddString("path", &path, "dataset file");
  flags.AddBool("keep", &keep, "keep the dataset file afterwards");
  if (auto st = flags.Parse(argc, argv); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) {
    return 0;
  }

  if (auto st = m3::data::GenerateInfimnistDataset(
          path, static_cast<uint64_t>(images), 2016, /*binary_labels=*/true);
      !st.ok()) {
    std::fprintf(stderr, "generate: %s\n", st.ToString().c_str());
    return 1;
  }

  m3::M3Options options;
  options.ram_budget_bytes = static_cast<uint64_t>(budget_mb) << 20;
  auto dataset = m3::MappedDataset::Open(path, options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "open: %s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const double data_mb =
      static_cast<double>(dataset.value().feature_bytes()) / (1 << 20);
  std::printf("Dataset: %.1f MiB of features; emulated RAM: %lld MiB (%s)\n",
              data_mb, static_cast<long long>(budget_mb),
              data_mb > static_cast<double>(budget_mb) ? "OUT-OF-CORE"
                                                       : "fits in budget");
  std::printf("Platform: %s\n",
              m3::io::GetPlatformCapabilities().ToString().c_str());

  // Cold cache, like the paper's runs.
  M3_IGNORE_STATUS(dataset.value().EvictAll(), "best-effort cold-start evict");

  m3::ml::LogisticRegressionOptions train_options;
  train_options.lbfgs = m3::PaperLbfgsOptions();
  m3::ml::OptimizationResult stats;
  const m3::io::ResourceSample before = m3::io::ResourceSample::Now();
  auto model =
      m3::TrainLogisticRegression(dataset.value(), train_options, &stats);
  const m3::io::ResourceSample usage = m3::io::ResourceSample::Now() - before;

  if (!model.ok()) {
    std::fprintf(stderr, "train: %s\n", model.status().ToString().c_str());
    return 1;
  }
  std::printf("\n10-iteration L-BFGS run: %s (%zu full data passes)\n",
              m3::util::HumanDuration(usage.wall_seconds).c_str(),
              stats.function_evaluations);
  const size_t cpus = m3::util::NumCpus();
  std::printf("Resource profile: CPU utilization %.0f%% of %zu cores (%s)\n",
              usage.CpuUtilization(cpus) * 100, cpus,
              usage.ToString().c_str());
  if (options.ram_budget_bytes > 0) {
    const m3::exec::PipelineStats engine = dataset.value().pipeline().stats();
    std::printf("RAM budget: %llu evictions, %s re-read candidates across "
                "%llu passes\n",
                static_cast<unsigned long long>(engine.evictions),
                m3::util::HumanBytes(engine.bytes_evicted).c_str(),
                static_cast<unsigned long long>(engine.passes));
  }

  auto features = dataset.value().features();
  std::vector<double> truth = dataset.value().CopyLabels();
  std::vector<double> predictions(truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    predictions[i] = model.value().Predict(features.Row(i));
  }
  std::printf("Accuracy: %.2f%%\n",
              100.0 * m3::ml::Accuracy(predictions, truth));

  if (!keep) {
    M3_IGNORE_STATUS(m3::io::RemoveFile(path), "best-effort scratch cleanup");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
