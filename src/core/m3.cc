#include "core/m3.h"

namespace m3 {

using util::Result;

Result<io::MemoryMappedFile> MmapAllocDoubles(const std::string& file,
                                              uint64_t count) {
  return io::MemoryMappedFile::CreateAndMap(file, count * sizeof(double));
}

Result<ml::LogisticRegressionModel> TrainLogisticRegression(
    MappedDataset& dataset, ml::LogisticRegressionOptions options,
    ml::OptimizationResult* stats) {
  if (options.chunk_rows == 0) {
    options.chunk_rows = dataset.chunk_rows();
  }
  if (options.pipeline == nullptr) {
    options.pipeline = &dataset.pipeline();
  }
  ml::LogisticRegression trainer(options);
  return trainer.Train(dataset.features(), dataset.labels(), stats);
}

Result<ml::KMeansResult> TrainKMeans(MappedDataset& dataset,
                                     ml::KMeansOptions options) {
  if (options.chunk_rows == 0) {
    options.chunk_rows = dataset.chunk_rows();
  }
  if (options.pipeline == nullptr) {
    options.pipeline = &dataset.pipeline();
  }
  ml::KMeans kmeans(options);
  return kmeans.Cluster(dataset.features());
}

ml::LbfgsOptions PaperLbfgsOptions() {
  ml::LbfgsOptions options;
  options.max_iterations = 10;   // "10 iterations of L-BFGS"
  options.gradient_tolerance = 0;  // run the full budget, like the bench
  options.objective_tolerance = 0;
  return options;
}

ml::KMeansOptions PaperKMeansOptions() {
  ml::KMeansOptions options;
  options.k = 5;                // "5 clusters"
  options.max_iterations = 10;  // "10 iterations"
  options.tolerance = 0;        // run the full budget
  return options;
}

}  // namespace m3
