#ifndef M3_ML_KMEANS_H_
#define M3_ML_KMEANS_H_

#include <cstdint>
#include <vector>

#include "la/matrix.h"
#include "ml/objective.h"
#include "util/result.h"

namespace m3::ml {

/// \brief Options for Lloyd's k-means.
struct KMeansOptions {
  size_t k = 5;                   ///< paper's Fig. 1b uses 5 clusters
  size_t max_iterations = 10;     ///< paper's Fig. 1b uses 10 iterations
  /// Stop early when relative inertia improvement falls below this.
  double tolerance = 1e-6;
  /// kmeans++ seeding on a bounded sample (false = random rows).
  bool kmeanspp_init = true;
  /// Explicit initial centers (k x d), overriding seeding entirely. Not
  /// owned; must outlive Cluster(). Used to compare implementations (e.g.
  /// the simulated cluster vs the single machine) from identical starts.
  const la::Matrix* initial_centers = nullptr;
  /// Sample size used for kmeans++ seeding (bounded so init is one cheap
  /// partial scan even for out-of-core data).
  size_t init_sample = 4096;
  uint64_t seed = 42;
  size_t chunk_rows = 0;          ///< 0 = auto (~8 MiB chunks)
  ScanHooks hooks;
  /// Execution engine driving the per-iteration scans (prefetch/evict
  /// overlap + parallel chunk map-reduce). Not owned; nullptr = serial.
  exec::ChunkPipeline* pipeline = nullptr;
  /// Optional per-iteration observer: (iteration, inertia).
  std::function<void(size_t, double)> iteration_callback;
};

/// \brief k-means result.
struct KMeansResult {
  la::Matrix centers;                   ///< k x d
  std::vector<double> inertia_history;  ///< sum of squared distances per iter
  double inertia = 0;                   ///< final inertia
  size_t iterations = 0;
  bool converged = false;
};

/// \brief Lloyd's algorithm with kmeans++ seeding over matrix views.
///
/// Each iteration is one sequential chunked pass over the data (assignment
/// + accumulation fused), so the I/O profile per iteration matches the
/// logistic-regression gradient pass: stream the whole dataset once.
class KMeans {
 public:
  explicit KMeans(KMeansOptions options = KMeansOptions());

  /// Clusters the rows of `x`.
  util::Result<KMeansResult> Cluster(la::ConstMatrixView x) const;

  /// Assigns each row of `x` to its nearest center (for evaluation).
  static std::vector<uint32_t> Assign(la::ConstMatrixView x,
                                      la::ConstMatrixView centers);

  /// Produces initial centers exactly as Cluster() would (explicit >
  /// kmeans++ > random rows). Exposed so alternative drivers (e.g. the
  /// cluster simulator) can start from the identical state.
  static util::Result<la::Matrix> SeedCenters(la::ConstMatrixView x,
                                              const KMeansOptions& options);

  /// Index of the row of `centers` nearest to `point` (ties go to the
  /// lower index); stores the squared distance in `*dist2_out` when
  /// non-null. The one assignment rule of every k-means driver.
  static size_t NearestCenter(la::ConstVectorView point,
                              la::ConstMatrixView centers, double* dist2_out);

  const KMeansOptions& options() const { return options_; }

 private:
  KMeansOptions options_;
};

}  // namespace m3::ml

#endif  // M3_ML_KMEANS_H_
