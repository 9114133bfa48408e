#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "exec/chunk_map_reduce.h"
#include "la/blas.h"
#include "la/chunker.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace m3::ml {

using util::Result;
using util::Status;

namespace {

/// kmeans++ seeding (Arthur & Vassilvitskii) on `sample` rows.
la::Matrix KMeansPlusPlus(la::ConstMatrixView x,
                          const std::vector<size_t>& sample, size_t k,
                          util::Rng* rng) {
  const size_t d = x.cols();
  la::Matrix centers(k, d);
  // First center: uniform over the sample.
  const size_t first = sample[rng->UniformInt(uint64_t{sample.size()})];
  la::Copy(x.Row(first), centers.Row(0));
  std::vector<double> min_dist2(sample.size(),
                                std::numeric_limits<double>::max());
  for (size_t c = 1; c < k; ++c) {
    // Update distances against the last chosen center, accumulate total.
    double total = 0;
    for (size_t i = 0; i < sample.size(); ++i) {
      const double dist2 =
          la::SquaredDistance(x.Row(sample[i]), centers.Row(c - 1));
      min_dist2[i] = std::min(min_dist2[i], dist2);
      total += min_dist2[i];
    }
    // Sample proportional to D^2 (fall back to uniform if degenerate).
    size_t chosen = sample.size() - 1;
    if (total > 0) {
      double threshold = rng->Uniform() * total;
      for (size_t i = 0; i < sample.size(); ++i) {
        threshold -= min_dist2[i];
        if (threshold <= 0) {
          chosen = i;
          break;
        }
      }
    } else {
      chosen = static_cast<size_t>(rng->UniformInt(uint64_t{sample.size()}));
    }
    la::Copy(x.Row(sample[chosen]), centers.Row(c));
  }
  return centers;
}

/// One chunk's assignment partial: per-cluster sums/counts + inertia.
struct AssignPartial {
  la::Matrix sums;
  std::vector<uint64_t> counts;
  double inertia = 0;
};

}  // namespace

KMeans::KMeans(KMeansOptions options) : options_(std::move(options)) {}

size_t KMeans::NearestCenter(la::ConstVectorView point,
                             la::ConstMatrixView centers, double* dist2_out) {
  size_t best = 0;
  double best_dist2 = la::SquaredDistance(point, centers.Row(0));
  for (size_t c = 1; c < centers.rows(); ++c) {
    const double dist2 = la::SquaredDistance(point, centers.Row(c));
    if (dist2 < best_dist2) {
      best_dist2 = dist2;
      best = c;
    }
  }
  if (dist2_out != nullptr) {
    *dist2_out = best_dist2;
  }
  return best;
}

std::vector<uint32_t> KMeans::Assign(la::ConstMatrixView x,
                                     la::ConstMatrixView centers) {
  std::vector<uint32_t> assignment(x.rows());
  util::ParallelFor(0, x.rows(), 512, [&](size_t lo, size_t hi) {
    for (size_t r = lo; r < hi; ++r) {
      assignment[r] =
          static_cast<uint32_t>(NearestCenter(x.Row(r), centers, nullptr));
    }
  });
  return assignment;
}

util::Result<la::Matrix> KMeans::SeedCenters(la::ConstMatrixView x,
                                             const KMeansOptions& options) {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t k = options.k;
  if (n == 0 || d == 0) {
    return Status::InvalidArgument("empty data");
  }
  if (k == 0 || k > n) {
    return Status::InvalidArgument("k must be in [1, rows]");
  }
  if (options.initial_centers != nullptr) {
    if (options.initial_centers->rows() != k ||
        options.initial_centers->cols() != d) {
      return Status::InvalidArgument("initial_centers must be k x d");
    }
    return *options.initial_centers;
  }
  util::Rng rng(options.seed);
  // Bounded sample of row indices for seeding (evenly spaced, then
  // shuffled: touches at most init_sample rows of the mapped file).
  const size_t sample_size = std::min(n, std::max(k, options.init_sample));
  std::vector<size_t> sample(sample_size);
  const double step =
      static_cast<double>(n) / static_cast<double>(sample_size);
  for (size_t i = 0; i < sample_size; ++i) {
    sample[i] = std::min(n - 1, static_cast<size_t>(i * step));
  }
  if (options.kmeanspp_init) {
    return KMeansPlusPlus(x, sample, k, &rng);
  }
  rng.Shuffle(&sample);
  la::Matrix centers(k, d);
  for (size_t c = 0; c < k; ++c) {
    la::Copy(x.Row(sample[c]), centers.Row(c));
  }
  return centers;
}

Result<KMeansResult> KMeans::Cluster(la::ConstMatrixView x) const {
  const size_t n = x.rows();
  const size_t d = x.cols();
  const size_t k = options_.k;
  if (options_.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }

  util::Rng rng(options_.seed);
  // Bounded sample reused for empty-cluster reseeding.
  const size_t sample_size =
      std::min(std::max<size_t>(n, 1),
               std::max(std::max<size_t>(k, 1), options_.init_sample));
  std::vector<size_t> sample(sample_size);
  if (n > 0) {
    const double step =
        static_cast<double>(n) / static_cast<double>(sample_size);
    for (size_t i = 0; i < sample_size; ++i) {
      sample[i] = std::min(n - 1, static_cast<size_t>(i * step));
    }
  }

  KMeansResult result;
  M3_ASSIGN_OR_RETURN(result.centers, SeedCenters(x, options_));

  const size_t chunk_rows = la::AutoChunkRows(d, options_.chunk_rows);
  la::RowChunker chunker(n, chunk_rows);
  la::Matrix sums(k, d);
  std::vector<uint64_t> counts(k);
  double previous_inertia = std::numeric_limits<double>::max();

  size_t pass = 0;
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.hooks.before_pass) {
      options_.hooks.before_pass(pass);
    }
    ++pass;
    sums.SetZero();
    std::fill(counts.begin(), counts.end(), 0);
    double inertia = 0;

    // Assignment + accumulation pass through the execution engine: each
    // chunk maps to per-cluster partial sums, merged in chunk order so the
    // result is bitwise identical at any engine worker count.
    exec::MapReduceChunks<AssignPartial>(
        options_.pipeline, chunker,
        [&](size_t, size_t row_begin, size_t row_end) {
          AssignPartial partial;
          partial.sums = la::Matrix(k, d);
          partial.counts.assign(k, 0);
          // Per-sub-chunk partials merged in fixed order (deterministic FP).
          const auto ranges = util::PartitionRange(
              row_begin, row_end, 512, util::GlobalThreadPool().num_threads());
          std::vector<la::Matrix> local_sums(ranges.size(), la::Matrix(k, d));
          std::vector<std::vector<uint64_t>> local_counts(
              ranges.size(), std::vector<uint64_t>(k, 0));
          std::vector<double> local_inertia(ranges.size(), 0.0);
          util::ParallelForIndexed(row_begin, row_end, 512,
                                   [&](size_t chunk, size_t lo, size_t hi) {
            for (size_t r = lo; r < hi; ++r) {
              double dist2 = 0;
              const size_t c = NearestCenter(x.Row(r), result.centers, &dist2);
              local_inertia[chunk] += dist2;
              la::Axpy(1.0, x.Row(r), local_sums[chunk].Row(c));
              ++local_counts[chunk][c];
            }
          });
          for (size_t s = 0; s < ranges.size(); ++s) {
            partial.inertia += local_inertia[s];
            for (size_t c = 0; c < k; ++c) {
              if (local_counts[s][c] > 0) {
                la::Axpy(1.0, local_sums[s].Row(c), partial.sums.Row(c));
                partial.counts[c] += local_counts[s][c];
              }
            }
          }
          return partial;
        },
        [&](size_t ci, AssignPartial&& partial) {
          inertia += partial.inertia;
          for (size_t c = 0; c < k; ++c) {
            if (partial.counts[c] > 0) {
              la::Axpy(1.0, partial.sums.Row(c), sums.Row(c));
              counts[c] += partial.counts[c];
            }
          }
          if (options_.hooks.after_chunk) {
            const la::RowChunker::Range range = chunker.Chunk(ci);
            options_.hooks.after_chunk(range.begin, range.end);
          }
        });

    // Recompute centers; reseed any emptied cluster from the sample.
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        la::Copy(sums.Row(c), result.centers.Row(c));
        la::Scal(1.0 / static_cast<double>(counts[c]),
                 result.centers.Row(c));
      } else {
        const size_t row = sample[rng.UniformInt(uint64_t{sample.size()})];
        la::Copy(x.Row(row), result.centers.Row(c));
      }
    }

    result.inertia = inertia;
    result.inertia_history.push_back(inertia);
    ++result.iterations;
    if (options_.iteration_callback) {
      options_.iteration_callback(iter, inertia);
    }
    const double improvement =
        (previous_inertia - inertia) / std::max(1.0, previous_inertia);
    if (iter > 0 && improvement >= 0 && improvement < options_.tolerance) {
      result.converged = true;
      break;
    }
    previous_inertia = inertia;
  }
  return result;
}

}  // namespace m3::ml
