// Sparse-vs-dense conformance: on a densified copy of the same data,
// chunked identically, the sparse LR and softmax objectives must agree
// with their dense twins to the last ulp — loss, gradient, and the
// trained model. The sparse kernels perform the dense kernels' additions
// minus the zero terms, into the same lanes, and the objectives share the
// partition granularity and merge order, so "agree" here means bitwise.
//
// Independently, the sparse path must keep the engine's determinism
// guarantee on its own: MapReduceChunks over an mmap'd CSR dataset is
// bitwise identical at every worker count under every prefetch backend
// (mirroring prefetch_backend_test.cc's dense version).

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "core/sparse_mapped_dataset.h"
#include "data/sparse_dataset.h"
#include "exec/chunk_map_reduce.h"
#include "exec/chunk_pipeline.h"
#include "io/prefetch_backend.h"
#include "la/blas.h"
#include "la/sparse.h"
#include "ml/logistic_regression.h"
#include "ml/sparse_logistic_regression.h"
#include "util/random.h"

namespace m3::ml {
namespace {

std::vector<io::PrefetchBackendKind> AllBackendKinds() {
  return {io::PrefetchBackendKind::kMadvise, io::PrefetchBackendKind::kPread};
}

bool BitwiseEqual(la::ConstVectorView a, la::ConstVectorView b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class SparseConformanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_sparse_conformance_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

/// A random ragged learnable dataset held in memory, with both views.
struct TwinData {
  std::vector<uint64_t> row_ptr;
  std::vector<uint32_t> col_idx;
  std::vector<double> values;
  std::vector<double> labels;
  la::Matrix dense;
  size_t rows = 0;
  size_t cols = 0;

  la::CsrView Csr() const {
    return la::CsrView(row_ptr.data(), col_idx.data(), values.data(), rows,
                       cols);
  }
  la::ConstVectorView Labels() const {
    return la::ConstVectorView(labels.data(), labels.size());
  }
};

TwinData MakeTwin(size_t rows, size_t cols, size_t max_nnz, size_t classes,
                  uint64_t seed) {
  util::Rng rng(seed);
  TwinData data;
  data.rows = rows;
  data.cols = cols;
  data.row_ptr.push_back(0);
  std::vector<double> plane(cols);
  for (size_t c = 0; c < cols; ++c) {
    plane[c] = rng.Uniform(-1.0, 1.0);
  }
  for (size_t r = 0; r < rows; ++r) {
    const size_t nnz =
        static_cast<size_t>(rng.UniformInt(static_cast<uint64_t>(max_nnz + 1)));
    std::vector<uint32_t> picked;
    while (picked.size() < nnz) {
      const uint32_t c =
          static_cast<uint32_t>(rng.UniformInt(static_cast<uint64_t>(cols)));
      bool dup = false;
      for (const uint32_t existing : picked) {
        dup = dup || existing == c;
      }
      if (!dup) {
        picked.push_back(c);
      }
    }
    std::sort(picked.begin(), picked.end());
    double margin = 0;
    for (const uint32_t c : picked) {
      double v = rng.Uniform(-1.0, 1.0);
      if (v == 0.0) {
        v = 0.5;
      }
      data.col_idx.push_back(c);
      data.values.push_back(v);
      margin += v * plane[c];
    }
    data.row_ptr.push_back(data.col_idx.size());
    if (classes <= 2) {
      data.labels.push_back(margin > 0 ? 1.0 : 0.0);
    } else {
      size_t label = 0;
      if (margin > 0.3) {
        label = 2;
      } else if (margin > -0.3) {
        label = 1;
      }
      data.labels.push_back(static_cast<double>(label));
    }
  }
  data.dense = la::Densify(data.Csr());
  return data;
}

// ---------------------------------------------------------------------------
// Objective-level conformance (heap data, uniform chunking on both sides)
// ---------------------------------------------------------------------------

TEST(SparseObjectiveConformance, LogisticLossAndGradientBitwiseEqualDense) {
  const TwinData data = MakeTwin(300, 48, 14, 2, /*seed=*/31);
  const size_t kChunkRows = 64;
  LogisticRegressionObjective dense(data.dense.View(), data.Labels(), 1e-4,
                                    kChunkRows);
  SparseLogisticRegressionObjective sparse(data.Csr(), data.Labels(), 1e-4,
                                           kChunkRows);
  ASSERT_EQ(dense.Dimension(), sparse.Dimension());
  util::Rng rng(5);
  for (int trial = 0; trial < 4; ++trial) {
    la::Vector w(dense.Dimension());
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = rng.Uniform(-0.5, 0.5);
    }
    la::Vector dense_grad(dense.Dimension());
    la::Vector sparse_grad(sparse.Dimension());
    const double dense_loss = dense.EvaluateWithGradient(w, dense_grad);
    const double sparse_loss = sparse.EvaluateWithGradient(w, sparse_grad);
    EXPECT_EQ(std::memcmp(&dense_loss, &sparse_loss, sizeof(double)), 0)
        << "trial " << trial << ": " << dense_loss << " vs " << sparse_loss;
    EXPECT_TRUE(BitwiseEqual(dense_grad, sparse_grad)) << "trial " << trial;
  }
}

TEST(SparseObjectiveConformance, SoftmaxLossAndGradientBitwiseEqualDense) {
  const TwinData data = MakeTwin(240, 32, 10, 3, /*seed=*/43);
  const size_t kChunkRows = 50;
  SoftmaxRegressionObjective dense(data.dense.View(), data.Labels(), 3, 1e-4,
                                   kChunkRows);
  SparseSoftmaxRegressionObjective sparse(data.Csr(), data.Labels(), 3, 1e-4,
                                          kChunkRows);
  ASSERT_EQ(dense.Dimension(), sparse.Dimension());
  util::Rng rng(6);
  for (int trial = 0; trial < 4; ++trial) {
    la::Vector w(dense.Dimension());
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = rng.Uniform(-0.5, 0.5);
    }
    la::Vector dense_grad(dense.Dimension());
    la::Vector sparse_grad(sparse.Dimension());
    const double dense_loss = dense.EvaluateWithGradient(w, dense_grad);
    const double sparse_loss = sparse.EvaluateWithGradient(w, sparse_grad);
    EXPECT_EQ(std::memcmp(&dense_loss, &sparse_loss, sizeof(double)), 0)
        << "trial " << trial;
    EXPECT_TRUE(BitwiseEqual(dense_grad, sparse_grad)) << "trial " << trial;
  }
}

TEST(SparseObjectiveConformance, TrainedModelsBitwiseEqualDense) {
  const TwinData data = MakeTwin(400, 30, 8, 2, /*seed=*/77);
  const size_t kChunkRows = 128;
  LogisticRegressionOptions dense_options;
  dense_options.chunk_rows = kChunkRows;
  dense_options.lbfgs.max_iterations = 25;
  auto dense_model = LogisticRegression(dense_options)
                         .Train(data.dense.View(), data.Labels());
  ASSERT_TRUE(dense_model.ok()) << dense_model.status().ToString();

  SparseLogisticRegressionOptions sparse_options;
  sparse_options.chunk_rows = kChunkRows;
  sparse_options.lbfgs.max_iterations = 25;
  auto sparse_model = SparseLogisticRegression(sparse_options)
                          .Train(data.Csr(), data.Labels());
  ASSERT_TRUE(sparse_model.ok()) << sparse_model.status().ToString();

  EXPECT_TRUE(BitwiseEqual(dense_model.value().weights,
                           sparse_model.value().weights));
  EXPECT_EQ(std::memcmp(&dense_model.value().intercept,
                        &sparse_model.value().intercept, sizeof(double)),
            0);
}

// Both trainers reach the same input checks: each malformed input is
// rejected as InvalidArgument on the dense view and on the CSR view.
TEST(SparseObjectiveConformance, TrainersRejectTheSameInputs) {
  const TwinData data = MakeTwin(4, 3, 2, 2, /*seed=*/3);
  const std::vector<uint64_t> empty_row_ptr(5, 0);
  struct BadInput {
    const char* name;
    la::ConstMatrixView dense;
    la::CsrView csr;
    std::vector<double> labels;
  };
  const std::vector<BadInput> cases = {
      {"label outside {0, 1}", data.dense.View(), data.Csr(), {0, 1, 2, 1}},
      {"label count != rows", data.dense.View(), data.Csr(), {0, 1, 1}},
      {"zero rows", data.dense.View().RowRange(0, 0),
       la::CsrView(empty_row_ptr.data(), nullptr, nullptr, 0, 3), {}},
      {"zero columns", la::ConstMatrixView(data.dense.data(), 4, 0),
       la::CsrView(empty_row_ptr.data(), nullptr, nullptr, 4, 0),
       {0, 1, 1, 0}},
  };
  for (const BadInput& input : cases) {
    SCOPED_TRACE(input.name);
    const la::ConstVectorView y(input.labels.data(), input.labels.size());
    const auto dense = LogisticRegression().Train(input.dense, y);
    const auto sparse = SparseLogisticRegression().Train(input.csr, y);
    ASSERT_FALSE(dense.ok());
    ASSERT_FALSE(sparse.ok());
    EXPECT_EQ(dense.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_EQ(sparse.status().code(), util::StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Engine-level determinism on mmap'd CSR data (nnz-budget chunking)
// ---------------------------------------------------------------------------

TEST_F(SparseConformanceTest, MapReduceBitwiseIdenticalAcrossWorkersAndBackends) {
  const std::string path = dir_ + "/engine.m3s";
  data::SparseSyntheticOptions gen;
  gen.rows = 4096;
  gen.cols = 256;
  gen.nnz_per_row = 12;
  gen.seed = 2016;
  ASSERT_TRUE(data::GenerateSparseDataset(path, gen).ok());

  auto run = [&](io::PrefetchBackendKind kind, size_t workers) {
    M3Options options;
    options.readahead_chunks = 2;
    options.pipeline_workers = workers;
    options.prefetch_backend = kind;
    // A small payload budget so the pass has many ragged chunks.
    options.chunk_nnz_bytes = 8 << 10;
    auto mapped = MappedSparseDataset::Open(path, options);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    const la::CsrView csr = mapped.value().csr();
    const la::SparseChunker chunker = mapped.value().MakeChunker();
    EXPECT_GT(chunker.NumChunks(), 8u);
    double sum = 0;
    exec::MapReduceChunks<double>(
        &mapped.value().pipeline(), chunker,
        [&](size_t, size_t row_begin, size_t row_end) {
          double partial = 0;
          for (size_t r = row_begin; r < row_end; ++r) {
            const la::SparseRowView row = csr.Row(r);
            for (size_t k = 0; k < row.nnz; ++k) {
              partial += row.values[k] * 1.000000119;
            }
          }
          return partial;
        },
        [&](size_t, double&& partial) { sum += partial; });
    return sum;
  };

  const double reference = run(io::PrefetchBackendKind::kMadvise, 0);
  for (const io::PrefetchBackendKind kind : AllBackendKinds()) {
    for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string(io::PrefetchBackendKindToString(kind)) +
                   " workers=" + std::to_string(workers));
      const double sum = run(kind, workers);
      EXPECT_EQ(std::memcmp(&sum, &reference, sizeof(sum)), 0)
          << sum << " vs " << reference;
    }
  }
}

TEST_F(SparseConformanceTest, TrainingBitwiseIdenticalAcrossWorkersAndBackends) {
  const std::string path = dir_ + "/train.m3s";
  data::SparseSyntheticOptions gen;
  gen.rows = 2048;
  gen.cols = 64;
  gen.nnz_per_row = 8;
  gen.seed = 11;
  ASSERT_TRUE(data::GenerateSparseDataset(path, gen).ok());

  auto train = [&](io::PrefetchBackendKind kind, size_t workers) {
    M3Options options;
    options.readahead_chunks = 2;
    options.pipeline_workers = workers;
    options.prefetch_backend = kind;
    options.chunk_nnz_bytes = 16 << 10;
    auto mapped = MappedSparseDataset::Open(path, options);
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    const std::vector<double> labels = mapped.value().CopyLabels();
    SparseLogisticRegressionOptions train_options;
    train_options.chunk_nnz_bytes = options.chunk_nnz_bytes;
    train_options.lbfgs.max_iterations = 15;
    train_options.pipeline = &mapped.value().pipeline();
    auto model = SparseLogisticRegression(train_options)
                     .Train(mapped.value().csr(),
                            la::ConstVectorView(labels.data(), labels.size()));
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(model).ValueOrDie();
  };

  const LogisticRegressionModel reference =
      train(io::PrefetchBackendKind::kMadvise, 0);
  for (const io::PrefetchBackendKind kind : AllBackendKinds()) {
    for (const size_t workers : {size_t{0}, size_t{2}, size_t{4}}) {
      SCOPED_TRACE(std::string(io::PrefetchBackendKindToString(kind)) +
                   " workers=" + std::to_string(workers));
      const LogisticRegressionModel model = train(kind, workers);
      EXPECT_TRUE(BitwiseEqual(model.weights, reference.weights));
      EXPECT_EQ(std::memcmp(&model.intercept, &reference.intercept,
                            sizeof(double)),
                0);
    }
  }
}

// The two chunking modes must agree with each other in value-determinism
// terms too: nnz-budget chunking changes the FP grouping (so bits may
// differ from uniform chunking), but each mode is itself deterministic.
TEST(SparseObjectiveConformance, NnzBudgetModeIsSelfDeterministic) {
  const TwinData data = MakeTwin(500, 40, 16, 2, /*seed=*/13);
  SparseLogisticRegressionObjective a(data.Csr(), data.Labels(), 1e-4,
                                      /*chunk_rows=*/0,
                                      /*chunk_nnz_bytes=*/4 << 10);
  SparseLogisticRegressionObjective b(data.Csr(), data.Labels(), 1e-4,
                                      /*chunk_rows=*/0,
                                      /*chunk_nnz_bytes=*/4 << 10);
  la::Vector w(a.Dimension());
  for (size_t i = 0; i < w.size(); ++i) {
    w[i] = 0.01 * static_cast<double>(i % 17);
  }
  la::Vector grad_a(a.Dimension());
  la::Vector grad_b(b.Dimension());
  const double loss_a = a.EvaluateWithGradient(w, grad_a);
  const double loss_b = b.EvaluateWithGradient(w, grad_b);
  EXPECT_EQ(std::memcmp(&loss_a, &loss_b, sizeof(double)), 0);
  EXPECT_TRUE(BitwiseEqual(grad_a, grad_b));
}

}  // namespace
}  // namespace m3::ml
