// Line searches on cached margins. Once a line search's opening probe
// fails, Lbfgs asks a data-backed objective to restrict itself to the
// line w0 + alpha d (ChunkedObjective::PrepareLine): one pass stores each
// row's margins, and EvalLine answers the line's later probes from them.
// On dense and CSR rows these tests pin that
//   - EvalLine agrees with a pass to rounding;
//   - the margin search accepts the same steps as a search that spends a
//     pass on every probe, so the trained bits do not change;
//   - the margin pass is an ordinary pass for the hooks and the counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "data/infimnist.h"
#include "exec/chunk_pipeline.h"
#include "la/blas.h"
#include "la/sparse.h"
#include "ml/lbfgs.h"
#include "ml/logistic_regression.h"
#include "util/random.h"

namespace m3::ml {
namespace {

constexpr size_t kRows = 300;
constexpr size_t kChunkRows = 64;
constexpr uint64_t kChunkNnzBytes = 16 << 10;

/// Binary digits (class >= 5) with raw [0, 255] pixels, held both dense
/// and as CSR. As on the paper's data, L-BFGS's opening probe of 1/||g||
/// along -g overshoots, so the first line search bisects.
struct Digits {
  la::Matrix dense;
  la::Vector labels;
  std::vector<uint64_t> row_ptr{0};
  std::vector<uint32_t> col_idx;
  std::vector<double> values;

  la::CsrView Csr() const {
    return la::CsrView(row_ptr.data(), col_idx.data(), values.data(),
                       dense.rows(), dense.cols());
  }
};

Digits MakeDigits() {
  Digits digits;
  digits.dense = la::Matrix(kRows, data::kImageFeatures);
  digits.labels = la::Vector(kRows);
  const data::InfiMnistGenerator generator(/*seed=*/5);
  for (size_t r = 0; r < kRows; ++r) {
    la::VectorView row = digits.dense.Row(r);
    digits.labels[r] = generator.GenerateDoubles(r, row.data()) >= 5 ? 1 : 0;
    for (size_t c = 0; c < row.size(); ++c) {
      if (row[c] != 0.0) {
        digits.col_idx.push_back(static_cast<uint32_t>(c));
        digits.values.push_back(row[c]);
      }
    }
    digits.row_ptr.push_back(digits.col_idx.size());
  }
  return digits;
}

const Digits& TestDigits() {
  static const Digits digits = MakeDigits();
  return digits;
}

enum class RowKind { kDense, kCsr };

/// The logistic objective over TestDigits(): dense rows in uniform row
/// chunks, CSR rows in ragged nnz-budget chunks.
std::unique_ptr<ChunkedObjective> MakeObjective(RowKind kind, double l2,
                                                ScanHooks hooks = {}) {
  const Digits& digits = TestDigits();
  if (kind == RowKind::kDense) {
    return std::make_unique<LogisticRegressionObjective>(
        digits.dense.View(), digits.labels, l2, kChunkRows,
        std::move(hooks));
  }
  return std::make_unique<SparseLogisticRegressionObjective>(
      digits.Csr(), digits.labels, l2, /*chunk_rows=*/0, kChunkNnzBytes,
      std::move(hooks));
}

/// Forwards every pass to another objective but keeps ChunkedObjective's
/// default PrepareLine, so Lbfgs spends a pass on every probe: the search
/// the margin search must reproduce.
class PerProbePasses final : public ChunkedObjective {
 public:
  explicit PerProbePasses(ChunkedObjective* inner)
      : ChunkedObjective(ScanHooks()), inner_(inner) {}

  size_t Dimension() const override { return inner_->Dimension(); }
  size_t NumRows() const override { return inner_->NumRows(); }
  double EvaluateChunk(size_t begin, size_t end, la::ConstVectorView w,
                       la::VectorView grad) override {
    return inner_->EvaluateChunk(begin, end, w, grad);
  }
  double EvaluateWithGradient(la::ConstVectorView w,
                              la::VectorView grad) override {
    return inner_->EvaluateWithGradient(w, grad);
  }

 protected:
  // Unused: every pass is the inner objective's.
  std::unique_ptr<la::Chunker> MakeChunker() const override {
    return nullptr;
  }
  double ApplyRegularization(la::ConstVectorView,
                             la::VectorView) override {
    return 0;
  }

 private:
  ChunkedObjective* inner_;
};

/// The paper's configuration: ten iterations, no early stop.
LbfgsOptions PaperOptions() {
  LbfgsOptions options;
  options.max_iterations = 10;
  options.gradient_tolerance = 0;
  options.objective_tolerance = 0;
  return options;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool BitwiseEqual(la::ConstVectorView a, la::ConstVectorView b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class LineSearchTest : public ::testing::TestWithParam<RowKind> {};

TEST_P(LineSearchTest, EvalLineMatchesAPass) {
  for (const double l2 : {0.0, 1e-2}) {
    SCOPED_TRACE("l2 " + std::to_string(l2));
    const std::unique_ptr<ChunkedObjective> objective =
        MakeObjective(GetParam(), l2);
    const size_t n = objective->Dimension();
    // L-BFGS's first line: steepest descent from a point near zero.
    util::Rng rng(11);
    la::Vector w0(n), d(n);
    for (size_t i = 0; i < n; ++i) {
      w0[i] = rng.Uniform(-1e-3, 1e-3);
    }
    objective->EvaluateWithGradient(w0, d);
    la::Scal(-1.0, d);
    ASSERT_TRUE(objective->PrepareLine(w0, d));
    const double opening = 1.0 / la::Nrm2(d);
    for (const double alpha :
         {0.0, opening / 1024, opening / 32, opening / 4, opening}) {
      la::Vector w(n), grad(n);
      la::Copy(w0, w);
      la::Axpy(alpha, d, w);
      const double f = objective->EvaluateWithGradient(w, grad);
      const double slope = la::Dot(grad, d);
      double dphi = 0;
      const double phi = objective->EvalLine(alpha, &dphi);
      EXPECT_NEAR(phi, f, 1e-12 * std::fabs(f)) << "alpha " << alpha;
      EXPECT_NEAR(dphi, slope, 1e-12 * std::fabs(slope)) << "alpha " << alpha;
    }
  }
}

TEST_P(LineSearchTest, MarginSearchAcceptsTheSameSteps) {
  for (const double l2 : {0.0, 1e-6, 1e-2}) {
    SCOPED_TRACE("l2 " + std::to_string(l2));
    const std::unique_ptr<ChunkedObjective> objective =
        MakeObjective(GetParam(), l2);
    la::Vector w(objective->Dimension());
    const OptimizationResult margins =
        Lbfgs(PaperOptions()).Minimize(objective.get(), w).ValueOrDie();

    const std::unique_ptr<ChunkedObjective> inner =
        MakeObjective(GetParam(), l2);
    PerProbePasses per_probe(inner.get());
    la::Vector w_per_probe(per_probe.Dimension());
    const OptimizationResult passes =
        Lbfgs(PaperOptions()).Minimize(&per_probe, w_per_probe).ValueOrDie();

    // The data make the first line bisect, so the margins saved passes...
    EXPECT_LT(margins.function_evaluations, passes.function_evaluations);
    // ...and the weights, the intercept (the last parameter) and every
    // iterate's objective are the per-probe search's bits.
    EXPECT_TRUE(BitwiseEqual(w, w_per_probe));
    EXPECT_TRUE(
        BitwiseEqual(margins.objective_history, passes.objective_history));
    EXPECT_EQ(margins.iterations, passes.iterations);
  }
}

TEST_P(LineSearchTest, MarginPassIsAnOrdinaryPass) {
  std::vector<size_t> pass_indices;
  std::vector<std::pair<size_t, size_t>> chunks;
  ScanHooks hooks;
  hooks.before_pass = [&](size_t pass) { pass_indices.push_back(pass); };
  hooks.after_chunk = [&](size_t begin, size_t end) {
    chunks.emplace_back(begin, end);
  };
  const std::unique_ptr<ChunkedObjective> objective =
      MakeObjective(GetParam(), 1e-6, hooks);
  exec::PipelineOptions options;
  options.num_workers = 2;
  exec::ChunkPipeline pipeline(options);
  objective->set_pipeline(&pipeline);

  const size_t n = objective->Dimension();
  la::Vector w0(n), d(n);
  objective->EvaluateWithGradient(w0, d);
  const std::vector<std::pair<size_t, size_t>> pass_chunks = chunks;
  ASSERT_GT(pass_chunks.size(), 2u);
  chunks.clear();

  la::Scal(-1.0, d);
  ASSERT_TRUE(objective->PrepareLine(w0, d));
  EXPECT_EQ(pass_indices, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(chunks, pass_chunks);  // every chunk, in order
  EXPECT_EQ(objective->passes(), 2u);
  double dphi = 0;
  objective->EvalLine(1e-6, &dphi);
  EXPECT_EQ(objective->passes(), 2u);
  EXPECT_EQ(pass_indices.size(), 2u);
}

TEST_P(LineSearchTest, FailedOpeningProbeCostsThreeEvaluations) {
  LbfgsOptions one_line = PaperOptions();
  one_line.max_iterations = 1;

  // Spending a pass per probe, the first line takes more than its opening
  // probe and the step: the opening probe failed.
  const std::unique_ptr<ChunkedObjective> inner = MakeObjective(GetParam(), 0);
  PerProbePasses per_probe(inner.get());
  la::Vector w_per_probe(per_probe.Dimension());
  const OptimizationResult passes =
      Lbfgs(one_line).Minimize(&per_probe, w_per_probe).ValueOrDie();
  ASSERT_EQ(passes.iterations, 1u);
  ASSERT_GT(passes.function_evaluations, 1u + 2u);

  // On margins the line costs its opening probe, the margin pass and the
  // accepted step's pass.
  const std::unique_ptr<ChunkedObjective> objective =
      MakeObjective(GetParam(), 0);
  la::Vector w(objective->Dimension());
  const OptimizationResult margins =
      Lbfgs(one_line).Minimize(objective.get(), w).ValueOrDie();
  EXPECT_EQ(margins.iterations, 1u);
  EXPECT_EQ(margins.function_evaluations, 1u + 3u);
  EXPECT_EQ(margins.data_passes, margins.function_evaluations);

  // Over a whole paper-config call every evaluation is one pass.
  la::Vector w_paper(objective->Dimension());
  const OptimizationResult paper =
      Lbfgs(PaperOptions()).Minimize(objective.get(), w_paper).ValueOrDie();
  EXPECT_EQ(paper.data_passes, paper.function_evaluations);
}

INSTANTIATE_TEST_SUITE_P(Rows, LineSearchTest,
                         ::testing::Values(RowKind::kDense, RowKind::kCsr),
                         [](const ::testing::TestParamInfo<RowKind>& info) {
                           return info.param == RowKind::kDense ? "Dense"
                                                                : "Csr";
                         });

}  // namespace
}  // namespace m3::ml
