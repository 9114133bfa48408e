// Line searches on cached margins. Once a line search's opening probe
// fails, Lbfgs asks a data-backed objective to restrict itself to the
// line w0 + alpha d (ChunkedObjective::PrepareLine): one pass stores each
// row's margins, and EvalLine answers the line's later probes from them.
// On the first line that pass is the opening probe's own
// (ChunkedObjective::EvaluateOpeningProbe). On dense and CSR rows these
// tests pin that
//   - EvalLine agrees with a pass to rounding, and bitwise with a serial
//     row-order sum over the margins;
//   - the margin search accepts the same steps as a search that spends a
//     pass on every probe, so the trained bits do not change;
//   - the margin pass is an ordinary pass for the hooks and the counts;
//   - the opening probe's pass holds the line, so PrepareLine of that line
//     performs no pass.

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

/// Labeled rows held both dense and as CSR.
struct LabeledRows {
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

/// Binary digits (class >= 5) with raw [0, 255] pixels. As on the paper's
/// data, L-BFGS's opening probe of 1/||g|| along -g overshoots, so the
/// first line search bisects.
LabeledRows MakeDigits() {
  LabeledRows digits;
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

const LabeledRows& TestDigits() {
  static const LabeledRows digits = MakeDigits();
  return digits;
}

enum class RowKind { kDense, kCsr };

/// The logistic objective over TestDigits(): dense rows in uniform row
/// chunks, CSR rows in ragged nnz-budget chunks.
std::unique_ptr<ChunkedObjective> MakeObjective(RowKind kind, double l2,
                                                ScanHooks hooks = {}) {
  const LabeledRows& digits = TestDigits();
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

TEST_P(LineSearchTest, FailedOpeningProbeCostsTwoEvaluations) {
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

  // On margins the line costs its opening probe, whose pass also stored
  // the margins, and the accepted step's pass.
  const std::unique_ptr<ChunkedObjective> objective =
      MakeObjective(GetParam(), 0);
  la::Vector w(objective->Dimension());
  const OptimizationResult margins =
      Lbfgs(one_line).Minimize(objective.get(), w).ValueOrDie();
  EXPECT_EQ(margins.iterations, 1u);
  EXPECT_EQ(margins.function_evaluations, 1u + 2u);
  EXPECT_EQ(margins.data_passes, margins.function_evaluations);

  // Over a whole paper-config call every evaluation is one pass.
  la::Vector w_paper(objective->Dimension());
  const OptimizationResult paper =
      Lbfgs(PaperOptions()).Minimize(objective.get(), w_paper).ValueOrDie();
  EXPECT_EQ(paper.data_passes, paper.function_evaluations);
}

TEST_P(LineSearchTest, OpeningProbeHoldsTheLine) {
  for (const double l2 : {0.0, 1e-2}) {
    SCOPED_TRACE("l2 " + std::to_string(l2));
    const std::unique_ptr<ChunkedObjective> objective =
        MakeObjective(GetParam(), l2);
    const size_t n = objective->Dimension();
    util::Rng rng(17);
    la::Vector w0(n), d(n);
    for (size_t i = 0; i < n; ++i) {
      w0[i] = rng.Uniform(-1e-3, 1e-3);
    }
    objective->EvaluateWithGradient(w0, d);
    la::Scal(-1.0, d);
    la::Vector w(n), grad(n);
    la::Copy(w0, w);
    la::Axpy(1.0 / la::Nrm2(d), d, w);
    const double f = objective->EvaluateOpeningProbe(w0, d, w, grad);
    ASSERT_EQ(objective->passes(), 2u);

    // The probe answers a plain pass's bits...
    const std::unique_ptr<ChunkedObjective> fresh =
        MakeObjective(GetParam(), l2);
    la::Vector fresh_grad(n);
    const double fresh_f = fresh->EvaluateWithGradient(w, fresh_grad);
    EXPECT_TRUE(BitwiseEqual({f}, {fresh_f}));
    EXPECT_TRUE(BitwiseEqual(grad, fresh_grad));

    // ...and its pass held the line: PrepareLine performs none, and
    // EvalLine answers what an explicit margin pass would give it.
    ASSERT_TRUE(objective->PrepareLine(w0, d));
    EXPECT_EQ(objective->passes(), 2u);
    ASSERT_TRUE(fresh->PrepareLine(w0, d));
    EXPECT_EQ(fresh->passes(), 2u);
    const double opening = 1.0 / la::Nrm2(d);
    for (const double alpha : {0.0, opening / 64, opening / 2, opening}) {
      double dphi = 0, fresh_dphi = 0;
      const double phi = objective->EvalLine(alpha, &dphi);
      const double fresh_phi = fresh->EvalLine(alpha, &fresh_dphi);
      EXPECT_TRUE(BitwiseEqual({phi, dphi}, {fresh_phi, fresh_dphi}))
          << "alpha " << alpha;
    }

    // Another direction from the same origin is another line: its
    // margins cost a pass.
    la::Scal(0.5, d);
    ASSERT_TRUE(objective->PrepareLine(w0, d));
    EXPECT_EQ(objective->passes(), 3u);
  }
}

// EvalLine's bits. It computes its rows' terms across the thread pool and
// sums them on the calling thread; over more rows than its 32768-row window
// it must still answer what one serial loop over the rows in order does.

constexpr size_t kWideRows = 40000;
constexpr size_t kWideCols = 24;

/// kWideRows random rows, about a third of their entries zero, held dense
/// and as CSR, with random {0, 1} labels.
LabeledRows MakeWideRows() {
  LabeledRows rows;
  rows.dense = la::Matrix(kWideRows, kWideCols);
  rows.labels = la::Vector(kWideRows);
  util::Rng rng(23);
  for (size_t r = 0; r < kWideRows; ++r) {
    la::VectorView row = rows.dense.Row(r);
    for (size_t c = 0; c < kWideCols; ++c) {
      if (rng.UniformInt(3) == 0) {
        continue;
      }
      row[c] = rng.Uniform(-1.0, 1.0);
      rows.col_idx.push_back(static_cast<uint32_t>(c));
      rows.values.push_back(row[c]);
    }
    rows.row_ptr.push_back(rows.col_idx.size());
    rows.labels[r] = rng.UniformInt(2) == 0 ? 0.0 : 1.0;
  }
  return rows;
}

// The objective's stable log(1 + e^z) and sigmoid.
double Log1pExp(double z) {
  if (z > 0) {
    return z + std::log1p(std::exp(-z));
  }
  return std::log1p(std::exp(z));
}

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

/// phi(alpha) and phi'(alpha) of the logistic loss on the line w0 + alpha d
/// over `rows`, from margins built with la::Dot / la::SparseDot and summed
/// by one serial loop in row order.
std::vector<double> SerialLine(const LabeledRows& rows, RowKind kind, double l2,
                               la::ConstVectorView w0, la::ConstVectorView d,
                               double alpha) {
  const size_t n = rows.dense.rows();
  const size_t cols = rows.dense.cols();
  const la::CsrView csr = rows.Csr();
  la::ConstVectorView w0_weights = w0.Slice(0, cols);
  la::ConstVectorView d_weights = d.Slice(0, cols);
  double loss = 0;
  double slope = 0;
  for (size_t r = 0; r < n; ++r) {
    const double z0 = (kind == RowKind::kDense
                           ? la::Dot(rows.dense.Row(r), w0_weights)
                           : la::SparseDot(csr.Row(r), w0_weights)) +
                      w0[cols];
    const double u = (kind == RowKind::kDense
                          ? la::Dot(rows.dense.Row(r), d_weights)
                          : la::SparseDot(csr.Row(r), d_weights)) +
                     d[cols];
    const double z = z0 + alpha * u;
    loss += Log1pExp(z) - rows.labels[r] * z;
    slope += (Sigmoid(z) - rows.labels[r]) * u;
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  loss *= inv_n;
  slope *= inv_n;
  if (l2 > 0) {
    la::Vector w(w0.size());
    la::Copy(w0, w);
    la::Axpy(alpha, d, w);
    la::ConstVectorView weights = w.View().Slice(0, cols);
    loss += 0.5 * l2 * la::Dot(weights, weights);
    slope += l2 * la::Dot(weights, d_weights);
  }
  return {loss, slope};
}

TEST_P(LineSearchTest, EvalLineIsASerialRowOrderSum) {
  static const LabeledRows rows = MakeWideRows();
  for (const double l2 : {0.0, 1e-2}) {
    SCOPED_TRACE("l2 " + std::to_string(l2));
    std::unique_ptr<ChunkedObjective> objective;
    if (GetParam() == RowKind::kDense) {
      objective = std::make_unique<LogisticRegressionObjective>(
          rows.dense.View(), rows.labels, l2);
    } else {
      objective = std::make_unique<SparseLogisticRegressionObjective>(
          rows.Csr(), rows.labels, l2);
    }
    const size_t n = objective->Dimension();
    util::Rng rng(29);
    la::Vector w0(n), d(n);
    for (size_t i = 0; i < n; ++i) {
      w0[i] = rng.Uniform(-0.5, 0.5);
      d[i] = rng.Uniform(-1.0, 1.0);
    }
    ASSERT_TRUE(objective->PrepareLine(w0, d));
    for (const double alpha : {0.0, 0.25, 1.0, 3.0}) {
      double dphi = 0;
      const double phi = objective->EvalLine(alpha, &dphi);
      EXPECT_TRUE(BitwiseEqual({phi, dphi},
                               SerialLine(rows, GetParam(), l2, w0, d, alpha)))
          << "alpha " << alpha;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rows, LineSearchTest,
                         ::testing::Values(RowKind::kDense, RowKind::kCsr),
                         [](const ::testing::TestParamInfo<RowKind>& info) {
                           return info.param == RowKind::kDense ? "Dense"
                                                                : "Csr";
                         });

}  // namespace
}  // namespace m3::ml
