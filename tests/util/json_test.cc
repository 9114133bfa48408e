#include "util/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>

#include <unistd.h>

// The reporter under test lives with the benches; this test gets the repo
// root on its include path for exactly this header.
#include "bench/bench_common.h"
#include "io/file.h"

namespace m3::util {
namespace {

TEST(JsonEscapeTest, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("instance0_cached"), "instance0_cached");
  EXPECT_EQ(JsonEscape(""), "");
}

TEST(JsonEscapeTest, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("c:\\tmp"), "c:\\\\tmp");
}

TEST(JsonEscapeTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonEscape("line1\nline2"), "line1\\nline2");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string("nul\x01") + "x"), "nul\\u0001x");
  EXPECT_EQ(JsonEscape("\r\b\f"), "\\r\\b\\f");
}

TEST(JsonEscapeTest, LeavesUtf8BytesAlone) {
  const std::string utf8 = "caf\xc3\xa9";
  EXPECT_EQ(JsonEscape(utf8), utf8);
}

TEST(JsonNumberTest, FormatsFiniteValues) {
  EXPECT_EQ(JsonNumber(1.5).ValueOrDie(), "1.500000");
  EXPECT_EQ(JsonNumber(0.0).ValueOrDie(), "0.000000");
  EXPECT_EQ(JsonNumber(-3.25).ValueOrDie(), "-3.250000");
}

TEST(JsonNumberTest, RejectsNonFinite) {
  EXPECT_FALSE(JsonNumber(std::numeric_limits<double>::quiet_NaN()).ok());
  EXPECT_FALSE(JsonNumber(std::numeric_limits<double>::infinity()).ok());
  EXPECT_FALSE(JsonNumber(-std::numeric_limits<double>::infinity()).ok());
}

// ---------------------------------------------------------------------------
// JsonReporter (bench/bench_common.h) end to end
// ---------------------------------------------------------------------------

class JsonReporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/m3_json_test_" +
           std::to_string(::getpid());
    ASSERT_TRUE(io::MakeDirs(dir_).ok());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(JsonReporterTest, WritesParseableJsonWithHostileNames) {
  bench::JsonReporter reporter("unit_test");
  exec::PipelineStats stats;
  stats.passes = 2;
  stats.prefetches = 7;
  stats.prefetch_hits = 4;
  stats.stalls = 1;
  stats.stall_bytes = 4096;
  stats.prefetch_unclassified = 2;
  stats.backend_submits = 11;
  stats.backend_completions = 10;
  stats.backend_fallbacks = 5;
  reporter.Add("plain", 0.25, stats);
  reporter.Add("quote\"newline\n", 1.0, stats,
               {{"spill_refaults", 3}, {"weird\"key", 9}},
               {{"residual_seconds", -0.125}});
  ASSERT_TRUE(reporter.Write(dir_).ok());

  const std::string body =
      io::ReadFileToString(dir_ + "/BENCH_unit_test.json").ValueOrDie();
  // Raw quotes/newlines inside names would break any parser; the escaped
  // forms must appear instead.
  EXPECT_EQ(body.find("quote\"newline\n\""), std::string::npos);
  EXPECT_NE(body.find("quote\\\"newline\\n"), std::string::npos);
  EXPECT_NE(body.find("\"seconds\": 0.250000"), std::string::npos);
  EXPECT_NE(body.find("\"prefetch_unclassified\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"backend_submits\": 11"), std::string::npos);
  EXPECT_NE(body.find("\"backend_completions\": 10"), std::string::npos);
  EXPECT_NE(body.find("\"backend_fallbacks\": 5"), std::string::npos);
  EXPECT_NE(body.find("\"spill_refaults\": 3"), std::string::npos);
  EXPECT_NE(body.find("\"weird\\\"key\": 9"), std::string::npos);
  EXPECT_NE(body.find("\"stall_bytes\": 4096"), std::string::npos);
  EXPECT_NE(body.find("\"residual_seconds\": -0.125"), std::string::npos);
  // Structural sanity: every unescaped quote is balanced (even count), and
  // braces/brackets match.
  size_t quotes = 0;
  int braces = 0, brackets = 0;
  for (size_t i = 0; i < body.size(); ++i) {
    const char c = body[i];
    if (c == '"' && (i == 0 || body[i - 1] != '\\')) {
      ++quotes;
    }
    braces += c == '{' ? 1 : (c == '}' ? -1 : 0);
    brackets += c == '[' ? 1 : (c == ']' ? -1 : 0);
  }
  EXPECT_EQ(quotes % 2, 0u);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(JsonReporterTest, RefusesNonFiniteSeconds) {
  bench::JsonReporter reporter("bad_bench");
  const exec::PipelineStats stats;
  reporter.Add("fine", 1.0, stats);
  reporter.Add("poison", std::numeric_limits<double>::quiet_NaN(), stats);
  const util::Status status = reporter.Write(dir_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("poison"), std::string::npos);
  // Nothing half-written on disk.
  EXPECT_FALSE(io::FileExists(dir_ + "/BENCH_bad_bench.json"));
}

TEST_F(JsonReporterTest, RefusesNonFiniteExtraDouble) {
  bench::JsonReporter reporter("bad_fit");
  reporter.Add("fit", 1.0, exec::PipelineStats(), {},
               {{"relative_residual",
                 std::numeric_limits<double>::infinity()}});
  const util::Status status = reporter.Write(dir_);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("relative_residual"), std::string::npos);
  EXPECT_FALSE(io::FileExists(dir_ + "/BENCH_bad_fit.json"));
}

TEST_F(JsonReporterTest, OutputParsesAndBothOverloadsShareOnePath) {
  // Every case renders "exec" through PipelineStats::ToJson(); the
  // document must survive the strict parser, and stats that hold
  // durations must land the stall/compute percentiles in the JSON.
  bench::JsonReporter reporter("stats_path");
  exec::PipelineStats counters_only;
  counters_only.passes = 1;
  counters_only.prefetches = 4;
  counters_only.prefetch_hits = 3;
  counters_only.stalls = 1;
  reporter.Add("counters_only", 0.5, counters_only);

  exec::PipelineStats stats = counters_only;
  stats.drive_seconds = 0.5;
  stats.compute_duration.Add(0.002);
  stats.compute_duration.Add(0.004);
  stats.stall_duration.Add(0.010);
  reporter.Add("with_stats", 0.5, stats);
  ASSERT_TRUE(reporter.Write(dir_).ok());

  const std::string body =
      io::ReadFileToString(dir_ + "/BENCH_stats_path.json").ValueOrDie();
  auto doc = JsonParse(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* cases = doc.value().Find("cases");
  ASSERT_NE(cases, nullptr);
  ASSERT_TRUE(cases->is_array());
  ASSERT_EQ(cases->array.size(), 2u);

  // The counters-only case carries the same keys, with zeroed
  // durations.
  const JsonValue* counters = cases->array[0].Find("exec");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->NumberOr("prefetch_hits", -1), 3.0);
  EXPECT_EQ(counters->NumberOr("stall_p99", -1), 0.0);
  EXPECT_EQ(counters->NumberOr("drive_seconds", -1), 0.0);

  const JsonValue* full = cases->array[1].Find("exec");
  ASSERT_NE(full, nullptr);
  EXPECT_EQ(full->NumberOr("stalls", -1), 1.0);
  EXPECT_NEAR(full->NumberOr("drive_seconds", -1), 0.5, 1e-12);
  EXPECT_NEAR(full->NumberOr("stall_p50", -1), 0.010, 1e-4);
  EXPECT_NEAR(full->NumberOr("compute_p99", -1), 0.004, 1e-4);
  EXPECT_GE(full->NumberOr("compute_p95", -1),
            full->NumberOr("compute_p50", -1));
}

TEST_F(JsonReporterTest, EmptyReporterStillWritesValidDocument) {
  bench::JsonReporter reporter("empty");
  ASSERT_TRUE(reporter.Write(dir_).ok());
  const std::string body =
      io::ReadFileToString(dir_ + "/BENCH_empty.json").ValueOrDie();
  EXPECT_EQ(body, "{\"bench\": \"empty\", \"cases\": []}\n");
}

}  // namespace
}  // namespace m3::util
