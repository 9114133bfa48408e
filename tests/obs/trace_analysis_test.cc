#include "obs/trace_analysis.h"

#include <gtest/gtest.h>

#include <string>

#include "obs/trace_recorder.h"
#include "util/json.h"

namespace m3::obs {
namespace {

using util::JsonValue;

JsonValue Parse(const std::string& text) {
  auto doc = util::JsonParse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? std::move(doc).value() : JsonValue();
}

// A hand-built two-thread trace: tid 1 drives one 10 ms pass with 6 ms of
// compute (two chunks, one a stall), tid 2 runs 6 ms of prefetch.
// All ts/dur in microseconds, as in real traces.
constexpr char kPipelineTrace[] = R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1,
     "args": {"name": "driver"}},
    {"ph": "X", "name": "pass", "cat": "exec", "pid": 1, "tid": 1,
     "ts": 0.0, "dur": 10000.0, "args": {"chunks": 2}},
    {"ph": "X", "name": "compute", "cat": "exec", "pid": 1, "tid": 1,
     "ts": 100.0, "dur": 2000.0,
     "args": {"position": 0, "chunk": 0, "race": "hit"}},
    {"ph": "X", "name": "compute", "cat": "exec", "pid": 1, "tid": 1,
     "ts": 4000.0, "dur": 4000.0,
     "args": {"position": 1, "chunk": 1, "race": "stall"}},
    {"ph": "X", "name": "retire", "cat": "exec", "pid": 1, "tid": 1,
     "ts": 8200.0, "dur": 100.0, "args": {"position": 1, "chunk": 1}},
    {"ph": "X", "name": "prefetch", "cat": "exec", "pid": 1, "tid": 2,
     "ts": 0.0, "dur": 6000.0, "args": {"position": 0, "bytes": 65536}},
    {"ph": "C", "name": "residency", "pid": 1, "tid": 3, "ts": 1.0,
     "args": {"resident_bytes": 1000.0}},
    {"ph": "C", "name": "rss", "pid": 1, "tid": 3, "ts": 1.0,
     "args": {"rss_bytes": 4096.0}},
    {"ph": "C", "name": "rss", "pid": 1, "tid": 3, "ts": 5000.0,
     "args": {"rss_bytes": 8192.0}}
  ]
})";

TEST(ValidateTraceTest, AcceptsWellFormedTrace) {
  const util::Status status = ValidateTrace(Parse(kPipelineTrace));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ValidateTraceTest, RejectsNonObjectAndMissingEvents) {
  EXPECT_FALSE(ValidateTrace(Parse("[1, 2]")).ok());
  EXPECT_FALSE(ValidateTrace(Parse("{\"foo\": 1}")).ok());
  EXPECT_FALSE(ValidateTrace(Parse("{\"traceEvents\": 3}")).ok());
}

TEST(ValidateTraceTest, RejectsOverlappingNonNestedSpans) {
  // [0, 100] and [50, 150] on one tid overlap without nesting.
  const util::Status status = ValidateTrace(Parse(R"({"traceEvents": [
    {"ph": "X", "name": "a", "tid": 1, "ts": 0.0, "dur": 100.0},
    {"ph": "X", "name": "b", "tid": 1, "ts": 50.0, "dur": 100.0}
  ]})"));
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("nest"), std::string::npos);
}

TEST(ValidateTraceTest, AcceptsSameSpansOnDifferentThreads) {
  const util::Status status = ValidateTrace(Parse(R"({"traceEvents": [
    {"ph": "X", "name": "a", "tid": 1, "ts": 0.0, "dur": 100.0},
    {"ph": "X", "name": "b", "tid": 2, "ts": 50.0, "dur": 100.0}
  ]})"));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ValidateTraceTest, GaugeCountersMayDecrease) {
  // "residency"/"rss" are gauges, not cumulative: a counter track may go
  // down between samples.
  const util::Status status = ValidateTrace(Parse(R"({"traceEvents": [
    {"ph": "C", "name": "residency", "tid": 1, "ts": 0.0,
     "args": {"resident_bytes": 100.0}},
    {"ph": "C", "name": "residency", "tid": 1, "ts": 1.0,
     "args": {"resident_bytes": 50.0}}
  ]})"));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(ValidateTraceTest, RejectsSpanWithoutTimestamps) {
  EXPECT_FALSE(ValidateTrace(Parse(R"({"traceEvents": [
    {"ph": "X", "name": "a", "tid": 1}
  ]})")).ok());
}

TEST(AnalyzeTraceTest, StageUtilizationAndCounts) {
  auto summary = AnalyzeTrace(Parse(kPipelineTrace));
  ASSERT_TRUE(summary.ok());
  const TraceSummary& s = summary.value();
  EXPECT_EQ(s.spans, 5u);
  EXPECT_EQ(s.counters, 3u);
  EXPECT_NEAR(s.wall_seconds, 0.010, 1e-9);
  EXPECT_NEAR(s.drive_seconds, 0.010, 1e-9);
  EXPECT_NEAR(s.compute_seconds, 0.006, 1e-9);
  EXPECT_NEAR(s.retire_seconds, 0.0001, 1e-9);
  EXPECT_NEAR(s.prefetch_seconds, 0.006, 1e-9);
  // Stages sorted by busy seconds: "pass" leads.
  ASSERT_FALSE(s.stages.empty());
  EXPECT_EQ(s.stages.front().name, "pass");
  EXPECT_NEAR(s.stages.front().utilization, 1.0, 1e-6);
  // Distinct counter tracks, sorted.
  ASSERT_EQ(s.counter_tracks.size(), 2u);
  EXPECT_EQ(s.counter_tracks[0], "residency");
  EXPECT_EQ(s.counter_tracks[1], "rss");
}

TEST(AnalyzeTraceTest, OverlapEfficiencyMatchesCombineOverlapInverse) {
  auto summary = AnalyzeTrace(Parse(kPipelineTrace));
  ASSERT_TRUE(summary.ok());
  const TraceSummary& s = summary.value();
  // cpu = compute + retire = 6.1 ms; io = prefetch = 6 ms; drive = 10 ms.
  // eff = (cpu + io - drive) / min(cpu, io) = 2.1 / 6.
  EXPECT_NEAR(s.measured_overlap_efficiency, 0.0021 / 0.006, 1e-6);
  // Perfect overlap would have driven the pass in max(cpu, io) = 6.1 ms;
  // the bubble is the rest of the measured 10 ms.
  EXPECT_NEAR(s.perfect_overlap_seconds, 0.0061, 1e-9);
  EXPECT_NEAR(s.bubble_seconds, 0.010 - 0.0061, 1e-9);
}

TEST(AnalyzeTraceTest, TopStallsComeLongestFirst) {
  auto summary = AnalyzeTrace(Parse(kPipelineTrace), /*top_n=*/5);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary.value().top_stalls.size(), 1u);
  const StallRecord& stall = summary.value().top_stalls.front();
  EXPECT_NEAR(stall.seconds, 0.004, 1e-9);
  EXPECT_EQ(stall.position, 1u);
  EXPECT_EQ(stall.chunk, 1u);
  EXPECT_EQ(stall.tid, 1u);
}

TEST(AnalyzeTraceTest, TopNCapsStallList) {
  std::string trace = "{\"traceEvents\": [";
  for (int i = 0; i < 10; ++i) {
    if (i > 0) {
      trace += ",";
    }
    trace += "{\"ph\": \"X\", \"name\": \"compute\", \"tid\": 1, \"ts\": " +
             std::to_string(i * 1000.0) + ", \"dur\": " +
             std::to_string(100.0 * (i + 1)) +
             ", \"args\": {\"race\": \"stall\", \"position\": " +
             std::to_string(i) + "}}";
  }
  trace += "]}";
  auto summary = AnalyzeTrace(Parse(trace), /*top_n=*/3);
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary.value().top_stalls.size(), 3u);
  // Longest stalls are the last-emitted ones (dur grows with i).
  EXPECT_EQ(summary.value().top_stalls[0].position, 9u);
  EXPECT_EQ(summary.value().top_stalls[1].position, 8u);
  EXPECT_EQ(summary.value().top_stalls[2].position, 7u);
}

TEST(AnalyzeTraceTest, EmptyTraceYieldsZeroSummary) {
  auto summary = AnalyzeTrace(Parse("{\"traceEvents\": []}"));
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().spans, 0u);
  EXPECT_DOUBLE_EQ(summary.value().wall_seconds, 0.0);
  EXPECT_DOUBLE_EQ(summary.value().measured_overlap_efficiency, 0.0);
  EXPECT_NE(summary.value().ToString(), "");
}

TEST(AnalyzeTraceTest, RecorderOutputValidatesEndToEnd) {
  TraceRecorder::Get().Start();
  {
    ScopedSpan pass("exec", "pass");
    {
      ScopedSpan prefetch("exec", "prefetch");
    }
    {
      ScopedSpan compute("exec", "compute");
      compute.AddArg("race", "stall");
      compute.AddArg("position", uint64_t{3});
    }
    { ScopedSpan retire("exec", "retire"); }
    { ScopedSpan evict("exec", "evict"); }
  }
  EmitCounter("rss", "rss_bytes", 4096.0);
  TraceRecorder::Get().Stop();
  auto json = TraceRecorder::Get().ToJson();
  ASSERT_TRUE(json.ok());
  JsonValue doc = Parse(json.value());
  EXPECT_TRUE(ValidateTrace(doc).ok());
  auto summary = AnalyzeTrace(doc);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().spans, 5u);
  EXPECT_EQ(summary.value().top_stalls.size(), 1u);
  EXPECT_EQ(summary.value().top_stalls.front().position, 3u);
  // All four pipeline stages present — the trace_summarize smoke gate's
  // required-stage set.
  size_t found = 0;
  for (const StageUtilization& stage : summary.value().stages) {
    if (stage.name == "prefetch" || stage.name == "compute" ||
        stage.name == "retire" || stage.name == "evict") {
      ++found;
    }
  }
  EXPECT_EQ(found, 4u);
}

}  // namespace
}  // namespace m3::obs
