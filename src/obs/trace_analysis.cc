#include "obs/trace_analysis.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/perf_model.h"
#include "io/file.h"
#include "util/format.h"

namespace m3::obs {

using util::JsonValue;
using util::Result;
using util::Status;

namespace {

/// ts/dur are written at %.3f µs; half a nanosecond of slack absorbs the
/// rounding when comparing span boundaries.
constexpr double kNestEpsilonUs = 0.0005;

bool IsSpan(const JsonValue& event) {
  const JsonValue* ph = event.Find("ph");
  return ph != nullptr && ph->is_string() && ph->string_value == "X";
}

bool IsCounter(const JsonValue& event) {
  const JsonValue* ph = event.Find("ph");
  return ph != nullptr && ph->is_string() && ph->string_value == "C";
}

const JsonValue* TraceEvents(const JsonValue& doc) {
  if (!doc.is_object()) {
    return nullptr;
  }
  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return nullptr;
  }
  return events;
}

}  // namespace

Status ValidateTrace(const JsonValue& doc) {
  const JsonValue* events = TraceEvents(doc);
  if (events == nullptr) {
    return Status::InvalidArgument(
        "trace is not an object with a \"traceEvents\" array");
  }
  // Per-tid stack of open span end times (events arrive grouped per
  // thread and time-ordered within a thread; re-sort defensively).
  struct SpanEdge {
    double ts = 0;
    double end = 0;
  };
  std::map<uint64_t, std::vector<SpanEdge>> spans_by_tid;
  for (size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    if (!event.is_object()) {
      return Status::InvalidArgument(
          util::StrFormat("traceEvents[%zu] is not an object", i));
    }
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || !ph->is_string()) {
      return Status::InvalidArgument(
          util::StrFormat("traceEvents[%zu] has no string \"ph\"", i));
    }
    if (IsSpan(event)) {
      const JsonValue* ts = event.Find("ts");
      const JsonValue* dur = event.Find("dur");
      if (ts == nullptr || !ts->is_number() || !std::isfinite(ts->number_value) ||
          dur == nullptr || !dur->is_number() ||
          !std::isfinite(dur->number_value) || dur->number_value < 0) {
        return Status::InvalidArgument(util::StrFormat(
            "traceEvents[%zu]: span without finite ts/dur", i));
      }
      const uint64_t tid = static_cast<uint64_t>(event.NumberOr("tid", 0));
      spans_by_tid[tid].push_back(
          SpanEdge{ts->number_value, ts->number_value + dur->number_value});
    } else if (IsCounter(event)) {
      const JsonValue* name = event.Find("name");
      const JsonValue* args = event.Find("args");
      if (name == nullptr || !name->is_string() || args == nullptr ||
          !args->is_object() || args->members.empty()) {
        return Status::InvalidArgument(util::StrFormat(
            "traceEvents[%zu]: counter without name/args", i));
      }
    }
  }
  // Spans on one thread must obey stack discipline: sorted by start (ties:
  // longer first, the enclosing span), each span either nests inside the
  // innermost open span or begins after it ends.
  for (auto& [tid, edges] : spans_by_tid) {
    std::sort(edges.begin(), edges.end(), [](const SpanEdge& a,
                                             const SpanEdge& b) {
      if (a.ts != b.ts) {
        return a.ts < b.ts;
      }
      return a.end > b.end;
    });
    std::vector<double> open_ends;
    for (const SpanEdge& edge : edges) {
      while (!open_ends.empty() &&
             edge.ts >= open_ends.back() - kNestEpsilonUs) {
        open_ends.pop_back();
      }
      if (!open_ends.empty() &&
          edge.end > open_ends.back() + kNestEpsilonUs) {
        return Status::InvalidArgument(util::StrFormat(
            "tid %llu: span [%.3f, %.3f] overlaps but does not nest inside "
            "enclosing span ending at %.3f",
            static_cast<unsigned long long>(tid), edge.ts, edge.end,
            open_ends.back()));
      }
      open_ends.push_back(edge.end);
    }
  }
  return Status::OK();
}

std::string TraceSummary::ToString() const {
  std::string out;
  out += util::StrFormat(
      "trace: %llu events (%llu spans, %llu counters, %llu dropped), "
      "wall %.3f s\n",
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(spans),
      static_cast<unsigned long long>(counters),
      static_cast<unsigned long long>(dropped_events), wall_seconds);
  out += "\nper-stage utilization:\n";
  for (const StageUtilization& stage : stages) {
    out += util::StrFormat("  %-10s %8llu spans  %10.3f s busy  %6.1f%%\n",
                           stage.name.c_str(),
                           static_cast<unsigned long long>(stage.spans),
                           stage.busy_seconds, stage.utilization * 100.0);
  }
  if (!counter_tracks.empty()) {
    out += "\ncounter tracks:";
    for (const std::string& track : counter_tracks) {
      out += " " + track;
    }
    out += "\n";
  }
  const double cpu = compute_seconds + retire_seconds;
  const double io = prefetch_seconds + evict_seconds;
  out += util::StrFormat(
      "\noverlap: cpu %.3f s, io %.3f s, drive %.3f s\n"
      "  measured efficiency %.2f (perfect-overlap drive %.3f s, "
      "bubble %.3f s)\n",
      cpu, io, drive_seconds, measured_overlap_efficiency,
      perfect_overlap_seconds, bubble_seconds);
  if (!top_stalls.empty()) {
    out += util::StrFormat("\ntop %zu stalls:\n", top_stalls.size());
    for (const StallRecord& stall : top_stalls) {
      out += util::StrFormat(
          "  %10.6f s  position %llu  chunk %llu  tid %llu\n", stall.seconds,
          static_cast<unsigned long long>(stall.position),
          static_cast<unsigned long long>(stall.chunk),
          static_cast<unsigned long long>(stall.tid));
    }
  }
  return out;
}

Result<TraceSummary> AnalyzeTrace(const JsonValue& doc, size_t top_n) {
  const JsonValue* events = TraceEvents(doc);
  if (events == nullptr) {
    return Status::InvalidArgument(
        "trace is not an object with a \"traceEvents\" array");
  }
  TraceSummary summary;
  summary.dropped_events =
      static_cast<uint64_t>(doc.NumberOr("dropped_events", 0));
  summary.events = events->array.size();
  std::unordered_map<std::string, StageUtilization> stages;
  std::vector<std::string> tracks;
  std::vector<StallRecord> stalls;
  double first_start = 0, last_end = 0;
  bool saw_span = false;
  for (const JsonValue& event : events->array) {
    if (!event.is_object()) {
      continue;
    }
    if (IsCounter(event)) {
      ++summary.counters;
      const JsonValue* name = event.Find("name");
      if (name != nullptr && name->is_string() &&
          std::find(tracks.begin(), tracks.end(), name->string_value) ==
              tracks.end()) {
        tracks.push_back(name->string_value);
      }
      continue;
    }
    if (!IsSpan(event)) {
      continue;
    }
    ++summary.spans;
    const double ts = event.NumberOr("ts", 0);
    const double dur = event.NumberOr("dur", 0);
    const double seconds = dur * 1e-6;
    const JsonValue* name = event.Find("name");
    const std::string stage_name =
        name != nullptr && name->is_string() ? name->string_value : "?";
    StageUtilization& stage = stages[stage_name];
    stage.name = stage_name;
    ++stage.spans;
    stage.busy_seconds += seconds;
    if (!saw_span || ts < first_start) {
      first_start = ts;
    }
    if (!saw_span || ts + dur > last_end) {
      last_end = ts + dur;
    }
    saw_span = true;
    if (stage_name == "pass") {
      summary.drive_seconds += seconds;
    } else if (stage_name == "compute") {
      summary.compute_seconds += seconds;
    } else if (stage_name == "retire") {
      summary.retire_seconds += seconds;
    } else if (stage_name == "prefetch") {
      summary.prefetch_seconds += seconds;
    } else if (stage_name == "evict") {
      summary.evict_seconds += seconds;
    }
    const JsonValue* args = event.Find("args");
    if (args != nullptr && args->is_object()) {
      if (args->StringOr("race", "") == "stall") {
        StallRecord stall;
        stall.seconds = seconds;
        stall.position = static_cast<uint64_t>(args->NumberOr("position", 0));
        stall.chunk = static_cast<uint64_t>(args->NumberOr("chunk", 0));
        stall.tid = static_cast<uint64_t>(event.NumberOr("tid", 0));
        stalls.push_back(stall);
      }
    }
  }
  summary.wall_seconds = saw_span ? (last_end - first_start) * 1e-6 : 0;
  for (auto& [name, stage] : stages) {
    if (summary.wall_seconds > 0) {
      stage.utilization = stage.busy_seconds / summary.wall_seconds;
    }
    summary.stages.push_back(stage);
  }
  std::sort(summary.stages.begin(), summary.stages.end(),
            [](const StageUtilization& a, const StageUtilization& b) {
              return a.busy_seconds > b.busy_seconds;
            });
  std::sort(tracks.begin(), tracks.end());
  summary.counter_tracks = std::move(tracks);
  std::sort(stalls.begin(), stalls.end(),
            [](const StallRecord& a, const StallRecord& b) {
              return a.seconds > b.seconds;
            });
  if (stalls.size() > top_n) {
    stalls.resize(top_n);
  }
  summary.top_stalls = std::move(stalls);
  // Solve drive = max(cpu, io) + (1 - eff) * min(cpu, io) for eff. When a
  // pass has no I/O-side busy time (fully cached run) there is nothing to
  // overlap and efficiency is reported as 0, not NaN.
  const double cpu = summary.compute_seconds + summary.retire_seconds;
  const double io = summary.prefetch_seconds + summary.evict_seconds;
  const double overlapped = std::min(cpu, io);
  if (overlapped > 0 && summary.drive_seconds > 0) {
    summary.measured_overlap_efficiency = std::min(
        1.0,
        std::max(0.0, (cpu + io - summary.drive_seconds) / overlapped));
  }
  summary.perfect_overlap_seconds = m3::CombineOverlap(cpu, io, 1.0);
  summary.bubble_seconds =
      std::max(0.0, summary.drive_seconds - summary.perfect_overlap_seconds);
  return summary;
}

Result<TraceSummary> AnalyzeTraceFile(const std::string& path, size_t top_n) {
  M3_ASSIGN_OR_RETURN(std::string text, io::ReadFileToString(path));
  auto doc = util::JsonParse(text);
  if (!doc.ok()) {
    return doc.status().WithContext("parsing trace " + path);
  }
  M3_RETURN_IF_ERROR(ValidateTrace(doc.value()).WithContext(path));
  return AnalyzeTrace(doc.value(), top_n);
}

}  // namespace m3::obs
