#include "span_log.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

#include "io/file.h"
#include "util/format.h"

namespace m3::perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  if (enabled_) {
    spans_.reserve(1 << 16);
  }
}

double SpanLog::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::Begin(const char* layer, const char* name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.layer = layer;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = Now();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::EndAt(int id, double end_s) {
  if (id < 0) {
    return;
  }
  spans_[static_cast<size_t>(id)].end_s = end_s;
  // Spans close innermost first; tolerate a caller closing an outer span
  // early by dropping everything nested inside it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == id) {
      break;
    }
  }
}

util::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  std::string json = "{\"traceEvents\":[\n";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_s < 0) {
      continue;
    }
    json += util::StrFormat(
        "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
        "\"parent\":%d}}",
        first ? "" : ",\n", span.layer, span.name, span.layer,
        span.start_s * 1e6, span.Seconds() * 1e6, i, span.parent);
    first = false;
  }
  json += "\n]}\n";
  return io::WriteStringToFile(path, json);
}

namespace {

double Seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

Usage FromRusage(int who) {
  rusage ru{};
  getrusage(who, &ru);
  Usage usage;
  usage.user_s = Seconds(ru.ru_utime);
  usage.sys_s = Seconds(ru.ru_stime);
  usage.minor_faults = ru.ru_minflt;
  usage.major_faults = ru.ru_majflt;
  usage.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return usage;
}

}  // namespace

Usage Usage::Self() { return FromRusage(RUSAGE_SELF); }
Usage Usage::Children() { return FromRusage(RUSAGE_CHILDREN); }

Usage Usage::operator-(const Usage& rhs) const {
  Usage delta = *this;
  delta.user_s -= rhs.user_s;
  delta.sys_s -= rhs.sys_s;
  delta.minor_faults -= rhs.minor_faults;
  delta.major_faults -= rhs.major_faults;
  return delta;
}

Usage Usage::operator+(const Usage& rhs) const {
  Usage sum = *this;
  sum.user_s += rhs.user_s;
  sum.sys_s += rhs.sys_s;
  sum.minor_faults += rhs.minor_faults;
  sum.major_faults += rhs.major_faults;
  sum.max_rss_mib = std::max(max_rss_mib, rhs.max_rss_mib);
  return sum;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  // 1-based position q * (n + 1), clamped to the sample range.
  const double n = static_cast<double>(values.size());
  const double position = std::clamp(q * (n + 1), 1.0, n) - 1.0;
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double fraction = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

size_t CountAbove(const std::vector<double>& values, double threshold) {
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [threshold](double v) { return v > threshold; }));
}

}  // namespace m3::perfbench
