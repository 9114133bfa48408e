#include "exec/pipeline_stats.h"

#include "util/format.h"

namespace m3::exec {

PipelineStats& PipelineStats::operator+=(const PipelineStats& rhs) {
  passes += rhs.passes;
  chunks += rhs.chunks;
  prefetches += rhs.prefetches;
  prefetch_bytes += rhs.prefetch_bytes;
  prefetch_hits += rhs.prefetch_hits;
  stalls += rhs.stalls;
  stall_bytes += rhs.stall_bytes;
  prefetch_unclassified += rhs.prefetch_unclassified;
  evictions += rhs.evictions;
  bytes_evicted += rhs.bytes_evicted;
  backend_submits += rhs.backend_submits;
  backend_completions += rhs.backend_completions;
  backend_fallbacks += rhs.backend_fallbacks;
  prefetch_seconds += rhs.prefetch_seconds;
  compute_seconds += rhs.compute_seconds;
  retire_seconds += rhs.retire_seconds;
  evict_seconds += rhs.evict_seconds;
  drive_seconds += rhs.drive_seconds;
  compute_duration.Merge(rhs.compute_duration);
  stall_duration.Merge(rhs.stall_duration);
  return *this;
}

PipelineStats PipelineStats::operator+(const PipelineStats& rhs) const {
  PipelineStats out = *this;
  out += rhs;
  return out;
}

double PipelineStats::PrefetchHitRate() const {
  const uint64_t raced = prefetch_hits + stalls;
  if (raced == 0) {
    return 0.0;
  }
  return static_cast<double>(prefetch_hits) / static_cast<double>(raced);
}

std::string PipelineStats::ToJson() const {
  // %.9f: per-chunk percentiles sit in the tens-of-microseconds range on
  // test datasets; the bench JSON's usual %.6f would round them to zero.
  return util::StrFormat(
      "{\"passes\": %llu, \"chunks\": %llu, \"prefetches\": %llu, "
      "\"prefetch_bytes\": %llu, \"evictions\": %llu, "
      "\"bytes_evicted\": %llu, \"prefetch_hits\": %llu, "
      "\"stalls\": %llu, \"stall_bytes\": %llu, "
      "\"prefetch_unclassified\": %llu, "
      "\"backend_submits\": %llu, \"backend_completions\": %llu, "
      "\"backend_fallbacks\": %llu, "
      "\"prefetch_seconds\": %.9f, \"compute_seconds\": %.9f, "
      "\"retire_seconds\": %.9f, \"evict_seconds\": %.9f, "
      "\"drive_seconds\": %.9f, "
      "\"compute_p50\": %.9f, \"compute_p95\": %.9f, "
      "\"compute_p99\": %.9f, "
      "\"stall_p50\": %.9f, \"stall_p95\": %.9f, \"stall_p99\": %.9f}",
      static_cast<unsigned long long>(passes),
      static_cast<unsigned long long>(chunks),
      static_cast<unsigned long long>(prefetches),
      static_cast<unsigned long long>(prefetch_bytes),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(bytes_evicted),
      static_cast<unsigned long long>(prefetch_hits),
      static_cast<unsigned long long>(stalls),
      static_cast<unsigned long long>(stall_bytes),
      static_cast<unsigned long long>(prefetch_unclassified),
      static_cast<unsigned long long>(backend_submits),
      static_cast<unsigned long long>(backend_completions),
      static_cast<unsigned long long>(backend_fallbacks),
      prefetch_seconds, compute_seconds, retire_seconds, evict_seconds,
      drive_seconds, compute_duration.Percentile(50),
      compute_duration.Percentile(95), compute_duration.Percentile(99),
      stall_duration.Percentile(50), stall_duration.Percentile(95),
      stall_duration.Percentile(99));
}

util::Result<PipelineStats> PipelineStats::FromJson(
    const util::JsonValue& value) {
  if (!value.is_object()) {
    return util::Status::InvalidArgument("PipelineStats JSON is not an object");
  }
  // Strict lookup: ToJson() always writes every key, so absence means the
  // payload is not (or no longer) a PipelineStats serialization.
  auto number = [&value](const char* key) -> util::Result<double> {
    const util::JsonValue* field = value.Find(key);
    if (field == nullptr || !field->is_number()) {
      return util::Status::InvalidArgument(
          std::string("PipelineStats JSON missing numeric key \"") + key +
          "\"");
    }
    return field->number_value;
  };
  PipelineStats out;
  auto counter = [&number](const char* key, uint64_t* dst) -> util::Status {
    M3_ASSIGN_OR_RETURN(double v, number(key));
    *dst = static_cast<uint64_t>(v);
    return util::Status::OK();
  };
  auto seconds = [&number](const char* key, double* dst) -> util::Status {
    M3_ASSIGN_OR_RETURN(double v, number(key));
    *dst = v;
    return util::Status::OK();
  };
  M3_RETURN_IF_ERROR(counter("passes", &out.passes));
  M3_RETURN_IF_ERROR(counter("chunks", &out.chunks));
  M3_RETURN_IF_ERROR(counter("prefetches", &out.prefetches));
  M3_RETURN_IF_ERROR(counter("prefetch_bytes", &out.prefetch_bytes));
  M3_RETURN_IF_ERROR(counter("evictions", &out.evictions));
  M3_RETURN_IF_ERROR(counter("bytes_evicted", &out.bytes_evicted));
  M3_RETURN_IF_ERROR(counter("prefetch_hits", &out.prefetch_hits));
  M3_RETURN_IF_ERROR(counter("stalls", &out.stalls));
  M3_RETURN_IF_ERROR(counter("stall_bytes", &out.stall_bytes));
  M3_RETURN_IF_ERROR(
      counter("prefetch_unclassified", &out.prefetch_unclassified));
  M3_RETURN_IF_ERROR(counter("backend_submits", &out.backend_submits));
  M3_RETURN_IF_ERROR(counter("backend_completions", &out.backend_completions));
  M3_RETURN_IF_ERROR(counter("backend_fallbacks", &out.backend_fallbacks));
  M3_RETURN_IF_ERROR(seconds("prefetch_seconds", &out.prefetch_seconds));
  M3_RETURN_IF_ERROR(seconds("compute_seconds", &out.compute_seconds));
  M3_RETURN_IF_ERROR(seconds("retire_seconds", &out.retire_seconds));
  M3_RETURN_IF_ERROR(seconds("evict_seconds", &out.evict_seconds));
  M3_RETURN_IF_ERROR(seconds("drive_seconds", &out.drive_seconds));
  // compute_p*/stall_p* are derived from the histograms, which ToJson()
  // does not serialize; the parsed stats carry empty histograms.
  return out;
}

}  // namespace m3::exec
