// Fixture (never compiled): serialization that forgot `lost_chunks`.
#include "exec/pipeline_stats.h"

namespace m3::exec {

PipelineStats& PipelineStats::operator+=(const PipelineStats& rhs) {
  passes += rhs.passes;
  return *this;
}

std::string PipelineStats::ToJson() const {
  return util::StrFormat("{\"passes\": %llu}",
                         static_cast<unsigned long long>(passes));
}

util::Result<PipelineStats> PipelineStats::FromJson(
    const util::JsonValue& value) {
  PipelineStats out;
  out.passes = static_cast<uint64_t>(value.NumberOr("passes", 0));
  return out;
}

}  // namespace m3::exec
