// Fixture (never compiled): PipelineStats with a seeded drift field.
// `lost_chunks` is declared but serialized nowhere — m3_lint.py must
// flag it. See ../../README.md.
#ifndef FIXTURE_PIPELINE_STATS_H_
#define FIXTURE_PIPELINE_STATS_H_

#include <cstdint>
#include <string>

namespace m3::exec {

struct PipelineStats {
  uint64_t passes = 0;
  uint64_t lost_chunks = 0;  // seeded drift: in the struct, nowhere else

  PipelineStats& operator+=(const PipelineStats& rhs);
  std::string ToJson() const;
  static util::Result<PipelineStats> FromJson(const util::JsonValue& value);
};

}  // namespace m3::exec

#endif  // FIXTURE_PIPELINE_STATS_H_
