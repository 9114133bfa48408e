#include "core/ram_budget.h"

#include <algorithm>

#include "obs/trace_recorder.h"
#include "util/logging.h"

namespace m3 {

RamBudgetEmulator::RamBudgetEmulator(io::MemoryMappedFile* mapping,
                                     uint64_t budget_bytes,
                                     uint64_t row_bytes, uint64_t base_offset)
    : mapping_(mapping),
      budget_bytes_(budget_bytes),
      row_bytes_(row_bytes),
      base_offset_(base_offset) {
  M3_CHECK(mapping_ != nullptr, "null mapping");
  M3_CHECK(row_bytes_ > 0, "row_bytes must be positive");
}

ml::ScanHooks RamBudgetEmulator::MakeHooks() {
  ml::ScanHooks hooks;
  hooks.after_chunk = [this](size_t row_begin, size_t row_end) {
    OnChunk(row_begin, row_end);
  };
  hooks.before_pass = [this](size_t pass_index) { OnPass(pass_index); };
  return hooks;
}

void RamBudgetEmulator::OnPass(size_t) {
  ++passes_;
  // A new pass starts from row 0, so the cursor restarts there. Nothing
  // evicts the previous pass's tail (its last budget of bytes): it stays
  // resident until this scan returns to it, which is the emulator's only
  // reuse. So the budget holds at pass boundaries, while mid-pass residency
  // reaches up to two budgets (this pass's trailing window plus that tail)
  // plus readahead.
  evict_cursor_ = 0;
}

void RamBudgetEmulator::OnChunk(size_t row_begin, size_t row_end) {
  (void)row_begin;
  if (budget_bytes_ == 0) {
    return;
  }
  // Scan cursor in bytes relative to the start of the feature region.
  const uint64_t cursor = row_end * row_bytes_;
  if (cursor <= budget_bytes_) {
    return;  // the whole prefix still fits in the emulated RAM
  }
  // Evict everything more than `budget` behind the cursor.
  const uint64_t evict_end = cursor - budget_bytes_;
  if (evict_end <= evict_cursor_) {
    return;
  }
  const uint64_t offset = base_offset_ + evict_cursor_;
  const uint64_t length = evict_end - evict_cursor_;
  // The emulator is the evict stage of trainer-driven scans, so it traces
  // under the same span name as the pipeline's background evictor.
  obs::ScopedSpan span("exec", "evict");
  if (span.armed()) {
    span.AddArg("bytes", length);
  }
  // Best effort: an eviction failure only weakens the emulation.
  util::Status status = mapping_->Evict(offset, length);
  if (status.ok()) {
    ++evictions_;
    bytes_evicted_ += length;
  }
  evict_cursor_ = evict_end;
}

}  // namespace m3
