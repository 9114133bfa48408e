#ifndef M3_OBS_RESIDENCY_SAMPLER_H_
#define M3_OBS_RESIDENCY_SAMPLER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace m3::io {
class MemoryMappedFile;
}  // namespace m3::io

namespace m3::obs {

/// \brief Background thread that turns point-in-time residency into
/// counter tracks on the active trace.
///
/// Every `period_seconds` (while tracing is enabled) it emits:
///   - "residency" / resident_bytes — mincore(2)-resident bytes summed
///     over the registered mappings (the time-resolved view of the
///     trailing eviction window doing its job);
///   - "rss" / rss_bytes — process resident set from /proc/self/statm.
///
/// Engine I/O needs no track of its own: the "prefetch"/"evict" spans
/// carry their `bytes`, and the span of the stage that judges a chunk's
/// prefetch race ("compute", or "retire" for retire-stage scans) carries
/// its `race`, so the span lanes already show where stalls land.
///
/// Mappings register/unregister via ScopedMappingRegistration (a mapping
/// must outlive its registration — MappedDataset owns one for exactly its
/// own lifetime). Sampling a registered mapping that was explicitly
/// Unmap()ed early is benign: CountResidentPages fails and the sample is
/// skipped.
class ResidencySampler {
 public:
  /// The process-wide sampler (leaky singleton, like the TraceRecorder).
  static ResidencySampler& Get();

  /// Starts the sampling thread (idempotent). The thread itself is cheap
  /// while tracing is disabled — it just sleeps — but Stop() is the
  /// expected pairing from the trace session teardown.
  void Start(double period_seconds = 0.01);

  /// Stops and joins the sampling thread (idempotent).
  void Stop();

  bool running() const;

  /// \name Mapping registry (prefer ScopedMappingRegistration).
  /// @{
  void RegisterMapping(const io::MemoryMappedFile* mapping);
  void UnregisterMapping(const io::MemoryMappedFile* mapping);
  /// @}

  /// Takes one sample synchronously on the calling thread (tests; also
  /// the final sample the session takes before draining so short runs
  /// always carry counter tracks).
  void SampleOnce();

  ResidencySampler(const ResidencySampler&) = delete;
  ResidencySampler& operator=(const ResidencySampler&) = delete;

 private:
  ResidencySampler() = default;
  void Loop();

  /// Serializes Start/Stop transitions end to end (held across the
  /// Stop() join). Without it, two racing Stop()s both join `thread_`
  /// (UB), and a Start() racing a Stop() can observe `running_` still
  /// true and return with no thread actually left running. Lock order:
  /// lifecycle_mu_ before mu_; Loop() only ever takes mu_, so holding
  /// lifecycle_mu_ across the join cannot deadlock.
  std::mutex lifecycle_mu_;
  /// Guards the sampler state below (shared with the sampling thread).
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::thread thread_;
  bool running_ = false;
  bool stop_requested_ = false;
  double period_seconds_ = 0.01;
  std::vector<const io::MemoryMappedFile*> mappings_;
};

/// \brief RAII registration of a mapping with the sampler. Created by
/// MappedDataset when a trace session is active.
class ScopedMappingRegistration {
 public:
  explicit ScopedMappingRegistration(const io::MemoryMappedFile* mapping)
      : mapping_(mapping) {
    ResidencySampler::Get().RegisterMapping(mapping_);
  }
  ~ScopedMappingRegistration() {
    ResidencySampler::Get().UnregisterMapping(mapping_);
  }

  ScopedMappingRegistration(const ScopedMappingRegistration&) = delete;
  ScopedMappingRegistration& operator=(const ScopedMappingRegistration&) =
      delete;

 private:
  const io::MemoryMappedFile* mapping_;
};

}  // namespace m3::obs

#endif  // M3_OBS_RESIDENCY_SAMPLER_H_
