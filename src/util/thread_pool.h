#ifndef M3_UTIL_THREAD_POOL_H_
#define M3_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace m3::util {

/// \brief Fixed-size worker pool executing submitted closures FIFO.
///
/// Used by the parallel linear-algebra kernels and by the cluster simulator
/// (one pool per simulated instance). Destruction drains remaining work.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Blocks until all queued work has completed, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn`; the future resolves when it has run.
  std::future<void> Submit(std::function<void()> fn);

  /// Blocks until the queue is empty and all workers are idle.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::packaged_task<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t active_ = 0;
  bool shutting_down_ = false;
};

/// \brief Process-wide pool sized to the hardware concurrency.
///
/// Lazily constructed on first use; shared by parallel kernels so that
/// nested parallel sections do not oversubscribe the machine. Fork-safe:
/// a forked child does not inherit the parent's pool (whose threads did
/// not survive the fork) and lazily builds its own.
ThreadPool& GlobalThreadPool();

/// \brief Runs fn(begin..end) partitioned across the pool in contiguous
/// blocks of at least `grain` iterations.
///
/// `fn` receives a half-open range [chunk_begin, chunk_end). Blocks until
/// every chunk has completed. Executes inline when the range is small or the
/// pool has a single worker.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn,
                 ThreadPool* pool = nullptr);

/// \brief Deterministic partition of [begin, end) into at most
/// `max_chunks` contiguous blocks of at least `grain` iterations.
///
/// ParallelFor uses exactly this partition, so callers that need
/// per-chunk state (e.g. floating-point reductions merged in a fixed
/// order) can size a slot array with it.
std::vector<std::pair<size_t, size_t>> PartitionRange(size_t begin,
                                                      size_t end,
                                                      size_t grain,
                                                      size_t max_chunks);

/// \brief ParallelFor variant passing the chunk index:
/// fn(chunk_index, chunk_begin, chunk_end).
///
/// Chunk indices are dense in [0, PartitionRange(...).size()). Reductions
/// that write per-chunk partials into slot `chunk_index` and merge slots
/// sequentially afterwards are bitwise deterministic for a fixed pool
/// size, regardless of worker scheduling.
void ParallelForIndexed(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn,
    ThreadPool* pool = nullptr);

}  // namespace m3::util

#endif  // M3_UTIL_THREAD_POOL_H_
