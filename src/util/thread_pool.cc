#include "util/thread_pool.h"

#include <pthread.h>

#include <algorithm>

namespace m3::util {

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
  return future;
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        // shutting_down_ and no work left.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

namespace {

// fork() copies the global pool object but none of its threads: a child
// that submitted to it would block forever on tasks nobody runs. The
// child handler drops the inherited pool (leaked — its threads and locks
// belong to the parent), so the child's first GlobalThreadPool() builds a
// fresh one. prepare/parent hold the lock across fork so the child never
// inherits it mid-construction.
std::mutex global_pool_mu;
ThreadPool* global_pool = nullptr;  // guarded by global_pool_mu

void LockGlobalPoolForFork() { global_pool_mu.lock(); }
void UnlockGlobalPoolAfterFork() { global_pool_mu.unlock(); }
void DropGlobalPoolInChild() {
  global_pool = nullptr;
  global_pool_mu.unlock();
}

}  // namespace

ThreadPool& GlobalThreadPool() {
  static bool fork_handlers_registered = false;
  std::lock_guard<std::mutex> lock(global_pool_mu);
  if (global_pool == nullptr) {
    if (!fork_handlers_registered) {
      fork_handlers_registered =
          ::pthread_atfork(LockGlobalPoolForFork, UnlockGlobalPoolAfterFork,
                           DropGlobalPoolInChild) == 0;
    }
    global_pool =
        new ThreadPool(std::max(1u, std::thread::hardware_concurrency()));
  }
  return *global_pool;
}

std::vector<std::pair<size_t, size_t>> PartitionRange(size_t begin,
                                                      size_t end,
                                                      size_t grain,
                                                      size_t max_chunks) {
  std::vector<std::pair<size_t, size_t>> ranges;
  if (begin >= end) {
    return ranges;
  }
  grain = std::max<size_t>(1, grain);
  max_chunks = std::max<size_t>(1, max_chunks);
  const size_t total = end - begin;
  const size_t grain_chunks = (total + grain - 1) / grain;
  const size_t num_chunks = std::min(grain_chunks, max_chunks);
  const size_t chunk = (total + num_chunks - 1) / num_chunks;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = begin + c * chunk;
    const size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) {
      break;
    }
    ranges.emplace_back(lo, hi);
  }
  return ranges;
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& fn,
                 ThreadPool* pool) {
  ParallelForIndexed(
      begin, end, grain,
      [&fn](size_t, size_t lo, size_t hi) { fn(lo, hi); }, pool);
}

void ParallelForIndexed(
    size_t begin, size_t end, size_t grain,
    const std::function<void(size_t, size_t, size_t)>& fn,
    ThreadPool* pool) {
  if (begin >= end) {
    return;
  }
  if (pool == nullptr) {
    pool = &GlobalThreadPool();
  }
  const auto ranges = PartitionRange(begin, end, grain, pool->num_threads());
  if (ranges.size() == 1) {
    fn(0, ranges[0].first, ranges[0].second);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(ranges.size());
  for (size_t c = 0; c < ranges.size(); ++c) {
    const auto [lo, hi] = ranges[c];
    futures.push_back(pool->Submit([&fn, c, lo, hi] { fn(c, lo, hi); }));
  }
  for (auto& future : futures) {
    future.get();
  }
}

}  // namespace m3::util
