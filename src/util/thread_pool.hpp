// The library's one thread pool: a minimal fixed-size pool with one
// fork-join, parallel_tasks, in which the caller works too (parallel_for is
// its statically chunked range form), and one fire-and-forget post, which
// core::QueryEngine uses to run its query blocks. Search and encoding over
// tens of thousands of spectra are embarrassingly parallel; static chunking
// keeps the partitioning deterministic so results do not depend on
// scheduling order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace oms::util {

class ThreadPool {
 public:
  /// Creates a pool with `threads` workers (0 → hardware_concurrency).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return workers_.size();
  }

  /// Runs fn(begin..end) in min(end - begin, thread_count()) static chunks
  /// and blocks until all of them complete. fn receives a half-open index
  /// range [chunk_begin, chunk_end); the chunk ranges depend only on the
  /// range and the pool size. The chunks run as parallel_tasks, so the
  /// caller works too, the call is safe from inside a pool task, and if fn
  /// throws, every other chunk still runs and the first exception is
  /// rethrown in the caller.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs fn(i) for every i in [0, n) and blocks until all calls complete.
  /// The *calling thread claims tasks itself* while pool workers help
  /// out, so this is safe to invoke from inside a pool task: even if
  /// every worker is busy (or blocked in an outer fork-join), the caller
  /// drains the whole index range alone and nested parallelism cannot
  /// deadlock. Task indices are claimed from a shared atomic counter; fn
  /// must tolerate any execution order. If fn throws, every other task
  /// still runs and the first exception is rethrown in the caller once
  /// all of them have finished.
  void parallel_tasks(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

  /// Queues `task` to run once on a pool worker and returns at once. The
  /// task must not throw, and must not wait for work that only another
  /// queued task can do: every worker may be busy, so a queued task may
  /// start late. A caller that needs the work done runs it itself (as
  /// parallel_tasks' caller does) and lets the task find nothing left.
  void post(std::function<void()> task);

  /// Global pool shared by the library (lazily constructed).
  [[nodiscard]] static ThreadPool& global();

  /// Requests `threads` workers (0 → hardware_concurrency) for the global
  /// pool. Must be called before the first global() use — the pool is
  /// created once and never resized. Returns false (and changes nothing)
  /// if the global pool already exists. Wired to the examples' --threads
  /// flag.
  static bool set_global_threads(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace oms::util
