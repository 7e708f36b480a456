// Work-queue primitives for the library's concurrency:
//   * ThreadPool     — minimal fixed-size pool with one fork-join,
//                      parallel_tasks, in which the caller works too;
//                      parallel_for is its statically chunked range form.
//                      Search and encoding over tens of thousands of spectra
//                      are embarrassingly parallel; static chunking keeps the
//                      partitioning deterministic so results do not depend on
//                      scheduling order.
//   * BoundedQueue<T> — blocking MPMC queue with a capacity bound and close
//                      semantics; the hand-off between core::QueryEngine's
//                      streaming stages (preprocess → encode → search →
//                      rescore → emit).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <queue>
#include <thread>
#include <utility>
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

/// Blocking bounded FIFO queue linking two pipeline stages. push() blocks
/// while the queue is full; pop() blocks while it is empty; close() wakes
/// everyone — subsequent push() calls fail and pop() drains the remaining
/// items before returning nullopt. All operations are safe from any number
/// of producer and consumer threads.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks until there is room (or the queue closes). Returns false and
  /// drops `item` if the queue was closed.
  bool push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push: returns false (dropping `item`) when the queue is
  /// full or closed, without waiting. The reject arm of admission control.
  bool try_push(T item) {
    {
      const std::lock_guard lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Bounded-wait push: blocks up to `timeout` for room. Returns false
  /// (dropping `item`) on timeout or when the queue closes while waiting —
  /// the deadline arm of admission control, so a back-pressured producer
  /// can give up instead of stalling its client forever.
  template <typename Rep, typename Period>
  bool push_for(T item, std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock lock(mutex_);
    if (!not_full_.wait_for(lock, timeout, [this] {
          return closed_ || items_.size() < capacity_;
        })) {
      return false;  // timed out, still full
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item is available (or the queue closes and drains).
  /// Returns nullopt only when the queue is closed and empty.
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return out;
  }

  /// Ends the stream: pending items stay poppable, new pushes fail.
  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace oms::util
