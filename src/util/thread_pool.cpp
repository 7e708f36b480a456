#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace oms::util {

ThreadPool::ThreadPool(std::size_t threads) {
  std::size_t n = threads;
  if (n == 0) {
    n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t total = end - begin;
  const std::size_t n_chunks =
      std::min(total, std::max<std::size_t>(1, thread_count()));
  const std::size_t chunk = (total + n_chunks - 1) / n_chunks;
  parallel_tasks(n_chunks, [&](std::size_t c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo < hi) fn(lo, hi);
  });
}

void ThreadPool::parallel_tasks(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }

  // Shared by the caller and any helper task still queued when the call
  // returns; helpers that wake late see next_ >= n and exit immediately.
  struct State {
    std::function<void(std::size_t)> fn;
    std::size_t n;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::exception_ptr error;  ///< First exception fn threw; under done_mutex.
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;

  const auto drain = [](State& s) {
    for (;;) {
      const std::size_t i = s.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s.n) return;
      try {
        s.fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(s.done_mutex);
        if (!s.error) s.error = std::current_exception();
      }
      if (s.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == s.n) {
        const std::lock_guard<std::mutex> lock(s.done_mutex);
        s.done_cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(thread_count(), n - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace([state, drain] { drain(*state); });
    }
  }
  cv_.notify_all();

  drain(*state);  // The caller works too — the no-deadlock guarantee.

  std::unique_lock lock(state->done_mutex);
  state->done_cv.wait(lock, [&] {
    return state->completed.load(std::memory_order_acquire) == state->n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {
// set_global_threads must act before the lazily constructed global pool
// exists; the request and the built flag live outside the function-local
// static so both sides can see them.
std::atomic<std::size_t> g_global_threads_request{0};
std::atomic<bool> g_global_pool_built{false};
}  // namespace

ThreadPool& ThreadPool::global() {
  g_global_pool_built.store(true, std::memory_order_release);
  static ThreadPool pool(
      g_global_threads_request.load(std::memory_order_acquire));
  return pool;
}

bool ThreadPool::set_global_threads(std::size_t threads) {
  if (g_global_pool_built.load(std::memory_order_acquire)) return false;
  g_global_threads_request.store(threads, std::memory_order_release);
  return !g_global_pool_built.load(std::memory_order_acquire);
}

}  // namespace oms::util
