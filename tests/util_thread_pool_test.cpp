#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace oms::util {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(0, 1000, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleElementRange) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, 4, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 3U);
    EXPECT_EQ(hi, 4U);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, FewerItemsThanThreads) {
  ThreadPool pool(16);
  std::vector<std::atomic<int>> touched(3);
  pool.parallel_for(0, 3, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) touched[i].fetch_add(1);
  });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, SumReduction) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(1, 10001, [&](std::size_t lo, std::size_t hi) {
    long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), 10000L * 10001L / 2);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.thread_count(), 1U);
}

TEST(ThreadPool, SetGlobalThreadsFailsOnceGlobalExists) {
  (void)ThreadPool::global();
  EXPECT_FALSE(ThreadPool::set_global_threads(2));
}

TEST(ThreadPool, ParallelTasksRunsEachIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  pool.parallel_tasks(257, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelTasksZeroAndOne) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_tasks(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  std::size_t seen = 99;
  pool.parallel_tasks(1, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0U);
}

TEST(ThreadPool, ParallelTasksNestedInsidePoolTaskDoesNotDeadlock) {
  // The whole point of parallel_tasks: a task already running on the pool
  // can fan out again. With 2 workers and 4 outer chunks, the inner calls
  // find every worker busy — the callers must drain their own indices.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      pool.parallel_tasks(8, [&](std::size_t) { total.fetch_add(1); });
    }
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPool, ParallelTasksConcurrentCallers) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      pool.parallel_tasks(100, [&](std::size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, ParallelTasksReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> count{0};
    pool.parallel_tasks(50, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPool, ParallelTasksRethrowsAfterEveryTaskRan) {
  // A throwing task neither kills a worker nor returns early: every other
  // index still runs, and the caller sees the exception afterwards.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(64);
  EXPECT_THROW(pool.parallel_tasks(64,
                                   [&](std::size_t i) {
                                     touched[i].fetch_add(1);
                                     if (i % 16 == 5) {
                                       throw std::invalid_argument("task");
                                     }
                                   }),
               std::invalid_argument);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  std::atomic<int> after{0};
  pool.parallel_tasks(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ParallelForRethrowsAfterEveryChunkRan) {
  // Same contract as parallel_tasks: a throwing chunk neither ends the
  // process nor returns early, and the pool is usable afterwards.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(100);
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [&](std::size_t lo, std::size_t hi) {
                                   for (std::size_t i = lo; i < hi; ++i) {
                                     touched[i].fetch_add(1);
                                   }
                                   if (lo == 0) {
                                     throw std::invalid_argument("chunk");
                                   }
                                 }),
               std::invalid_argument);
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
  std::atomic<int> after{0};
  pool.parallel_for(0, 10, [&](std::size_t lo, std::size_t hi) {
    after.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, ParallelForKeepsStaticChunks) {
  // min(range, threads) chunks of ceil(range / chunks) indices each: the
  // chunk ranges depend only on the range and the pool size.
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for(3, 13, [&](std::size_t lo, std::size_t hi) {
    const std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(lo, hi);
  });
  std::sort(chunks.begin(), chunks.end());
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {3, 6}, {6, 9}, {9, 12}, {12, 13}};
  EXPECT_EQ(chunks, expected);
}

TEST(BoundedQueue, FifoOrderSingleThread) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3U);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(7));
  q.close();
  EXPECT_FALSE(q.push(8));  // closed: push fails
  EXPECT_EQ(q.pop(), 7);    // pending item still delivered
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, BlockedPushUnblocksWhenConsumerPops) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the consumer pops
    pushed.store(true);
  });
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueue, BlockedPushUnblocksOnClose) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
  q.close();
  producer.join();
}

TEST(BoundedQueue, ManyProducersManyConsumersDeliverEverythingOnce) {
  BoundedQueue<int> q(8);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) seen[*item].fetch_add(1);
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(BoundedQueue, TryPushNeverBlocks) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: rejected, not blocked
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));  // room again
  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: rejected
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(BoundedQueue, PushForTimesOutWhenFull) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.push_for(2, std::chrono::milliseconds(20)));
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(15));
  EXPECT_EQ(q.size(), 1U);  // the rejected item was dropped, not queued
}

TEST(BoundedQueue, PushForSucceedsWhenConsumerMakesRoom) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    // Generous deadline: the consumer pops long before it expires.
    EXPECT_TRUE(q.push_for(2, std::chrono::seconds(30)));
    pushed.store(true);
  });
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueue, PushForFailsPromptlyOnCloseRace) {
  // The closed-queue race: a producer parked in push_for must observe a
  // concurrent close() and return false well before its deadline, and a
  // producer that calls push_for after close must fail immediately even
  // when there is room.
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::atomic<bool> returned{false};
  std::thread producer([&] {
    EXPECT_FALSE(q.push_for(2, std::chrono::seconds(30)));
    returned.store(true);
  });
  q.close();
  producer.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(q.pop(), 1);  // close drains pending items
  // Room available now, but the queue is closed: fail without waiting.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.push_for(3, std::chrono::seconds(30)));
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
}

TEST(BoundedQueue, MoveOnlyItems) {
  BoundedQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.push(std::make_unique<int>(42)));
  auto out = q.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 42);
}

}  // namespace
}  // namespace oms::util
