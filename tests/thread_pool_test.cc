#include "util/thread_pool.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace pisrep::util {
namespace {

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); }).get();
  EXPECT_EQ(ran.load(std::memory_order_relaxed), 1);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedWork) {
  // Destroying the pool must let every already-queued task run: queue far
  // more tasks than workers so most are still pending when the destructor
  // starts.
  std::atomic<int> ran{0};
  constexpr int kTasks = 200;
  {
    ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.Submit([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destructor: drain, then join.
  }
  EXPECT_EQ(ran.load(std::memory_order_relaxed), kTasks);
}

TEST(ThreadPoolTest, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto future = pool.Submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives the throwing task.
  std::atomic<bool> ok{false};
  pool.Submit([&] { ok = true; }).get();
  EXPECT_TRUE(ok.load(std::memory_order_relaxed));
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, [&](std::size_t, std::size_t) { calls.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(calls.load(std::memory_order_relaxed), 0);
}

TEST(ThreadPoolTest, ParallelForSizeOneRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::size_t seen_begin = 99, seen_end = 99;
  pool.ParallelFor(1, [&](std::size_t begin, std::size_t end) {
    calls.fetch_add(1, std::memory_order_relaxed);
    seen_begin = begin;
    seen_end = end;
  });
  EXPECT_EQ(calls.load(std::memory_order_relaxed), 1);
  EXPECT_EQ(seen_begin, 0u);
  EXPECT_EQ(seen_end, 1u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Shared() keeps no workers: its chunks run on threads started per call.
  for (ThreadPool* p : {&pool, &ThreadPool::Shared()}) {
    for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      p->ParallelFor(n, [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1)
            << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForPropagatesChunkException) {
  ThreadPool pool(4);
  for (ThreadPool* p : {&pool, &ThreadPool::Shared()}) {
    // The caller's chunk throws, then (when there are workers) another.
    for (std::size_t thrower : {0u, p->size() > 1 ? 50u : 0u}) {
      std::atomic<std::size_t> visited{0};
      EXPECT_THROW(p->ParallelFor(100,
                                  [&](std::size_t begin, std::size_t end) {
                                    visited.fetch_add(
                                        end - begin,
                                        std::memory_order_relaxed);
                                    if (begin <= thrower && thrower < end) {
                                      throw std::runtime_error("chunk");
                                    }
                                  }),
                   std::runtime_error);
      // No partial abandonment: every chunk was attempted before the
      // rethrow.
      EXPECT_EQ(visited.load(std::memory_order_relaxed), 100u);
    }
  }
}

TEST(ThreadPoolTest, ParallelForUsableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(10,
                                [](std::size_t, std::size_t) {
                                  throw std::runtime_error("x");
                                }),
              std::runtime_error);
  std::atomic<std::size_t> total{0};
  pool.ParallelFor(10, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(std::memory_order_relaxed), 10u);
}

}  // namespace
}  // namespace pisrep::util
