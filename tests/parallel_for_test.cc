#include "util/parallel_for.h"

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/mutex.h"

namespace pisrep::util {
namespace {

TEST(ParallelForTest, ParallelForEmptyRangeIsNoOp) {
  std::atomic<int> calls{0};
  EXPECT_EQ(ParallelFor(4, 0,
                        [&](std::size_t, std::size_t) {
                          calls.fetch_add(1, std::memory_order_relaxed);
                        }),
            0u);
  EXPECT_EQ(calls.load(std::memory_order_relaxed), 0);
}

TEST(ParallelForTest, ParallelForSizeOneRunsInline) {
  // One chunk, on the caller: at width 0 or 1 whatever the range, and at
  // any width when the range holds one element.
  const std::thread::id caller = std::this_thread::get_id();
  for (auto [width, n] : {std::pair<std::size_t, std::size_t>{0, 10},
                          {1, 10},
                          {4, 1}}) {
    std::atomic<int> calls{0};
    std::size_t seen_begin = 99, seen_end = 99;
    std::thread::id ran_on;
    EXPECT_EQ(ParallelFor(width, n,
                          [&](std::size_t begin, std::size_t end) {
                            calls.fetch_add(1, std::memory_order_relaxed);
                            seen_begin = begin;
                            seen_end = end;
                            ran_on = std::this_thread::get_id();
                          }),
              1u)
        << "width=" << width << " n=" << n;
    EXPECT_EQ(calls.load(std::memory_order_relaxed), 1);
    EXPECT_EQ(seen_begin, 0u);
    EXPECT_EQ(seen_end, n);
    EXPECT_EQ(ran_on, caller);
  }
}

TEST(ParallelForTest, ParallelForCoversRangeExactlyOnce) {
  for (std::size_t width : {2u, 4u}) {
    for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelFor(width, n, [&](std::size_t begin, std::size_t end) {
        ASSERT_LE(begin, end);
        ASSERT_LE(end, n);
        for (std::size_t i = begin; i < end; ++i) {
          hits[i].fetch_add(1, std::memory_order_relaxed);
        }
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(std::memory_order_relaxed), 1)
            << "width=" << width << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ParallelForTest, ReturnsTheChunksItRanNeverMoreThanWidth) {
  for (std::size_t width : {2u, 3u, 4u, 8u}) {
    for (std::size_t n : {2u, 5u, 7u, 64u, 1001u}) {
      Mutex mu;
      std::set<std::pair<std::size_t, std::size_t>> chunks;
      const std::size_t ran =
          ParallelFor(width, n, [&](std::size_t begin, std::size_t end) {
            MutexLock lock(&mu);
            chunks.emplace(begin, end);
          });
      EXPECT_EQ(ran, chunks.size()) << "width=" << width << " n=" << n;
      EXPECT_LE(ran, width) << "width=" << width << " n=" << n;
      EXPECT_GT(ran, 1u) << "width=" << width << " n=" << n;
    }
  }
}

TEST(ParallelForTest, ParallelForPropagatesChunkException) {
  // The caller's chunk throws, then a started thread's chunk.
  for (std::size_t thrower : {0u, 50u}) {
    std::atomic<std::size_t> visited{0};
    EXPECT_THROW(ParallelFor(4, 100,
                             [&](std::size_t begin, std::size_t end) {
                               visited.fetch_add(end - begin,
                                                 std::memory_order_relaxed);
                               if (begin <= thrower && thrower < end) {
                                 throw std::runtime_error("chunk");
                               }
                             }),
                 std::runtime_error)
        << "thrower=" << thrower;
    // No partial abandonment: every chunk was attempted before the
    // rethrow.
    EXPECT_EQ(visited.load(std::memory_order_relaxed), 100u);
  }
}

TEST(ParallelForTest, ParallelForUsableAfterException) {
  EXPECT_THROW(ParallelFor(2, 10,
                           [](std::size_t, std::size_t) {
                             throw std::runtime_error("x");
                           }),
               std::runtime_error);
  std::atomic<std::size_t> total{0};
  ParallelFor(2, 10, [&](std::size_t begin, std::size_t end) {
    total.fetch_add(end - begin, std::memory_order_relaxed);
  });
  EXPECT_EQ(total.load(std::memory_order_relaxed), 10u);
}

}  // namespace
}  // namespace pisrep::util
