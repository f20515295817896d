// Concurrency stress suite (ctest label: tsan-stress).
//
// Hammers the two genuinely multi-threaded subsystems — obs::MetricsRegistry
// and util::ParallelFor — from several threads at once and asserts exact
// post-quiesce invariants. The suite is the workload for the ThreadSanitizer
// CI gate (`-DSANITIZER=thread`): every access pattern a production
// component may use appears here, so a data race regression in either
// subsystem trips TSan deterministically rather than one run in a thousand.
// It also runs under the default and address-sanitizer configurations,
// where the invariant checks still bite even without race detection.
//
// House rules apply to tests too: every atomic names its memory_order
// (pisrep-lint `atomic-memory-order`), and all waiting is join/future
// based — no sleeps, so the suite is load-tolerant on 1-CPU CI runners.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "util/parallel_for.h"

namespace pisrep {
namespace {

// Thread/iteration counts are deliberately modest: TSan instruments every
// access (~5-15x slowdown) and the CI runner may have a single core. The
// interleavings that matter come from contention on one cache line, not
// from volume.
constexpr std::size_t kThreads = 4;
constexpr std::size_t kIters = 2000;

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, CounterHammerSumsExactly) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("pisrep_test_hits_total");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (std::size_t i = 0; i < kIters; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  // Counters are relaxed atomics: no update may be lost, and after the
  // joins (which synchronize) the total is exact.
  EXPECT_EQ(counter->Value(), kThreads * kIters);
}

TEST(ConcurrencyStress, RegistrationRacesReturnOneHandlePerName) {
  // All threads ask for the same small name set while others hammer
  // updates: registration (mutex-guarded map) races against itself and
  // against lock-free updates on already-registered handles.
  obs::MetricsRegistry registry;
  constexpr std::size_t kNames = 8;
  std::vector<std::vector<obs::Counter*>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &seen, t] {
      seen[t].resize(kNames);
      for (std::size_t i = 0; i < kIters; ++i) {
        std::size_t n = i % kNames;
        obs::Counter* c = registry.GetCounter(
            "pisrep_test_reg_total" + std::to_string(n));
        c->Increment();
        seen[t][n] = c;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.MetricCount(), kNames);
  // Idempotent registration: every thread got the same stable pointer.
  for (std::size_t n = 0; n < kNames; ++n) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][n], seen[0][n]) << "name " << n;
    }
  }
  std::uint64_t total = 0;
  for (std::size_t n = 0; n < kNames; ++n) total += seen[0][n]->Value();
  EXPECT_EQ(total, kThreads * kIters);
}

TEST(ConcurrencyStress, SnapshotDuringUpdatesIsMonotonicAndExactAfterJoin) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("pisrep_test_snap_total");
  obs::Gauge* gauge = registry.GetGauge("pisrep_test_depth");
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([counter, gauge] {
      for (std::size_t i = 0; i < kIters; ++i) {
        counter->Increment();
        gauge->Add(1);
        gauge->Add(-1);
      }
    });
  }
  // A reader thread snapshots continuously while writers run; counter
  // values it sees must be monotone (counters never go backwards).
  std::thread reader([&registry, &done] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      for (const obs::MetricSnapshot& m : registry.Snapshot()) {
        if (m.type != obs::MetricSnapshot::Type::kCounter) continue;
        EXPECT_GE(m.counter_value, last);
        last = m.counter_value;
      }
    }
  });
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();
  // Post-quiesce totals are exact (Snapshot contract, DESIGN.md §10).
  for (const obs::MetricSnapshot& m : registry.Snapshot()) {
    if (m.type == obs::MetricSnapshot::Type::kCounter) {
      EXPECT_EQ(m.counter_value, kThreads * kIters);
    }
    if (m.type == obs::MetricSnapshot::Type::kGauge) {
      EXPECT_EQ(m.gauge_value, 0);
    }
  }
}

TEST(ConcurrencyStress, HistogramBucketsSumToCount) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram(
      "pisrep_test_latency", {0.001, 0.01, 0.1, 1.0});
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([histogram, t] {
      for (std::size_t i = 0; i < kIters; ++i) {
        // Spread observations across every bucket including +Inf.
        histogram->Observe(0.0005 * static_cast<double>((t + i) % 6000));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(histogram->Count(), kThreads * kIters);
  std::vector<std::uint64_t> buckets = histogram->BucketCounts();
  ASSERT_EQ(buckets.size(), histogram->bounds().size() + 1);
  std::uint64_t in_buckets =
      std::accumulate(buckets.begin(), buckets.end(), std::uint64_t{0});
  EXPECT_EQ(in_buckets, histogram->Count());
}

TEST(ConcurrencyStress, EnabledFlipsRaceUpdatesWithoutCorruption) {
  // The kill switch flips while updates fly. Any update may or may not
  // land (that is the switch's contract) but the final value is bounded
  // and nothing tears or races.
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("pisrep_test_flip_total");
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([counter] {
      for (std::size_t i = 0; i < kIters; ++i) counter->Increment();
    });
  }
  std::thread flipper([&registry] {
    for (std::size_t i = 0; i < 200; ++i) registry.set_enabled(i % 2 == 0);
  });
  for (std::thread& t : writers) t.join();
  flipper.join();
  registry.set_enabled(true);
  EXPECT_LE(counter->Value(), kThreads * kIters);
}

// ---------------------------------------------------------------------------
// ParallelFor
// ---------------------------------------------------------------------------

TEST(ConcurrencyStress, ConcurrentParallelForCallersCoverTheirRanges) {
  // ParallelFor is documented as callable from any thread; several callers
  // fan out at once, each with its own disjoint output slots (the
  // aggregation job's phase-1 pattern).
  constexpr std::size_t kCallers = 3;
  constexpr std::size_t kRange = 5000;
  std::vector<std::vector<std::uint32_t>> hits(
      kCallers, std::vector<std::uint32_t>(kRange, 0));
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&hits, c] {
      for (int repeat = 0; repeat < 5; ++repeat) {
        util::ParallelFor(kThreads, kRange,
                          [&hits, c](std::size_t begin, std::size_t end) {
                            for (std::size_t i = begin; i < end; ++i) {
                              hits[c][i] += 1;
                            }
                          });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kRange; ++i) {
      ASSERT_EQ(hits[c][i], 5u) << "caller " << c << " index " << i;
    }
  }
}

TEST(ConcurrencyStress, PoolWorkersUpdatingMetricsEndToEnd) {
  // The production composition: fanned-out chunks bump metrics, then the
  // coordinating thread snapshots — MetricsRegistry and ParallelFor
  // synchronization exercised against each other.
  obs::MetricsRegistry registry;
  obs::Counter* processed =
      registry.GetCounter("pisrep_test_processed_total");
  constexpr std::size_t kItems = 20000;
  util::ParallelFor(kThreads, kItems,
                    [processed](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        processed->Increment();
                      }
                    });
  EXPECT_EQ(processed->Value(), kItems);
  ASSERT_EQ(registry.Snapshot().size(), 1u);
  EXPECT_EQ(registry.Snapshot()[0].counter_value, kItems);
}

}  // namespace
}  // namespace pisrep
