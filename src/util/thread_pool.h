#ifndef PISREP_UTIL_THREAD_POOL_H_
#define PISREP_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pisrep::util {

/// A fixed-size pool of worker threads with a FIFO task queue.
///
/// The pool exists for one purpose: fanning out *pure compute* — work that
/// only reads shared state — while a single coordinating thread keeps all
/// writes to itself (the aggregation job's single-writer rule over
/// storage::Database). The event loop stays single-threaded; nothing in the
/// pool touches util::SimClock, so determinism of simulated time is
/// unaffected by how many workers run.
///
/// Shutdown is clean and drains: the destructor lets every already-queued
/// task run to completion before joining the workers, so `Submit` followed
/// by destruction never silently drops work.
///
/// Shared() is the one pool without resident workers: each ParallelFor on
/// it starts its threads and joins them before returning.
class ThreadPool {
 public:
  /// Spawns `workers` threads. At least one worker is always created.
  explicit ThreadPool(std::size_t workers) : ThreadPool(workers, true) {}

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue, then joins every worker.
  ~ThreadPool();

  /// How many chunks a ParallelFor splits into at most.
  std::size_t size() const { return width_; }

  /// The process-wide pool, as wide as the host has hardware threads (at
  /// least one). Every server in the process fans its daily tick out over
  /// it. It keeps no worker: a ParallelFor runs its first chunk on the
  /// caller and every other chunk on a thread started for that call, and
  /// joins them all before returning, so between ticks the process holds
  /// no extra thread. Resident idle workers cost the serving path of a
  /// one-process cluster more than per-call threads do (DESIGN §9.2).
  /// Submit on it is a programming error.
  static ThreadPool& Shared();

  /// Enqueues `task` and returns a future that becomes ready when it has
  /// run. An exception thrown by the task is captured and rethrown from
  /// `future.get()` on the caller's thread. Submitting to a pool whose
  /// destructor has started, or to Shared(), is a programming error.
  std::future<void> Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Splits [0, n) into at most size() contiguous chunks and runs
  /// `body(begin, end)` for each, one chunk on the calling thread and the
  /// rest on workers. Blocks until every chunk finished. The first
  /// exception thrown by any chunk is rethrown here after all chunks have
  /// completed (no partial abandonment: the range is always fully
  /// attempted). n == 0 is a no-op; a single chunk runs inline on the
  /// caller without touching the queue.
  void ParallelFor(std::size_t n,
                   const std::function<void(std::size_t begin,
                                            std::size_t end)>& body);

 private:
  /// `resident`: start `workers` threads now (false: Shared()'s per-call
  /// threads).
  ThreadPool(std::size_t workers, bool resident);

  void WorkerLoop() EXCLUDES(mu_);

  /// Written once in the constructor, then only read — no lock needed.
  std::size_t width_;
  bool resident_;
  std::vector<std::thread> threads_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
};

/// `pool->ParallelFor(n, body)`, or `body(0, n)` on the calling thread
/// when `pool` is null: the one call for phases whose pool is optional.
void ParallelForOn(ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t begin,
                                            std::size_t end)>& body);

}  // namespace pisrep::util

#endif  // PISREP_UTIL_THREAD_POOL_H_
