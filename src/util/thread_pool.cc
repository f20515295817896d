#include "util/thread_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace pisrep::util {

ThreadPool::ThreadPool(std::size_t workers, bool resident)
    : width_(std::max<std::size_t>(1, workers)), resident_(resident) {
  if (!resident_) return;
  threads_.reserve(width_);
  for (std::size_t i = 0; i < width_; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::thread::hardware_concurrency(),
                         /*resident=*/false);
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    cv_.NotifyAll();
  }
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(&mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(&mu_);
      // Drain-then-exit: queued work submitted before shutdown still runs.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // packaged_task catches whatever the task throws and parks it in the
    // shared state; the exception resurfaces at future.get().
    task();
  }
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  PISREP_CHECK(resident_) << "Submit on a ThreadPool without workers";
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    MutexLock lock(&mu_);
    PISREP_CHECK(!stopping_) << "Submit on a ThreadPool being destroyed";
    queue_.push_back(std::move(packaged));
    // Notify while still holding mu_: with the old unlocked notify, a
    // last Submit racing pool destruction could touch cv_ after the
    // destructor had already drained, joined, and freed it. Under the
    // lock, the destructor (which must take mu_ to set stopping_) cannot
    // start tearing down until this notify has finished.
    cv_.NotifyOne();
  }
  return future;
}

void ThreadPool::ParallelFor(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  std::size_t shards = std::min(n, width_);
  if (shards <= 1) {
    body(0, n);
    return;
  }
  std::size_t chunk = (n + shards - 1) / shards;
  std::vector<std::future<void>> pending;
  pending.reserve(shards - 1);
  // Without resident workers each chunk gets its own thread; a jthread
  // joins on scope exit, so even a failed spawn leaves none running.
  std::vector<std::jthread> spawned;
  for (std::size_t s = 1; s < shards; ++s) {
    std::size_t begin = s * chunk;
    std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    std::function<void()> run = [&body, begin, end] { body(begin, end); };
    if (resident_) {
      pending.push_back(Submit(std::move(run)));
    } else {
      std::packaged_task<void()> task(std::move(run));
      pending.push_back(task.get_future());
      spawned.emplace_back(std::move(task));
    }
  }
  // The calling thread takes the first chunk instead of idling.
  std::exception_ptr first;
  try {
    body(0, std::min(n, chunk));
  } catch (...) {
    first = std::current_exception();
  }
  for (std::future<void>& f : pending) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void ParallelForOn(ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
  } else if (n > 0) {
    body(0, n);
  }
}

}  // namespace pisrep::util
