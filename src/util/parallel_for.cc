#include "util/parallel_for.h"

#include <algorithm>
#include <exception>
#include <future>
#include <thread>
#include <utility>
#include <vector>

namespace pisrep::util {

std::size_t HardwareWidth() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::size_t ParallelFor(
    std::size_t width, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return 0;
  const std::size_t shards = std::min(n, std::max<std::size_t>(1, width));
  const std::size_t chunk = (n + shards - 1) / shards;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  if (chunks == 1) {
    body(0, n);
    return 1;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(chunks - 1);
  // A jthread joins on scope exit, so even a failed spawn leaves none
  // running.
  std::vector<std::jthread> threads;
  threads.reserve(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    std::packaged_task<void()> task([&body, begin, end] { body(begin, end); });
    pending.push_back(task.get_future());
    threads.emplace_back(std::move(task));
  }
  // The calling thread takes the first chunk instead of idling.
  std::exception_ptr first;
  try {
    body(0, chunk);
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
  return chunks;
}

}  // namespace pisrep::util
