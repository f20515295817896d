#ifndef PISREP_UTIL_PARALLEL_FOR_H_
#define PISREP_UTIL_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace pisrep::util {

/// The host's hardware threads, at least one: how wide a server fans its
/// daily tick out.
std::size_t HardwareWidth();

/// Splits [0, n) into at most `width` contiguous chunks and runs
/// `body(begin, end)` for each: the first on the calling thread, every
/// other on a thread started for this call. Joins them all before
/// returning, so no thread outlives the call and between calls the
/// process holds none. Returns the number of chunks it ran: 0 when n == 0,
/// 1 (inline on the caller, no thread started) when width <= 1 or n == 1.
///
/// The first exception thrown by any chunk is rethrown here once every
/// chunk has run (no partial abandonment: the range is always fully
/// attempted).
///
/// It exists for one pattern: fanning out *pure reads* (chunks only read
/// shared state and fill disjoint slots) while the caller keeps every
/// write (the aggregation job's single-writer rule over
/// storage::Database). Nothing here touches util::SimClock, so simulated
/// time stays deterministic whatever the width. Callable from any thread.
std::size_t ParallelFor(
    std::size_t width, std::size_t n,
    const std::function<void(std::size_t begin, std::size_t end)>& body);

}  // namespace pisrep::util

#endif  // PISREP_UTIL_PARALLEL_FOR_H_
