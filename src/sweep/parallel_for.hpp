// The one parallel loop of the sweep engine.
//
// Every sweep point is an independent, seeded `Simulator` that writes into
// its own pre-sized slot, so a loop over indices is the only parallel
// primitive the project needs. Tasks are coarse (milliseconds to seconds
// each): a worker that finishes early takes the next index, and there is
// nothing to steal. The loop never touches simulation state; determinism
// is the caller's job (seed every index up front, write results by index).
#pragma once

#include <cstddef>
#include <functional>
#include <string>

namespace pdos::sweep {

/// The most threads a loop, and worker processes a campaign, may use. Every
/// count a user supplies is checked before anything starts, so a typo such
/// as `threads = 40000` fails instead of asking the OS for 40,000 threads.
inline constexpr int kMaxWorkers = 1024;

/// Throws ParameterError "<at>: must be at most 1024, got <count>" when
/// `count` exceeds kMaxWorkers.
void check_worker_count(int count, const std::string& at);

/// max(1, std::thread::hardware_concurrency()), capped at kMaxWorkers.
int default_threads();

/// Calls `fn(i, worker)` once for each i in [0, n) on min(threads, n)
/// workers (`threads <= 0`: default_threads()) and returns when all have
/// run. The caller is worker 0 and the others are threads started for the
/// call, so a one-thread loop starts none. Indices go out in order from one
/// atomic counter. A worker runs one index at a time, so per-worker state
/// indexed by `worker` needs no lock. An index that throws does not stop
/// the others: the first exception is rethrown at the end. If a thread
/// cannot be started, the workers already running take over its indices.
void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace pdos::sweep
