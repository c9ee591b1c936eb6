#include "sweep/parallel_for.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/assert.hpp"

namespace pdos::sweep {

void check_worker_count(int count, const std::string& at) {
  PDOS_REQUIRE(count <= kMaxWorkers,
               at + ": must be at most " + std::to_string(kMaxWorkers) +
                   ", got " + std::to_string(count));
}

int default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, unsigned{kMaxWorkers}));
}

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (threads <= 0) threads = default_threads();
  check_worker_count(threads, "parallel_for: threads");
  const std::size_t workers = std::min(static_cast<std::size_t>(threads), n);

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&](std::size_t worker) {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i, worker);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> started;
  started.reserve(workers > 0 ? workers - 1 : 0);
  try {
    for (std::size_t w = 1; w < workers; ++w) started.emplace_back(work, w);
  } catch (...) {
    // No more threads to be had: the caller and the threads already
    // running share the remaining indices, so every index still runs.
  }
  work(0);
  for (std::thread& thread : started) thread.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pdos::sweep
