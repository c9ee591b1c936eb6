// parallel_for, the sweep engine's one parallel loop: every index runs
// exactly once on at most min(threads, n) workers, a one-thread loop runs
// on the caller, a worker id never runs two indices at once (what makes
// run_sweep's one workspace per worker safe), and the first exception
// surfaces only after every index has run.
#include "sweep/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pdos::sweep {
namespace {

TEST(ParallelFor, CoversTheFullRange) {
  for (const int threads : {1, 2, 4, 8}) {
    for (const std::size_t n : {0, 1, 3, 500}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(threads, n, [&hits](std::size_t i, std::size_t) {
        hits[i].fetch_add(1);
      });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "index " << i << " of " << n << " at " << threads << " threads";
      }
    }
  }
}

// Every hundredth index is slow, so the workers finish their shares of the
// range at different times; the shared counter still hands out each index
// exactly once.
TEST(ParallelFor, RunsEveryIndexOfAnUnevenLoop) {
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<int> count{0};
  parallel_for(4, kN, [&](std::size_t i, std::size_t) {
    if (i % 100 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    hits[i].fetch_add(1);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), static_cast<int>(kN));
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, StressManySmallIndices) {
  constexpr std::size_t kN = 20000;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::int64_t> sum{0};
  parallel_for(8, kN, [&](std::size_t i, std::size_t) {
    hits[i].fetch_add(1);
    sum.fetch_add(static_cast<std::int64_t>(i));
  });
  constexpr auto n = static_cast<std::int64_t>(kN);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  parallel_for(2, 0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, SingleThreadRunsOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  parallel_for(1, 100, [&](std::size_t i, std::size_t worker) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(worker, 0u);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, WorkerIdsAreBoundedAndNeverShared) {
  for (const int threads : {2, 4, 8}) {
    for (const std::size_t n : {3, 64}) {
      const std::size_t workers =
          std::min(static_cast<std::size_t>(threads), n);
      std::vector<std::atomic<int>> busy(workers);
      std::atomic<bool> out_of_range{false};
      std::atomic<bool> shared{false};
      std::mutex mutex;
      std::set<std::size_t> seen;
      parallel_for(threads, n, [&](std::size_t, std::size_t worker) {
        if (worker >= workers) {
          out_of_range = true;
          return;
        }
        if (busy[worker].fetch_add(1) != 0) shared = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        busy[worker].fetch_sub(1);
        std::lock_guard<std::mutex> lock(mutex);
        seen.insert(worker);
      });
      EXPECT_FALSE(out_of_range) << threads << " threads, n = " << n;
      EXPECT_FALSE(shared) << threads << " threads, n = " << n;
      // 128 ms of sleeping indices: the started threads take some of them.
      if (n == 64) {
        EXPECT_GE(seen.size(), 2u) << threads << " threads";
      }
    }
  }
}

TEST(ParallelFor, PropagatesTheFirstException) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(4, 64,
                            [&ran](std::size_t i, std::size_t) {
                              ran.fetch_add(1);
                              if (i == 13) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64);  // the remaining indices still run

  // On one worker indices run in order, so "first" is index 13's.
  ran = 0;
  try {
    parallel_for(1, 64, [&ran](std::size_t i, std::size_t) {
      ran.fetch_add(1);
      if (i == 13 || i == 40) {
        throw std::runtime_error("index " + std::to_string(i));
      }
    });
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 13");
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ParallelFor, DefaultsToHardwareConcurrency) {
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(default_threads(),
            static_cast<int>(std::clamp(hw, 1u, unsigned{kMaxWorkers})));
  // As many indices as default workers, each waiting for all to start: a
  // loop with fewer workers leaves one waiting out its deadline and runs
  // two indices on one worker.
  const auto n = static_cast<std::size_t>(default_threads());
  for (const int threads : {0, -3}) {
    std::atomic<std::size_t> arrived{0};
    std::mutex mutex;
    std::set<std::size_t> seen;
    parallel_for(threads, n, [&](std::size_t, std::size_t worker) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < n &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(worker);
    });
    EXPECT_EQ(seen.size(), n) << "threads = " << threads;
  }
}

}  // namespace
}  // namespace pdos::sweep
