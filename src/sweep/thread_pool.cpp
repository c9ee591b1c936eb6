#include "sweep/thread_pool.hpp"

#include <exception>
#include <utility>

#include "util/assert.hpp"

namespace pdos::sweep {

namespace {

// Which pool/worker the current thread belongs to, so nested submits can
// target the submitting worker's own FIFO.
thread_local const ThreadPool* tl_pool = nullptr;
thread_local std::size_t tl_worker = 0;

}  // namespace

int ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_threads();
  for (int i = 0; i < threads; ++i) workers_.emplace_back(&task_memory_);
  threads_.reserve(workers_.size());
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::submit(InlineFn task) {
  PDOS_REQUIRE(static_cast<bool>(task),
               "ThreadPool: cannot submit an empty task");
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    PDOS_REQUIRE(!stopping_, "ThreadPool: submit after shutdown");
    std::size_t target;
    if (tl_pool == this) {
      target = tl_worker;  // nested submit: keep the task local
    } else {
      target = next_worker_;
      next_worker_ = (next_worker_ + 1) % workers_.size();
    }
    workers_[target].tasks.push_back(std::move(task));
    ++pending_;
    ++queued_;
  }
  work_cv_.notify_one();
}

bool ThreadPool::try_pop_locked(std::size_t self, InlineFn& task) {
  auto& own = workers_[self].tasks;
  if (!own.empty()) {
    task = own.pop_front();
    return true;
  }
  for (std::size_t off = 1; off < workers_.size(); ++off) {
    auto& victim = workers_[(self + off) % workers_.size()].tasks;
    if (!victim.empty()) {
      task = victim.pop_front();  // steal the oldest (coldest) task
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  tl_pool = this;
  tl_worker = index;
  std::unique_lock<std::mutex> lock(state_mutex_);
  for (;;) {
    InlineFn task;
    if (try_pop_locked(index, task)) {
      --queued_;
      lock.unlock();
      try {
        task();
      } catch (...) {
        // Tasks own their error handling (run_sweep and parallel_for both
        // catch before the pool sees anything); swallowing here only keeps
        // a stray throw from tearing down the process.
      }
      lock.lock();
      if (--pending_ == 0) idle_cv_.notify_all();
      continue;
    }
    if (stopping_) break;
    work_cv_.wait(lock, [this] { return stopping_ || queued_ > 0; });
  }
}

void ThreadPool::wait_idle() {
  PDOS_REQUIRE(tl_pool != this,
               "ThreadPool: wait_idle called from a worker thread");
  std::unique_lock<std::mutex> lock(state_mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  std::mutex error_mutex;
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([i, &fn, &error_mutex, &first_error] {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  pool.wait_idle();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace pdos::sweep
