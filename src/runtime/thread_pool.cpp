#include "runtime/thread_pool.hpp"

#include <omp.h>

#include "common/error.hpp"

namespace ahn::runtime {

ThreadPool::ThreadPool(std::size_t threads) {
  AHN_CHECK_MSG(threads >= 1, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    AHN_CHECK_MSG(!stop_, "submit on a stopping thread pool");
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  // Pool workers run requests or search candidates side by side; the loops
  // inside a job stay serial instead of forking a team per worker.
  omp_set_num_threads(1);
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // packaged_task captures exceptions into the future
  }
}

}  // namespace ahn::runtime
