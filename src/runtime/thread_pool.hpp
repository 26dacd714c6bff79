#pragma once
// Fixed-size thread-pool executor behind the parallel NAS candidate
// evaluation (pipeline search_workers, LTFB population workers): callers
// submit callables and receive std::futures; worker threads drain a single
// locked queue. Destruction drains the queue (already-submitted work
// completes) and joins every worker.

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ahn::runtime {

/// Thread-safety: fully thread-safe — submit may race from any thread;
/// destruction joins workers after draining already-accepted work.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result. Exceptions thrown by
  /// `fn` are captured and rethrown from future::get().
  template <typename Fn>
  [[nodiscard]] std::future<std::invoke_result_t<Fn>> submit(Fn&& fn) {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void enqueue(std::function<void()> job);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ahn::runtime
