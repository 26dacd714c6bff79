#pragma once
// Wall-clock stopwatch. Every measured duration in the framework (offline
// trace generation, BO search, autoencoder training, spans, benches) is
// read through it.

#include <chrono>

namespace ahn {

/// Monotonic stopwatch. start() on construction; seconds() reads elapsed.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  void restart() noexcept { start_ = Clock::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }
  [[nodiscard]] double microseconds() const noexcept { return seconds() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ahn
