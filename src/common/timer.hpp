#pragma once
// Time sources. Timer is the stopwatch every measured duration in the
// framework (offline trace generation, BO search, autoencoder training,
// spans, benches) is read through. Clock is the one injectable time source
// of the serving runtime's time-based decisions: breaker cool-downs,
// rollout stage timeouts, SLO burn windows and batching deadlines.

#include <chrono>
#include <concepts>
#include <functional>
#include <utility>

namespace ahn {

/// Monotonic stopwatch. start() on construction; seconds() reads elapsed.
class Timer {
 public:
  Timer() noexcept : start_(Steady::now()) {}

  void restart() noexcept { start_ = Steady::now(); }

  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Steady::now() - start_).count();
  }

  [[nodiscard]] double milliseconds() const noexcept { return seconds() * 1e3; }
  [[nodiscard]] double microseconds() const noexcept { return seconds() * 1e6; }

 private:
  using Steady = std::chrono::steady_clock;
  Steady::time_point start_;
};

/// Monotone seconds from an arbitrary fixed origin. Default-constructed it
/// reads std::chrono::steady_clock; constructed from any `double()`
/// callable it reads that instead, so a test can drive every time-based
/// decision of an Orchestrator from one fake (OrchestratorOptions::clock).
/// Copies share the source.
class Clock {
 public:
  Clock() = default;
  template <typename F>
    requires(!std::same_as<std::decay_t<F>, Clock> && std::invocable<F&> &&
             std::convertible_to<std::invoke_result_t<F&>, double>)
  Clock(F source) : source_(std::move(source)) {}

  [[nodiscard]] double now() const {
    if (source_) return source_();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::function<double()> source_;
};

}  // namespace ahn
