#include "runtime/circuit_breaker.hpp"

#include "common/error.hpp"

namespace ahn::runtime {

CircuitBreaker::CircuitBreaker(CircuitBreakerOptions opts, ServingStats* stats,
                               Clock clock)
    : opts_(std::move(opts)), stats_(stats), clock_(std::move(clock)) {
  AHN_CHECK_MSG(opts_.window >= 1, "breaker window must be at least 1");
  AHN_CHECK_MSG(opts_.half_open_probes >= 1, "breaker needs at least one probe");
  if (opts_.min_samples > opts_.window) opts_.min_samples = opts_.window;
  window_.assign(opts_.window, false);
}

void CircuitBreaker::transition_locked(BreakerState to, double now) {
  if (state_ == to) return;
  if (stats_ != nullptr) {
    stats_->record_breaker_transition(breaker_state_name(state_),
                                      breaker_state_name(to));
  }
  if (opts_.on_transition) {
    const double rate = window_count_ == 0
                            ? 0.0
                            : static_cast<double>(window_misses_) /
                                  static_cast<double>(window_count_);
    opts_.on_transition(state_, to, rate);
  }
  state_ = to;
  if (to == BreakerState::kOpen) {
    ++trips_;
    opened_at_ = now;
  }
  if (to == BreakerState::kHalfOpen) {
    probes_admitted_ = 0;
    probes_passed_ = 0;
  }
  if (to == BreakerState::kClosed) {
    // Fresh window: pre-trip misses must not immediately re-trip.
    window_.assign(opts_.window, false);
    window_next_ = window_count_ = window_misses_ = 0;
  }
}

CircuitBreaker::Route CircuitBreaker::admit() {
  const std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kClosed:
      return Route::kSurrogate;
    case BreakerState::kOpen: {
      const double now = clock_.now();
      if (now - opened_at_ < opts_.cooldown_seconds) return Route::kOriginal;
      transition_locked(BreakerState::kHalfOpen, now);
      [[fallthrough]];
    }
    case BreakerState::kHalfOpen:
      if (probes_admitted_ < opts_.half_open_probes) {
        ++probes_admitted_;
        return Route::kSurrogate;
      }
      return Route::kOriginal;
  }
  return Route::kSurrogate;  // unreachable
}

void CircuitBreaker::record_outcome(bool qoi_ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case BreakerState::kOpen:
      // A stale outcome from a batch that was in flight when the breaker
      // tripped (or re-opened mid-probe); the window restarts on close.
      return;
    case BreakerState::kHalfOpen:
      if (!qoi_ok) {
        transition_locked(BreakerState::kOpen, clock_.now());
        return;
      }
      ++probes_passed_;
      if (probes_passed_ >= opts_.half_open_probes) {
        transition_locked(BreakerState::kClosed, clock_.now());
      }
      return;
    case BreakerState::kClosed: {
      window_misses_ += static_cast<std::size_t>(!qoi_ok);
      if (window_count_ == window_.size()) {
        window_misses_ -= static_cast<std::size_t>(window_[window_next_]);
      } else {
        ++window_count_;
      }
      window_[window_next_] = !qoi_ok;
      window_next_ = (window_next_ + 1) % window_.size();
      if (window_count_ >= opts_.min_samples &&
          static_cast<double>(window_misses_) >=
              opts_.trip_threshold * static_cast<double>(window_count_)) {
        transition_locked(BreakerState::kOpen, clock_.now());
      }
      return;
    }
  }
}

BreakerState CircuitBreaker::state() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

std::uint64_t CircuitBreaker::trips() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return trips_;
}

double CircuitBreaker::window_fallback_rate() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return window_count_ == 0 ? 0.0
                            : static_cast<double>(window_misses_) /
                                  static_cast<double>(window_count_);
}

}  // namespace ahn::runtime
