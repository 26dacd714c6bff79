#pragma once
// QoI circuit breaker for the batched serving path. The paper's §7.1
// deployment contract handles a quality miss per request (fall back to the
// original code); the breaker generalizes that to systemic degradation: a
// sliding window tracks the recent QoI-fallback rate and, when it exceeds a
// threshold, the breaker OPENS — every request routes straight to the
// original-code path for a cool-down, sparing a misbehaving surrogate the
// traffic (and clients the doomed inference latency). After the cool-down
// the breaker goes HALF-OPEN and admits a few surrogate probes; if they all
// pass QoI the breaker CLOSES (surrogate serving restored), and a single
// probe miss re-opens it.
//
//            trip (miss rate >= threshold over window)
//   CLOSED ------------------------------------------> OPEN
//     ^                                                  | cool-down elapsed
//     |  all probes pass              probe misses       v
//     +------------------- HALF-OPEN <-----------------> OPEN
//
// Thread-safety: one mutex; admit() and record_outcome() are called from
// client and batch-execution threads concurrently. The cool-down runs on
// the owning Orchestrator's Clock, so tests can drive it deterministically.

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/serving_stats.hpp"
#include "common/timer.hpp"

namespace ahn::runtime {

enum class BreakerState { kClosed = 0, kOpen, kHalfOpen };

[[nodiscard]] constexpr const char* breaker_state_name(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half_open";
  }
  return "unknown";
}

struct CircuitBreakerOptions {
  std::size_t window = 64;           ///< sliding outcome window (requests)
  std::size_t min_samples = 16;      ///< no tripping before this many outcomes
  double trip_threshold = 0.5;       ///< fallback rate in window that opens
  double cooldown_seconds = 50e-3;   ///< OPEN dwell before probing
  std::size_t half_open_probes = 4;  ///< surrogate probes admitted half-open
  /// Invoked on every state change with the window fallback rate at the
  /// moment of transition. Runs under the breaker mutex: the callback must
  /// be fast and must not call back into this breaker (the orchestrator
  /// uses it to set the per-model state gauge and raise breaker_open
  /// alerts — docs/OBSERVABILITY.md).
  std::function<void(BreakerState from, BreakerState to, double window_fallback_rate)>
      on_transition;
};

/// Thread-safety: fully thread-safe — admit/record_outcome/state may race
/// from any serving thread; one mutex guards the window and state machine.
class CircuitBreaker {
 public:
  /// Where admit() routes a request.
  enum class Route { kSurrogate, kOriginal };

  /// `clock` times the OPEN cool-down.
  explicit CircuitBreaker(CircuitBreakerOptions opts = CircuitBreakerOptions{},
                          ServingStats* stats = nullptr, Clock clock = {});

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// Routing decision for one incoming request. May transition
  /// OPEN -> HALF-OPEN when the cool-down has elapsed (the admitting request
  /// becomes the first probe).
  [[nodiscard]] Route admit();

  /// Reports the QoI outcome of one surrogate-served request
  /// (qoi_ok = false means the request needed the §7.1 fallback). May trip
  /// CLOSED -> OPEN or resolve HALF-OPEN -> CLOSED / OPEN.
  void record_outcome(bool qoi_ok);

  [[nodiscard]] BreakerState state() const;
  [[nodiscard]] std::uint64_t trips() const;  ///< transitions into OPEN

  /// Current fallback rate over the sliding window (0 when empty).
  [[nodiscard]] double window_fallback_rate() const;

 private:
  void transition_locked(BreakerState to, double now);

  CircuitBreakerOptions opts_;
  ServingStats* stats_;
  Clock clock_;

  mutable std::mutex mu_;
  BreakerState state_ = BreakerState::kClosed;
  double opened_at_ = 0.0;

  // Sliding outcome window: ring buffer of "was a fallback" flags.
  std::vector<bool> window_;
  std::size_t window_next_ = 0;
  std::size_t window_count_ = 0;
  std::size_t window_misses_ = 0;

  // Half-open probe accounting.
  std::size_t probes_admitted_ = 0;
  std::size_t probes_passed_ = 0;

  std::uint64_t trips_ = 0;
};

}  // namespace ahn::runtime
