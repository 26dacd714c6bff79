#include "runtime/rollout.hpp"

#include <algorithm>
#include <sstream>

#include "common/log.hpp"

namespace ahn::runtime {

RolloutController::RolloutController(std::string model,
                                     std::uint64_t candidate_version,
                                     RolloutOptions opts, Clock clock)
    : model_(std::move(model)),
      candidate_version_(candidate_version),
      opts_(std::move(opts)),
      clock_(std::move(clock)) {
  stage_started_ = clock_.now();
}

void RolloutController::transition_locked(RolloutState to, std::string reason) {
  if (state_ == to) return;
  AHN_INFO_C("rollout", model_ << " v" << candidate_version_ << " "
                               << rollout_state_name(state_) << " -> "
                               << rollout_state_name(to)
                               << (reason.empty() ? "" : ": ") << reason);
  state_ = to;
  if (!reason.empty()) reason_ = std::move(reason);
  stage_started_ = clock_.now();
}

RolloutState RolloutController::record_shadow(bool active_ok, bool candidate_ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RolloutState::kShadow) return state_;
  ++shadow_rows_;
  if (!active_ok) ++shadow_active_miss_;
  if (!candidate_ok) ++shadow_candidate_miss_;
  if (shadow_rows_ < std::max<std::size_t>(1, opts_.shadow_rows)) return state_;

  const double n = static_cast<double>(shadow_rows_);
  const double active_rate = static_cast<double>(shadow_active_miss_) / n;
  const double cand_rate = static_cast<double>(shadow_candidate_miss_) / n;
  if (cand_rate <= active_rate + opts_.shadow_margin) {
    transition_locked(RolloutState::kCanary, "");
  } else {
    std::ostringstream why;
    why << "shadow QoI regression: candidate miss rate " << cand_rate
        << " vs active " << active_rate << " + margin " << opts_.shadow_margin;
    transition_locked(RolloutState::kFailed, why.str());
  }
  return state_;
}

bool RolloutController::admit_canary() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RolloutState::kCanary) return false;
  canary_acc_ += std::clamp(opts_.canary_fraction, 0.0, 1.0);
  if (canary_acc_ < 1.0) return false;
  canary_acc_ -= 1.0;
  return true;
}

RolloutState RolloutController::record_canary(bool candidate_ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_ != RolloutState::kCanary) return state_;
  ++canary_rows_;
  if (!candidate_ok) ++canary_miss_;

  if (canary_rows_ >= opts_.canary_min_samples) {
    const double rate =
        static_cast<double>(canary_miss_) / static_cast<double>(canary_rows_);
    if (rate > opts_.canary_max_miss) {
      std::ostringstream why;
      why << "canary QoI miss rate " << rate << " > " << opts_.canary_max_miss
          << " after " << canary_rows_ << " rows";
      transition_locked(RolloutState::kFailed, why.str());
      return state_;
    }
  }
  if (canary_rows_ >= std::max<std::size_t>(1, opts_.canary_rows)) {
    transition_locked(RolloutState::kPassed, "");
  }
  return state_;
}

void RolloutController::note_breaker_trip() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (state_ == RolloutState::kShadow || state_ == RolloutState::kCanary) {
    transition_locked(RolloutState::kFailed,
                      "QoI circuit breaker tripped mid-rollout");
  }
}

RolloutState RolloutController::poll() {
  const std::lock_guard<std::mutex> lock(mu_);
  if ((state_ == RolloutState::kShadow || state_ == RolloutState::kCanary) &&
      opts_.stage_timeout_seconds > 0.0 &&
      clock_.now() - stage_started_ > opts_.stage_timeout_seconds) {
    std::ostringstream why;
    why << rollout_state_name(state_) << " stage exceeded its "
        << opts_.stage_timeout_seconds << "s budget";
    transition_locked(RolloutState::kFailed, why.str());
  }
  return state_;
}

void RolloutController::mark_promoted() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!rollout_terminal(state_)) transition_locked(RolloutState::kPromoted, "");
}

void RolloutController::mark_rolled_back(std::string reason) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!rollout_terminal(state_)) {
    transition_locked(RolloutState::kRolledBack, std::move(reason));
  }
}

RolloutState RolloutController::state() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

RolloutSnapshot RolloutController::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  RolloutSnapshot s;
  s.model = model_;
  s.state = state_;
  s.candidate_version = candidate_version_;
  s.shadow_rows = shadow_rows_;
  s.shadow_active_miss = shadow_active_miss_;
  s.shadow_candidate_miss = shadow_candidate_miss_;
  s.canary_rows = canary_rows_;
  s.canary_miss = canary_miss_;
  s.reason = reason_;
  return s;
}

}  // namespace ahn::runtime
