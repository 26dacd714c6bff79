#include "obs/slo.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "obs/export.hpp"
#include "obs/exposition.hpp"

namespace ahn::obs {

namespace {

/// Irregular-interval EWMA step: fold observation `x` into `ewma` given
/// `dt` seconds since the previous observation and time constant `tau`.
/// dt = 0 degenerates to "replace nothing" (w = 1) so bursts at one instant
/// still accumulate through repeated application with tiny dt.
double ewma_step(double ewma, double x, double dt, double tau) {
  if (tau <= 0.0) return x;
  const double w = std::exp(-std::max(dt, 0.0) / tau);
  return x + (ewma - x) * w;
}

/// A spec's error budget (burn denominator), floored away from zero.
double budget(const SloSpec& spec) {
  return std::max(1.0 - spec.objective, 1e-9);
}

}  // namespace

SloEngine::SloEngine(std::vector<SloSpec> specs, AlertSink* alerts,
                     MetricsRegistry* registry, Clock clock)
    : alerts_(alerts), registry_(registry), clock_(std::move(clock)) {
  states_.reserve(specs.size());
  for (SloSpec& spec : specs) {
    auto st = std::make_unique<SpecState>(std::move(spec));
    if (registry_ != nullptr) {
      const std::string slo_lbl = "{slo=\"" + st->spec.name + "\"";
      const std::string win = slo_lbl + ",window=\"";
      st->fast_gauge = &registry_->gauge("slo.burn_rate" + win + "fast\"}");
      st->mid_gauge = &registry_->gauge("slo.burn_rate" + win + "mid\"}");
      st->slow_gauge = &registry_->gauge("slo.burn_rate" + win + "slow\"}");
      st->burning_gauge = &registry_->gauge("slo.burning" + slo_lbl + "}");
      st->events_counter = &registry_->counter("slo.events" + slo_lbl + "}");
      st->bad_counter = &registry_->counter("slo.bad_events" + slo_lbl + "}");
      st->alerts_counter = &registry_->counter("slo.alerts" + slo_lbl + "}");
    }
    states_.push_back(std::move(st));
  }
}

void SloEngine::observe(SpecState& st, double x) {
  const double t = clock_.now();
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    const double dt = st.last_seconds < 0.0 ? 0.0 : t - st.last_seconds;
    st.fast_ewma = ewma_step(st.fast_ewma, x, dt, st.spec.fast_window_seconds);
    st.mid_ewma = ewma_step(st.mid_ewma, x, dt, st.spec.mid_window_seconds);
    st.slow_ewma = ewma_step(st.slow_ewma, x, dt, st.spec.slow_window_seconds);
    st.last_seconds = t;
    ++st.events;
    if (x > 0.0) ++st.bad;
  }
  if (st.events_counter != nullptr) st.events_counter->increment();
  if (x > 0.0 && st.bad_counter != nullptr) st.bad_counter->increment();
}

void SloEngine::record(const std::string& model, double latency_seconds, bool ok,
                       bool qoi_fallback) {
  for (const std::unique_ptr<SpecState>& st : states_) {
    const SloSpec& spec = st->spec;
    if (!spec.model.empty() && spec.model != model) continue;
    double x = 0.0;
    switch (spec.kind) {
      case SloKind::kAvailability: x = ok ? 0.0 : 1.0; break;
      case SloKind::kLatency:
        x = (!ok || latency_seconds > spec.threshold_seconds) ? 1.0 : 0.0;
        break;
      case SloKind::kQoiFallbackRate: x = qoi_fallback ? 1.0 : 0.0; break;
    }
    observe(*st, x);
  }
  const std::uint64_t n = ticker_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % eval_every_.load(std::memory_order_relaxed) == 0) evaluate();
}

void SloEngine::record_dropped(const std::string& model) {
  for (const std::unique_ptr<SpecState>& st : states_) {
    const SloSpec& spec = st->spec;
    if (!spec.model.empty() && spec.model != model) continue;
    if (spec.kind != SloKind::kAvailability) continue;
    observe(*st, 1.0);
  }
}

void SloEngine::burns_locked(const SpecState& st, double at_seconds, double* fast,
                             double* mid, double* slow) const {
  // Between observations the rate estimate decays toward zero: an idle (or
  // recovered) stream stops burning even though no new event arrives to
  // push the EWMA down.
  const double dt = st.last_seconds < 0.0 ? 0.0 : at_seconds - st.last_seconds;
  const double b = budget(st.spec);
  *fast = ewma_step(st.fast_ewma, 0.0, dt, st.spec.fast_window_seconds) / b;
  *mid = ewma_step(st.mid_ewma, 0.0, dt, st.spec.mid_window_seconds) / b;
  *slow = ewma_step(st.slow_ewma, 0.0, dt, st.spec.slow_window_seconds) / b;
}

SloStatus SloEngine::status_one(const SpecState& st, double at_seconds) const {
  SloStatus s;
  const std::lock_guard<std::mutex> lock(st.mu);
  s.spec = st.spec;
  s.events = st.events;
  s.bad_events = st.bad;
  burns_locked(st, at_seconds, &s.fast_burn, &s.mid_burn, &s.slow_burn);
  s.burning = st.burning;
  s.alerts_raised = st.alerts;
  return s;
}

void SloEngine::evaluate_one(SpecState& st, double at_seconds) {
  double fast = 0.0, mid = 0.0, slow = 0.0;
  bool fired = false;
  Alert alert;
  {
    const std::lock_guard<std::mutex> lock(st.mu);
    burns_locked(st, at_seconds, &fast, &mid, &slow);
    const bool page = fast >= st.spec.page_burn_threshold &&
                      mid >= st.spec.page_burn_threshold;
    const bool ticket = mid >= st.spec.ticket_burn_threshold &&
                        slow >= st.spec.ticket_burn_threshold;
    const bool condition = page || ticket;
    if (condition && !st.burning) {
      // Edge trigger: one alert per burn episode; re-arms when it clears.
      st.burning = true;
      ++st.alerts;
      fired = true;
      alert.kind = AlertKind::kSloBurn;
      alert.model = st.spec.model.empty() ? st.spec.name : st.spec.model;
      alert.value = std::max(fast, mid);
      alert.threshold =
          page ? st.spec.page_burn_threshold : st.spec.ticket_burn_threshold;
      std::ostringstream msg;
      msg << "SLO '" << st.spec.name << "' (" << slo_kind_name(st.spec.kind)
          << ") burning error budget: fast=" << fast << " mid=" << mid
          << " slow=" << slow << " (" << (page ? "page" : "ticket")
          << " threshold " << alert.threshold << ")";
      alert.message = msg.str();
    } else if (!condition && st.burning) {
      st.burning = false;
    }
  }
  if (st.fast_gauge != nullptr) {
    st.fast_gauge->set(fast);
    st.mid_gauge->set(mid);
    st.slow_gauge->set(slow);
    st.burning_gauge->set(st.burning ? 1.0 : 0.0);
  }
  if (fired) {
    if (st.alerts_counter != nullptr) st.alerts_counter->increment();
    if (alerts_ != nullptr) alerts_->raise(alert);
  }
}

std::vector<SloStatus> SloEngine::evaluate() {
  const double t = clock_.now();
  std::vector<SloStatus> out;
  out.reserve(states_.size());
  for (const std::unique_ptr<SpecState>& st : states_) {
    evaluate_one(*st, t);
    out.push_back(status_one(*st, t));
  }
  return out;
}

std::vector<SloStatus> SloEngine::status() const {
  const double t = clock_.now();
  std::vector<SloStatus> out;
  out.reserve(states_.size());
  for (const std::unique_ptr<SpecState>& st : states_) {
    out.push_back(status_one(*st, t));
  }
  return out;
}

std::string SloEngine::status_json() const {
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const SloStatus& s : status()) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"slo\": \"" << json_escape(s.spec.name) << "\", \"kind\": \""
       << slo_kind_name(s.spec.kind) << "\", \"model\": \""
       << json_escape(s.spec.model) << "\", \"objective\": " << s.spec.objective
       << ", \"events\": " << s.events << ", \"bad_events\": " << s.bad_events
       << ", \"fast_burn\": " << s.fast_burn << ", \"mid_burn\": " << s.mid_burn
       << ", \"slow_burn\": " << s.slow_burn
       << ", \"burning\": " << (s.burning ? "true" : "false")
       << ", \"alerts_raised\": " << s.alerts_raised << "}";
  }
  os << "\n]";
  return os.str();
}

}  // namespace ahn::obs
