#include "obs/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"

namespace ahn::obs {

// ------------------------------------------------------------- P2Quantile

P2Quantile::P2Quantile(double p) : p_(p) {
  AHN_CHECK_MSG(p > 0.0 && p < 1.0, "P2 quantile must be in (0, 1)");
}

void P2Quantile::observe(double v) {
  if (std::isnan(v)) return;
  if (count_ < 5) {
    heights_[count_++] = v;
    if (count_ == 5) {
      std::sort(heights_.begin(), heights_.end());
      for (std::size_t i = 0; i < 5; ++i) {
        positions_[i] = static_cast<double>(i + 1);
      }
    }
    return;
  }

  // Locate the marker cell containing v (extreme markers track min/max).
  std::size_t k = 0;
  if (v < heights_[0]) {
    heights_[0] = v;
    k = 0;
  } else if (v >= heights_[4]) {
    heights_[4] = v;
    k = 3;
  } else {
    while (k < 3 && v >= heights_[k + 1]) ++k;
  }
  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1.0;
  ++count_;

  const double n = static_cast<double>(count_);
  const std::array<double, 5> desired = {
      1.0, 1.0 + (n - 1.0) * p_ / 2.0, 1.0 + (n - 1.0) * p_,
      1.0 + (n - 1.0) * (1.0 + p_) / 2.0, n};

  // Nudge each interior marker toward its desired position: parabolic
  // (piecewise-quadratic) interpolation when it keeps the heights ordered,
  // linear otherwise.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired[i] - positions_[i];
    if ((d >= 1.0 && positions_[i + 1] - positions_[i] > 1.0) ||
        (d <= -1.0 && positions_[i - 1] - positions_[i] < -1.0)) {
      const double s = d >= 1.0 ? 1.0 : -1.0;
      const double nm = positions_[i - 1], ni = positions_[i], np = positions_[i + 1];
      double q = heights_[i] +
                 s / (np - nm) *
                     ((ni - nm + s) * (heights_[i + 1] - heights_[i]) / (np - ni) +
                      (np - ni - s) * (heights_[i] - heights_[i - 1]) / (ni - nm));
      if (!(heights_[i - 1] < q && q < heights_[i + 1])) {
        const std::size_t j = s > 0.0 ? i + 1 : i - 1;
        q = heights_[i] +
            s * (heights_[j] - heights_[i]) / (positions_[j] - positions_[i]);
      }
      heights_[i] = q;
      positions_[i] += s;
    }
  }
}

double P2Quantile::value() const {
  if (count_ == 0) return 0.0;
  if (count_ <= 5) {
    // Exact while the marker array still holds raw samples (sorted at 5).
    std::array<double, 5> sorted = heights_;
    std::sort(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(count_));
    const double rank = p_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= count_) return sorted[count_ - 1];
    return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
  }
  return heights_[2];
}

// ----------------------------------------------------------- FeatureSketch

FeatureSketch::PerFeature::PerFeature() {
  for (std::size_t i = 0; i < kDeciles; ++i) {
    deciles[i] = P2Quantile(0.1 * static_cast<double>(i + 1));
  }
}

FeatureSketch::FeatureSketch(std::size_t features) : features_(features) {}

void FeatureSketch::observe(std::span<const double> row) {
  if (features_.empty() && !row.empty()) features_.resize(row.size());
  AHN_CHECK_MSG(row.size() == features_.size(),
                "sketch expects " << features_.size() << " features, row has "
                                  << row.size());
  ++rows_;
  for (std::size_t f = 0; f < row.size(); ++f) {
    const double v = row[f];
    if (std::isnan(v)) continue;
    PerFeature& pf = features_[f];
    ++pf.n;
    if (pf.n == 1) {
      pf.min = pf.max = v;
    } else {
      pf.min = std::min(pf.min, v);
      pf.max = std::max(pf.max, v);
    }
    const double delta = v - pf.mean;
    pf.mean += delta / static_cast<double>(pf.n);
    pf.m2 += delta * (v - pf.mean);
    for (P2Quantile& q : pf.deciles) q.observe(v);
  }
}

double FeatureSketch::mean(std::size_t f) const {
  AHN_CHECK(f < features_.size());
  return features_[f].mean;
}

double FeatureSketch::stddev(std::size_t f) const {
  AHN_CHECK(f < features_.size());
  const PerFeature& pf = features_[f];
  return pf.n > 1 ? std::sqrt(pf.m2 / static_cast<double>(pf.n - 1)) : 0.0;
}

double FeatureSketch::decile(std::size_t f, std::size_t i) const {
  AHN_CHECK(f < features_.size() && i < kDeciles);
  return features_[f].deciles[i].value();
}

FeatureSummary FeatureSketch::summary(std::size_t f) const {
  AHN_CHECK(f < features_.size());
  const PerFeature& pf = features_[f];
  FeatureSummary s;
  s.count = pf.n;
  s.mean = pf.mean;
  s.stddev = stddev(f);
  s.min = pf.min;
  s.max = pf.max;
  for (std::size_t i = 0; i < kDeciles; ++i) s.deciles[i] = pf.deciles[i].value();
  return s;
}

// ----------------------------------------------------------- DriftDetector

DriftDetector::DriftDetector(std::shared_ptr<const FeatureSketch> reference,
                             DriftOptions opts)
    : opts_(opts) {
  AHN_CHECK(reference != nullptr);
  AHN_CHECK_MSG(reference->rows() > 0, "reference sketch is empty");
  live_.resize(reference->features());
  for (std::size_t f = 0; f < live_.size(); ++f) {
    LiveFeature& lf = live_[f];
    lf.ref_mean = reference->mean(f);
    lf.ref_sigma = reference->stddev(f);
    for (std::size_t i = 0; i < FeatureSketch::kDeciles; ++i) {
      lf.edges[i] = reference->decile(f, i);
      // P² estimates can jitter out of order by epsilon; bucket edges must
      // be monotone for the upper_bound search.
      if (i > 0) lf.edges[i] = std::max(lf.edges[i], lf.edges[i - 1]);
    }
  }
}

void DriftDetector::observe(std::span<const double> row) {
  AHN_CHECK_MSG(row.size() == live_.size(),
                "detector expects " << live_.size() << " features, row has "
                                    << row.size());
  ++rows_;
  for (std::size_t f = 0; f < row.size(); ++f) {
    const double v = row[f];
    if (std::isnan(v)) continue;
    LiveFeature& lf = live_[f];
    ++lf.n;
    const double delta = v - lf.mean;
    lf.mean += delta / static_cast<double>(lf.n);
    lf.m2 += delta * (v - lf.mean);
    const auto b = static_cast<std::size_t>(
        std::upper_bound(lf.edges.begin(), lf.edges.end(), v) - lf.edges.begin());
    ++lf.buckets[b];
  }
}

DriftReport DriftDetector::report() const {
  DriftReport r;
  r.live_rows = rows_;
  r.features.resize(live_.size());
  if (rows_ < opts_.min_samples) return r;  // too few samples to say anything

  constexpr std::size_t kBucketCount = FeatureSketch::kDeciles + 1;
  for (std::size_t f = 0; f < live_.size(); ++f) {
    const LiveFeature& lf = live_[f];
    if (lf.n == 0) continue;
    FeatureDrift& fd = r.features[f];

    // Standardized mean shift; constant reference features use a tiny floor
    // so any live movement on them registers as drift.
    const double sigma =
        lf.ref_sigma > 0.0
            ? lf.ref_sigma
            : std::max(1e-12, 1e-6 * std::abs(lf.ref_mean));
    fd.mean_shift = std::abs(lf.mean - lf.ref_mean) / sigma;

    // PSI over the reference deciles: each bucket holds ~10% of the training
    // distribution by construction. Laplace smoothing keeps empty live
    // buckets finite.
    const double n = static_cast<double>(lf.n);
    for (std::size_t b = 0; b < kBucketCount; ++b) {
      const double actual = (static_cast<double>(lf.buckets[b]) + 0.5) /
                            (n + 0.5 * static_cast<double>(kBucketCount));
      const double expected = 1.0 / static_cast<double>(kBucketCount);
      fd.psi += (actual - expected) * std::log(actual / expected);
    }

    if (fd.score() > r.score) {
      r.score = fd.score();
      r.worst_feature = f;
    }
  }
  return r;
}

// --------------------------------------------------------------- RateTrend

RateTrend::RateTrend(TrendOptions opts)
    : opts_(opts), ring_(std::max<std::size_t>(1, opts.window), false) {}

void RateTrend::record(bool event) noexcept {
  total_.fetch_add(1, std::memory_order_relaxed);
  if (event) events_.fetch_add(1, std::memory_order_relaxed);
  const double x = event ? 1.0 : 0.0;
  bool seeded = seeded_.load(std::memory_order_relaxed);
  if (!seeded &&
      seeded_.compare_exchange_strong(seeded, true, std::memory_order_relaxed)) {
    ewma_.store(x, std::memory_order_relaxed);
    return;
  }
  double cur = ewma_.load(std::memory_order_relaxed);
  while (!ewma_.compare_exchange_weak(
      cur, opts_.ewma_alpha * x + (1.0 - opts_.ewma_alpha) * cur,
      std::memory_order_relaxed)) {
  }
}

void RateTrend::record_window(bool event) noexcept {
  const std::size_t cap = ring_.size();
  if (ring_count_.load(std::memory_order_relaxed) == cap) {
    if (ring_[ring_next_]) ring_events_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    ring_count_.fetch_add(1, std::memory_order_relaxed);
  }
  ring_[ring_next_] = event;
  if (event) ring_events_.fetch_add(1, std::memory_order_relaxed);
  ring_next_ = (ring_next_ + 1) % cap;
}

void RateTrend::reset() noexcept {
  ewma_.store(0.0, std::memory_order_relaxed);
  seeded_.store(false, std::memory_order_relaxed);
  total_.store(0, std::memory_order_relaxed);
  events_.store(0, std::memory_order_relaxed);
  std::fill(ring_.begin(), ring_.end(), false);
  ring_next_ = 0;
  ring_count_.store(0, std::memory_order_relaxed);
  ring_events_.store(0, std::memory_order_relaxed);
}

double RateTrend::window_rate() const noexcept {
  const std::size_t n = ring_count_.load(std::memory_order_relaxed);
  if (n == 0) return 0.0;
  return static_cast<double>(ring_events_.load(std::memory_order_relaxed)) /
         static_cast<double>(n);
}

// --------------------------------------------------------------- AlertSink

AlertSink::AlertSink(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(1, ring_capacity)) {
  ring_.reserve(capacity_);
}

void AlertSink::add_callback(Callback cb) {
  if (!cb) return;
  const std::lock_guard<std::mutex> lock(mu_);
  callbacks_.push_back(std::move(cb));
}

void AlertSink::raise(Alert alert) {
  alert.sequence = raised_.fetch_add(1, std::memory_order_relaxed) + 1;
  by_kind_[static_cast<std::size_t>(alert.kind)].fetch_add(
      1, std::memory_order_relaxed);
  AHN_WARN_C("health", alert_kind_name(alert.kind)
                           << " model=" << alert.model << " value=" << alert.value
                           << " threshold=" << alert.threshold << " "
                           << alert.message);
  std::vector<Callback> callbacks;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(alert);
    } else {
      ring_[ring_next_] = alert;
      ring_next_ = (ring_next_ + 1) % capacity_;
    }
    callbacks = callbacks_;
  }
  // Outside the sink lock: callbacks may export, log, or page — but they
  // must not block for long and must not call back into the raising monitor.
  for (const Callback& cb : callbacks) cb(alert);
}

std::vector<Alert> AlertSink::recent() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Alert> out;
  out.reserve(ring_.size());
  if (ring_.size() == capacity_) {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  } else {
    out = ring_;
  }
  return out;
}

// ------------------------------------------------------------ ModelMonitor

namespace {

MonitorOptions normalized(MonitorOptions opts) {
  opts.sample_every = std::max<std::uint64_t>(1, opts.sample_every);
  opts.drift_check_every = std::max<std::uint64_t>(1, opts.drift_check_every);
  return opts;
}

}  // namespace

ModelMonitor::ModelMonitor(std::string model, MonitorOptions opts, AlertSink* alerts)
    : model_(std::move(model)),
      opts_(normalized(opts)),
      alerts_(alerts),
      qoi_(opts.qoi_trend) {}

void ModelMonitor::set_reference(std::shared_ptr<const FeatureSketch> reference) {
  const std::lock_guard<std::mutex> lock(mu_);
  reference_ = std::move(reference);
  rebaseline_locked();
}

void ModelMonitor::rebaseline() {
  const std::lock_guard<std::mutex> lock(mu_);
  rebaseline_locked();
}

void ModelMonitor::rebaseline_locked() {
  drift_ = reference_ != nullptr
               ? std::make_unique<DriftDetector>(reference_, opts_.drift)
               : nullptr;
  rows_sampled_ = 0;
  drift_score_ = 0.0;
  drift_worst_feature_ = 0;
  drift_active_ = false;
  // The served model changed (or was re-baselined after a rollout): QoI
  // evidence against the old weights is void, and both edge-triggers re-arm
  // so a *second* decay episode alerts again.
  qoi_active_ = false;
  qoi_.reset();
}

bool ModelMonitor::tick_sampler() noexcept {
  return sample_ticker_.fetch_add(1, std::memory_order_relaxed) %
             opts_.sample_every ==
         0;
}

void ModelMonitor::record_request(std::span<const double> row, bool qoi_ok) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  qoi_.record(!qoi_ok);
  if (!tick_sampler()) return;  // the lock-free fast path ends here
  observe_sampled(row, !qoi_ok);
}

void ModelMonitor::observe_sampled(std::span<const double> row, bool qoi_miss) {
  // Alerts detected under the lock are raised after it: the sink callback
  // must be able to read this monitor's health without deadlocking.
  Alert pending[2];
  std::size_t n_pending = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    qoi_.record_window(qoi_miss);
    ++rows_sampled_;
    if (drift_ != nullptr && row.size() == drift_->features()) {
      drift_->observe(row);
      if (rows_sampled_ % opts_.drift_check_every == 0) {
        const DriftReport rep = drift_->report();
        drift_score_ = rep.score;
        drift_worst_feature_ = rep.worst_feature;
        if (!drift_active_ && rep.score >= opts_.drift_threshold) {
          drift_active_ = true;
          Alert& a = pending[n_pending++];
          a.kind = AlertKind::kDriftDetected;
          a.model = model_;
          a.value = rep.score;
          a.threshold = opts_.drift_threshold;
          std::ostringstream msg;
          msg << "live inputs drifted from the training distribution (worst "
                 "feature "
              << rep.worst_feature << ", " << rep.live_rows << " sampled rows)";
          a.message = msg.str();
        } else if (drift_active_ && rep.score < opts_.drift_threshold) {
          drift_active_ = false;  // recovered; re-arm the edge trigger
        }
      }
    }
    const double ewma = qoi_.ewma();
    if (qoi_.total() >= opts_.qoi_trend.min_samples) {
      if (!qoi_active_ && ewma >= opts_.qoi_alert_rate) {
        qoi_active_ = true;
        Alert& a = pending[n_pending++];
        a.kind = AlertKind::kQoiDegraded;
        a.model = model_;
        a.value = ewma;
        a.threshold = opts_.qoi_alert_rate;
        a.message = "QoI miss trend degraded (EWMA over served requests)";
      } else if (qoi_active_ && ewma < opts_.qoi_alert_rate) {
        qoi_active_ = false;
      }
    }
  }
  if (alerts_ != nullptr) {
    for (std::size_t i = 0; i < n_pending; ++i) alerts_->raise(pending[i]);
  }
}

void ModelMonitor::record_breaker_open(double window_fallback_rate,
                                       double trip_threshold) {
  if (alerts_ == nullptr) return;
  Alert a;
  a.kind = AlertKind::kBreakerOpen;
  a.model = model_;
  a.value = window_fallback_rate;
  a.threshold = trip_threshold;
  a.message = "QoI circuit breaker opened; traffic routed to original code";
  alerts_->raise(a);
}

ModelHealth ModelMonitor::health() const {
  ModelHealth h;
  h.model = model_;
  h.requests_observed = requests_.load(std::memory_order_relaxed);
  h.qoi_miss_ewma = qoi_.ewma();
  h.qoi_miss_window_rate = qoi_.window_rate();

  const std::lock_guard<std::mutex> lock(mu_);
  h.rows_sampled = rows_sampled_;
  h.has_reference = reference_ != nullptr;
  // Score is recomputed fresh on read (reads are rare, writes are hot);
  // the alert flags stay the edge-trigger state the serving path maintains.
  if (drift_ != nullptr && rows_sampled_ > 0) {
    const DriftReport rep = drift_->report();
    h.drift_score = rep.score;
    h.drift_worst_feature = rep.worst_feature;
  } else {
    h.drift_score = drift_score_;
    h.drift_worst_feature = drift_worst_feature_;
  }
  h.drift_alert = drift_active_;
  h.qoi_alert = qoi_active_;
  h.retrain_recommended = drift_active_ || qoi_active_;
  return h;
}

}  // namespace ahn::obs
