#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/log.hpp"

namespace ahn::obs {

namespace {

/// The innermost active span on this thread.
thread_local SpanContext t_current{};

/// Process-wide id sources: ids stay unique across every Tracer instance,
/// so records from different tracers can be correlated in one export.
std::atomic<std::uint64_t> g_next_trace{1};
std::atomic<std::uint64_t> g_next_span{1};
std::atomic<std::uint64_t> g_next_thread{1};

std::uint64_t current_trace_id_for_log() noexcept { return t_current.trace_id; }

}  // namespace

std::uint64_t current_thread_id() noexcept {
  // Sequential small ids (not pthread handles): Chrome-trace tid rows stay
  // compact and deterministic-ish across runs.
  thread_local const std::uint64_t id =
      g_next_thread.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Tracer::Tracer(std::size_t ring_capacity)
    : capacity_(std::max<std::size_t>(1, ring_capacity)) {
  ring_.reserve(capacity_);
  // Any tracer wires the logger's trace stamp; idempotent.
  Log::set_trace_provider(&current_trace_id_for_log);
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

SpanContext Tracer::current() noexcept { return t_current; }

std::uint64_t Tracer::next_trace_id() noexcept {
  return g_next_trace.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Tracer::next_span_id() noexcept {
  return g_next_span.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(SpanRecord rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  SpanStats& agg = aggregates_[rec.name];
  if (agg.count == 0) {
    agg.min_seconds = agg.max_seconds = rec.duration_seconds;
  } else {
    agg.min_seconds = std::min(agg.min_seconds, rec.duration_seconds);
    agg.max_seconds = std::max(agg.max_seconds, rec.duration_seconds);
  }
  ++agg.count;
  agg.total_seconds += rec.duration_seconds;

  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(rec));
  } else {
    ring_[ring_next_] = std::move(rec);
    ring_next_ = (ring_next_ + 1) % capacity_;
  }
  ++recorded_;
}

TracerSnapshot Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  TracerSnapshot s;
  s.aggregates = aggregates_;
  s.recent.reserve(ring_.size());
  // Oldest first: the ring wraps at ring_next_ once full.
  if (ring_.size() == capacity_) {
    s.recent.insert(s.recent.end(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_),
                    ring_.end());
    s.recent.insert(s.recent.end(), ring_.begin(),
                    ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  } else {
    s.recent = ring_;
  }
  return s;
}

SpanContext Tracer::record_span(std::string name, SpanContext parent,
                                double start_seconds, double duration_seconds) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.trace_id = parent.trace_id != 0 ? parent.trace_id : next_trace_id();
  rec.span_id = next_span_id();
  rec.parent_span_id = parent.span_id;
  rec.thread_id = current_thread_id();
  rec.start_seconds = start_seconds;
  rec.duration_seconds = duration_seconds;
  const SpanContext ctx{rec.trace_id, rec.span_id};
  record(std::move(rec));
  return ctx;
}

std::uint64_t Tracer::spans_recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

void Tracer::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_next_ = 0;
  recorded_ = 0;
  aggregates_.clear();
}

Span::Span(Tracer& tracer, std::string name)
    : Span(tracer, std::move(name), t_current, /*explicit_parent=*/false) {}

Span::Span(Tracer& tracer, std::string name, SpanContext parent)
    : Span(tracer, std::move(name), parent, /*explicit_parent=*/true) {}

Span::Span(Tracer& tracer, std::string name, SpanContext parent, bool)
    : tracer_(&tracer), name_(std::move(name)) {
  ctx_.trace_id = parent.trace_id != 0 ? parent.trace_id : tracer_->next_trace_id();
  ctx_.span_id = tracer_->next_span_id();
  parent_span_id_ = parent.span_id;
  saved_current_ = t_current;
  t_current = ctx_;
  start_seconds_ = tracer_->now_seconds();
}

void Span::finish() noexcept {
  if (finished_) return;
  finished_ = true;
  // Only unwind the thread-local if we are still its innermost span (a span
  // finished out of order on another thread must not clobber that thread's
  // stack — explicit-parent spans handed across threads restore whatever was
  // current on *their* thread).
  if (t_current.span_id == ctx_.span_id) t_current = saved_current_;
  SpanRecord rec;
  rec.name = std::move(name_);
  rec.trace_id = ctx_.trace_id;
  rec.span_id = ctx_.span_id;
  rec.parent_span_id = parent_span_id_;
  rec.thread_id = current_thread_id();
  rec.start_seconds = start_seconds_;
  rec.duration_seconds = timer_.seconds();
  try {
    tracer_->record(std::move(rec));
  } catch (...) {
    // Observability must never take down the request it observes.
  }
}

}  // namespace ahn::obs
