#pragma once
// Per-request trace spans (docs/OBSERVABILITY.md). A Span is an RAII timer
// (built on ahn::Timer) that records its wall-clock duration, trace id,
// span id and parent span id into a Tracer when it ends. Spans nest through
// a thread-local current-span context, and the context can be captured and
// handed to another thread (SpanContext) so work run elsewhere — a
// coalesced batch on the flusher — stays attached to the trace that
// submitted it.
//
// The Tracer is bounded by construction: a fixed-capacity ring of recent
// span records plus per-name aggregates (count / total / min / max). It
// never grows with traffic.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/timer.hpp"

namespace ahn::obs {

/// Enough of a span's identity to parent further work on any thread.
struct SpanContext {
  std::uint64_t trace_id = 0;  ///< 0 = no active trace
  std::uint64_t span_id = 0;
};

/// One finished span.
struct SpanRecord {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;  ///< 0 = root span of its trace
  std::uint64_t thread_id = 0;       ///< small sequential id of the finishing thread
  double start_seconds = 0.0;        ///< offset from the tracer's epoch
  double duration_seconds = 0.0;
};

/// Small process-unique sequential id of the calling OS thread (1, 2, ...),
/// assigned on first use. Stable for the thread's lifetime; what SpanRecords
/// stamp so the Chrome-trace export can lay spans out on real thread rows.
[[nodiscard]] std::uint64_t current_thread_id() noexcept;

/// Head-sampling draw at a serving edge: true for every `every`'th call on
/// `ticker` (0 = never).
[[nodiscard]] inline bool sample_head(std::atomic<std::uint64_t>& ticker,
                                      std::size_t every) noexcept {
  return every > 0 && ticker.fetch_add(1, std::memory_order_relaxed) % every == 0;
}

/// Aggregate over every finished span of one name.
struct SpanStats {
  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;

  [[nodiscard]] double mean_seconds() const noexcept {
    return count > 0 ? total_seconds / static_cast<double>(count) : 0.0;
  }
};

struct TracerSnapshot {
  std::map<std::string, SpanStats> aggregates;
  std::vector<SpanRecord> recent;  ///< oldest first, at most the ring capacity
};

/// Span sink. Thread-safe; one process-wide instance via global(), or own
/// one per test for isolation.
class Tracer {
 public:
  explicit Tracer(std::size_t ring_capacity = 1024);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] static Tracer& global();

  /// The innermost active span on this thread ({0, 0} when none). This is
  /// what a new Span parents under, and what structured log lines stamp.
  [[nodiscard]] static SpanContext current() noexcept;

  [[nodiscard]] TracerSnapshot snapshot() const;

  /// Total spans ever recorded (including ones evicted from the ring).
  [[nodiscard]] std::uint64_t spans_recorded() const;

  /// Seconds elapsed since this tracer's epoch — the time base SpanRecord
  /// start offsets are expressed in. Callers that record spans after the
  /// fact (record_span) capture this at the event's start.
  [[nodiscard]] double now_seconds() const noexcept { return epoch_.seconds(); }

  /// Records an already-elapsed interval as a finished span without ever
  /// making it the thread's current span: the batching queue uses this to
  /// emit one "batching.batch_wait" span per coalesced row at dispatch time,
  /// parented under the *submitting* request's context rather than the
  /// executing thread's. `start_seconds` is in now_seconds() time; a parent
  /// with trace_id 0 starts a fresh trace. Returns the created span's
  /// context (for further explicit-parent children).
  SpanContext record_span(std::string name, SpanContext parent,
                          double start_seconds, double duration_seconds);

  void reset();

 private:
  friend class Span;

  [[nodiscard]] std::uint64_t next_trace_id() noexcept;
  [[nodiscard]] std::uint64_t next_span_id() noexcept;
  void record(SpanRecord rec);

  const std::size_t capacity_;
  const Timer epoch_;  ///< never restarted; span starts are offsets from it

  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;
  std::size_t ring_next_ = 0;       ///< next slot to overwrite
  std::uint64_t recorded_ = 0;
  std::map<std::string, SpanStats> aggregates_;
};

/// RAII span. Construction opens the span (parented under the thread's
/// current span, or an explicitly passed SpanContext for cross-thread
/// hand-off) and makes it the thread's current; finish()/destruction closes
/// it, restores the previous current, and records into the tracer.
class Span {
 public:
  Span(Tracer& tracer, std::string name);
  Span(Tracer& tracer, std::string name, SpanContext parent);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// This span's identity, capturable for async child work.
  [[nodiscard]] SpanContext context() const noexcept { return ctx_; }

  /// Ends the span early (idempotent; the destructor is then a no-op).
  void finish() noexcept;

 private:
  Span(Tracer& tracer, std::string name, SpanContext parent, bool explicit_parent);

  Tracer* tracer_;
  std::string name_;
  SpanContext ctx_;
  std::uint64_t parent_span_id_ = 0;
  SpanContext saved_current_;  ///< restored when this span finishes
  double start_seconds_ = 0.0;
  Timer timer_;
  bool finished_ = false;
};

}  // namespace ahn::obs
