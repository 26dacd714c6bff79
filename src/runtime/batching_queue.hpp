#pragma once
// Micro-batching for single-row inference requests (§7.3 amortization):
// pending requests against the same model are coalesced into one batched
// forward — one fetch, one encode, one weight-load, one GEMM — instead of B
// independent single-row passes. Because the NN stack's GEMM accumulates
// each output row independently in a fixed order, a batched forward returns
// bitwise-identical rows to B separate one-row forwards.
//
// Dispatch policy (work-conserving, in the style of group commit): the
// client thread whose submit() fills a batch to `max_batch` executes that
// batch inline ("leader executes" — natural backpressure, no handoff
// latency). A background flusher thread sleeps until a row is pending, then
// takes every pending batch at once, executes them and loops; rows that
// arrive while it executes coalesce into its next batch, so batch size
// follows load with no timer and no partial batch waits for a free flusher.
// An idle queue costs no wakeups. flush() force-drains synchronously (used
// by tests and by queues built without a flusher).
//
// Reliability contract (docs/RELIABILITY.md):
//  * every future carries a Result<Tensor> — batch failures resolve futures
//    with a typed Status, never a broken promise;
//  * a request may carry a time budget: requests whose deadline passed are
//    completed with kDeadlineExceeded at dispatch time and are NOT coalesced
//    into the batch (no device time is spent on work nobody is waiting for);
//  * drain() executes everything pending, then rejects new submits with
//    kShuttingDown; destruction completes any still-pending requests with
//    kShuttingDown — every accepted request resolves, in every path.

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/serving_stats.hpp"
#include "common/status.hpp"
#include "common/timer.hpp"
#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace ahn::runtime {

/// An already-resolved request future, for results that never enter a
/// queue (admission rejections, breaker fallbacks, routing failures).
[[nodiscard]] inline std::future<Result<Tensor>> ready_result(Result<Tensor> r) {
  std::promise<Result<Tensor>> p;
  p.set_value(std::move(r));
  return p.get_future();
}

struct BatchingOptions {
  std::size_t max_batch = 32;  ///< coalesce at most this many rows
  bool flusher = true;         ///< dispatch partial batches on a background thread
                               ///  (false = only max_batch and flush() dispatch)
};

/// Thread-safety: fully thread-safe — submit/flush may race from any
/// thread; internal state is mutex-guarded and futures are single-owner.
class BatchingQueue {
 public:
  /// `run_batch` executes one coalesced (B x features) batch for `model` and
  /// returns one Result per row, in row order (size must equal B — on a
  /// batch-wide failure, return B copies of the same error Status). It is
  /// called from client threads (on batch-full) and from the flusher thread,
  /// potentially concurrently for different batches — it must be
  /// thread-safe, and it must not throw: typed failures travel as Statuses.
  /// `contexts` carries one SpanContext per batch row (trace_id 0 = the row
  /// was submitted untraced) so per-row downstream work — QoI fallback
  /// spans, latency exemplars — can stay attached to the submitting trace.
  using RowResults = std::vector<Result<Tensor>>;
  using BatchFn =
      std::function<RowResults(const std::string& model, const Tensor& batch,
                               const std::vector<obs::SpanContext>& contexts)>;

  /// `tracer` (optional) receives, per dispatched batch, one
  /// "batching.execute" span — parented under the first traced row's context
  /// when the batch carries one (cross-thread hand-off), else under the
  /// executing thread's current span — plus one "batching.batch_wait" span
  /// per traced row covering its enqueue -> dispatch interval. `clock` times
  /// deadlines and the measured batch wait.
  BatchingQueue(BatchFn run_batch, BatchingOptions opts, ServingStats* stats = nullptr,
                obs::Tracer* tracer = nullptr, Clock clock = {});
  ~BatchingQueue();  ///< stops the flusher; fails stragglers with kShuttingDown

  BatchingQueue(const BatchingQueue&) = delete;
  BatchingQueue& operator=(const BatchingQueue&) = delete;

  /// Enqueues one inference row (rank-1, or rank-2 with a single row) for
  /// `model`. The future resolves to the (1 x outputs) result row or a typed
  /// Status (kDeadlineExceeded if `timeout_seconds` elapse before dispatch,
  /// kShuttingDown after drain()/destruction, or whatever run_batch reports).
  [[nodiscard]] std::future<Result<Tensor>> submit(
      const std::string& model, Tensor row,
      std::optional<double> timeout_seconds = std::nullopt);

  /// Synchronously executes every pending batch on the calling thread.
  void flush();

  /// Graceful shutdown: flushes everything pending, then completes all
  /// subsequent submits immediately with kShuttingDown. Idempotent.
  void drain();

  /// Times the flusher woke and took pending batches. Stays 0 while the
  /// queue is idle, however long: the flusher only wakes for pending rows.
  [[nodiscard]] std::size_t flusher_sweeps() const;

 private:
  struct PendingBatch {
    std::vector<Tensor> rows;                   // each (1 x features)
    std::vector<std::promise<Result<Tensor>>> promises;
    std::vector<double> deadlines;              // clock_ time; +inf = none
    std::vector<obs::SpanContext> contexts;     // submitter's span per row
    std::vector<double> enqueue_seconds;        // tracer-epoch enqueue time
    double opened = 0.0;                        // clock_ time of the first row
                                                // (serving.batch_wait_seconds)

    [[nodiscard]] bool empty() const noexcept { return rows.empty(); }
  };

  /// Takes ownership of one model's pending batch (caller executes it).
  [[nodiscard]] PendingBatch take_locked(const std::string& model);
  [[nodiscard]] std::vector<std::pair<std::string, PendingBatch>> take_all_locked();
  void execute(const std::string& model, PendingBatch batch);
  /// Completes every request in `batch` with `status` (no execution).
  void fail_batch(PendingBatch batch, const Status& status);
  void flusher_loop();

  /// Updates the `serving.batch_queue_depth` gauge (total pending rows
  /// across models). Callers hold mu_.
  void update_depth_locked(std::ptrdiff_t delta);

  BatchFn run_batch_;
  BatchingOptions opts_;
  ServingStats* stats_;
  obs::Tracer* tracer_;
  Clock clock_;
  obs::Gauge* depth_gauge_ = nullptr;  ///< null when stats_ is null
  obs::LatencyHistogram* wait_hist_ = nullptr;  ///< serving.batch_wait_seconds

  mutable std::mutex mu_;
  std::size_t pending_rows_ = 0;  ///< total rows across pending_ batches
  std::unordered_map<std::string, PendingBatch> pending_;
  bool draining_ = false;  ///< reject new submits with kShuttingDown
  bool stop_ = false;      ///< terminate the flusher thread
  std::size_t flusher_sweeps_ = 0;
  /// Wakes the flusher when the first row of an empty queue arrives, and on
  /// shutdown.
  std::condition_variable flusher_cv_;
  std::thread flusher_;
};

}  // namespace ahn::runtime
