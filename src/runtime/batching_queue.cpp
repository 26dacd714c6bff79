#include "runtime/batching_queue.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "nn/train.hpp"

namespace ahn::runtime {

BatchingQueue::BatchingQueue(BatchFn run_batch, BatchingOptions opts, ServingStats* stats,
                             obs::Tracer* tracer, Clock clock)
    : run_batch_(std::move(run_batch)),
      opts_(opts),
      stats_(stats),
      tracer_(tracer),
      clock_(std::move(clock)) {
  AHN_CHECK(run_batch_ != nullptr);
  AHN_CHECK_MSG(opts_.max_batch >= 1, "max_batch must be at least 1");
  // Looked up once (stable address for the registry's lifetime) so depth
  // updates on the submit path are a single atomic store.
  if (stats_ != nullptr) {
    depth_gauge_ = &stats_->metrics().gauge("serving.batch_queue_depth");
    wait_hist_ = &stats_->metrics().histogram("serving.batch_wait_seconds");
  }
  if (opts_.flusher) {
    flusher_ = std::thread([this] { flusher_loop(); });
  }
}

BatchingQueue::~BatchingQueue() {
  std::vector<std::pair<std::string, PendingBatch>> stranded;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    stop_ = true;
    stranded = take_all_locked();
  }
  flusher_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  // Requests still pending at teardown are completed with a typed status —
  // never a broken promise, and no surprise inference on a dying queue.
  // Callers that want stragglers *served* call drain() (or flush()) first.
  for (auto& [model, batch] : stranded) {
    fail_batch(std::move(batch), Status(StatusCode::kShuttingDown,
                                        "batching queue destroyed"));
  }
}

std::future<Result<Tensor>> BatchingQueue::submit(const std::string& model,
                                                  Tensor row,
                                                  std::optional<double> timeout_seconds) {
  if (row.rank() == 1) row.reshape({1, row.size()});
  AHN_CHECK_MSG(row.rank() == 2 && row.rows() == 1,
                "batched submit expects a single row, got shape " << row.shape_string());

  std::promise<Result<Tensor>> promise;
  std::future<Result<Tensor>> result = promise.get_future();

  double deadline = std::numeric_limits<double>::infinity();
  if (timeout_seconds.has_value()) {
    if (*timeout_seconds <= 0.0) {
      if (stats_ != nullptr) stats_->record_deadline_miss();
      promise.set_value(Status(StatusCode::kDeadlineExceeded, "expired before enqueue"));
      return result;
    }
    deadline = clock_.now() + *timeout_seconds;
  }

  PendingBatch ready;
  bool wake_flusher = false;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (draining_) {
      if (stats_ != nullptr) stats_->record_shutdown_rejection();
      promise.set_value(Status(StatusCode::kShuttingDown, "batching queue draining"));
      return result;
    }
    PendingBatch& pending = pending_[model];
    if (pending.empty()) pending.opened = clock_.now();
    pending.rows.push_back(std::move(row));
    pending.promises.push_back(std::move(promise));
    pending.deadlines.push_back(deadline);
    // The submitting thread's span context rides along so dispatch — which
    // may happen on the flusher or another client's thread — can parent
    // batch_wait/execute spans under the trace that enqueued the row.
    pending.contexts.push_back(obs::Tracer::current());
    pending.enqueue_seconds.push_back(tracer_ != nullptr ? tracer_->now_seconds() : 0.0);
    update_depth_locked(+1);
    if (pending.rows.size() >= opts_.max_batch) {
      ready = take_locked(model);
    } else {
      // The flusher sleeps only on an empty queue; a busy one finds this row
      // when it loops.
      wake_flusher = pending_rows_ == 1;
    }
  }
  if (wake_flusher) flusher_cv_.notify_one();
  // Leader executes outside the lock: other clients keep filling the next
  // batch (and other models' batches) while this one runs.
  if (!ready.empty()) execute(model, std::move(ready));
  return result;
}

void BatchingQueue::flush() {
  std::vector<std::pair<std::string, PendingBatch>> ready;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ready = take_all_locked();
  }
  for (auto& [model, batch] : ready) execute(model, std::move(batch));
}

void BatchingQueue::drain() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
  }
  flush();  // everything accepted before the flag flipped gets served
}

std::size_t BatchingQueue::flusher_sweeps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return flusher_sweeps_;
}

void BatchingQueue::update_depth_locked(std::ptrdiff_t delta) {
  pending_rows_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(pending_rows_) + delta);
  if (depth_gauge_ != nullptr) {
    depth_gauge_->set(static_cast<double>(pending_rows_));
  }
}

BatchingQueue::PendingBatch BatchingQueue::take_locked(const std::string& model) {
  PendingBatch taken = std::exchange(pending_[model], PendingBatch{});
  update_depth_locked(-static_cast<std::ptrdiff_t>(taken.rows.size()));
  return taken;
}

std::vector<std::pair<std::string, BatchingQueue::PendingBatch>>
BatchingQueue::take_all_locked() {
  std::vector<std::pair<std::string, PendingBatch>> ready;
  for (auto& [model, pending] : pending_) {
    if (!pending.empty()) ready.emplace_back(model, take_locked(model));
  }
  return ready;
}

void BatchingQueue::fail_batch(PendingBatch batch, const Status& status) {
  for (auto& p : batch.promises) p.set_value(status);
}

void BatchingQueue::execute(const std::string& model, PendingBatch batch) {
  // Expired requests are resolved here and NOT coalesced: no device time for
  // results nobody is waiting on, and no deadline-blown rows inflating the
  // batch the live requests pay for.
  const double now = clock_.now();
  PendingBatch live;
  for (std::size_t r = 0; r < batch.rows.size(); ++r) {
    if (now >= batch.deadlines[r]) {
      if (stats_ != nullptr) stats_->record_deadline_miss();
      batch.promises[r].set_value(
          Status(StatusCode::kDeadlineExceeded, "expired before dispatch"));
      continue;
    }
    live.rows.push_back(std::move(batch.rows[r]));
    live.promises.push_back(std::move(batch.promises[r]));
    live.deadlines.push_back(batch.deadlines[r]);
    live.contexts.push_back(batch.contexts[r]);
    live.enqueue_seconds.push_back(batch.enqueue_seconds[r]);
  }
  if (live.empty()) return;
  // One sample per batch, not per row, keeps the histogram's atomics off the
  // per-row path.
  if (wait_hist_ != nullptr) {
    wait_hist_->record(now - batch.opened);
  }

  // Per traced row, the coalescing delay becomes a "batching.batch_wait"
  // span parented under the *submitting* request — the one interval a
  // thread-current span could never cover, since no thread runs it.
  obs::SpanContext batch_parent{};  // first traced row adopts the batch
  if (tracer_ != nullptr) {
    const double now_s = tracer_->now_seconds();
    for (std::size_t r = 0; r < live.contexts.size(); ++r) {
      if (live.contexts[r].trace_id == 0) continue;
      const double start = live.enqueue_seconds[r];
      tracer_->record_span("batching.batch_wait", live.contexts[r], start,
                           std::max(0.0, now_s - start));
      if (batch_parent.trace_id == 0) batch_parent = live.contexts[r];
    }
  }

  // One span per dispatched batch: the coalescing itself is what the trace
  // should show (B requests riding one fetch/encode/load/run). When the
  // batch carries a traced row, the span joins that trace (explicit parent —
  // the dispatching thread may be the flusher with no current span). A batch
  // with no traced row and no ambient trace records nothing: head sampling
  // decides at the cluster edge, not here.
  std::optional<obs::Span> span;
  if (tracer_ != nullptr) {
    if (batch_parent.trace_id != 0) {
      span.emplace(*tracer_, "batching.execute", batch_parent);
    } else if (obs::Tracer::current().trace_id != 0) {
      span.emplace(*tracer_, "batching.execute");
    }
  }

  RowResults results;
  try {
    results = run_batch_(model, nn::pack_rows(live.rows), live.contexts);
  } catch (const std::exception& e) {
    // The BatchFn contract is no-throw; treat an escapee as an internal
    // error rather than letting it tear down a serving thread.
    fail_batch(std::move(live), Status(StatusCode::kInternal, e.what()));
    return;
  }
  if (results.size() != live.rows.size()) {
    fail_batch(std::move(live),
               Status(StatusCode::kInternal, "batch executor returned " +
                                                 std::to_string(results.size()) +
                                                 " results for " +
                                                 std::to_string(live.rows.size()) +
                                                 " rows"));
    return;
  }
  for (std::size_t r = 0; r < live.promises.size(); ++r) {
    live.promises[r].set_value(std::move(results[r]));
  }
}

void BatchingQueue::flusher_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Idle: sleep until a row is pending. submit() wakes us on the first.
    flusher_cv_.wait(lock, [this] { return stop_ || pending_rows_ > 0; });
    if (stop_) return;  // destructor resolves any stragglers
    // Group commit: take everything pending now. Rows that arrive while
    // these batches execute coalesce into the next sweep's batches.
    ++flusher_sweeps_;
    std::vector<std::pair<std::string, PendingBatch>> ready = take_all_locked();
    lock.unlock();
    for (auto& [model, batch] : ready) execute(model, std::move(batch));
    lock.lock();
  }
}

}  // namespace ahn::runtime
