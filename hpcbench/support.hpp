#pragma once
// Measurement helpers of the benchmark: the percentile rule,
// whole-pass accounting, bitwise output checks, the host-speed stamp, the
// span log of traced runs, and the one-line JSON result. They carry the
// rules the benchmark's numbers rest on, so support_test.cpp tests them
// apart from the workloads.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hpcbench {

// ---------------------------------------------------------------- percentiles

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would let a handful of samples set the number.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Median (mean of the two middle samples for an even count); nullopt when
/// `samples` is empty.
[[nodiscard]] std::optional<double> median(std::vector<double> samples);

/// Nearest-rank percentile `q` in (0, 1): the sample at rank ceil(q * n).
/// Returns nullopt unless at least kMinSamplesBeyond samples rank above it.
[[nodiscard]] std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// Tail percentile `q` of each consecutive block of `samples`, taken in the
/// order they were recorded: max(1, n / block) blocks (block > 0) of
/// n / blocks samples, the last taking the remainder. The median of these is
/// the benchmark's tail: a host stall that covers a few blocks moves a whole-run percentile
/// but not that median, while a slower code path moves every block. Empty
/// when `samples` is, or when any block has too few samples for its
/// percentile.
[[nodiscard]] std::vector<double> block_tail_percentiles(std::span<const double> samples,
                                                         double q, std::size_t block);

/// Amounts (rows answered) summed into consecutive fixed windows of a timed
/// phase, for a rate that is the median over whole windows: a host stall
/// that covers a few windows moves the whole-phase average but not this
/// median, while a slowdown of the code shows in every window.
class WindowCounter {
 public:
  explicit WindowCounter(double window_s) : window_s_(window_s) {}

  /// Adds `amount` at `t_s` seconds into the phase (ignored when t_s < 0).
  void add(double t_s, double amount);
  /// Adds another counter's windows (same window length).
  void merge(const WindowCounter& other);

  /// Median amount per second over the windows that lie wholly in
  /// [0, span_s); nullopt when none does.
  [[nodiscard]] std::optional<double> median_rate(double span_s) const;

 private:
  double window_s_;
  std::vector<double> amounts_;
};

// ------------------------------------------------------- whole-pass accounting

/// Outcome counts over a fixed problem pool, committed only when a pass over
/// the whole pool completes. A run stops at an arbitrary time, so counting
/// partial passes would make shares such as the hit rate depend on where it
/// stopped; committed counts are whole multiples of one pass and repeat
/// exactly for a seed.
class PassTally {
 public:
  explicit PassTally(std::size_t pool_size);

  /// Records the next problem of the current pass.
  void record(bool hit, bool fell_back);

  /// True when no pass is partly recorded — the only place a run may stop.
  [[nodiscard]] bool at_pass_boundary() const noexcept { return in_pass_ == 0; }

  [[nodiscard]] std::uint64_t passes() const noexcept { return passes_; }
  [[nodiscard]] std::uint64_t problems() const noexcept { return problems_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t fallbacks() const noexcept { return fallbacks_; }

  /// Adds another tally's committed counts (same pool size).
  void merge(const PassTally& other);

 private:
  std::size_t pool_size_;
  std::size_t in_pass_ = 0;
  std::uint64_t pass_hits_ = 0, pass_fallbacks_ = 0;
  std::uint64_t passes_ = 0, problems_ = 0, hits_ = 0, fallbacks_ = 0;
};

/// The order a workload visits its problem pool in: every pass is a fresh
/// seeded permutation of all problems, so each pass covers the pool exactly
/// once while the grouping of problems into steps keeps changing.
class PassOrder {
 public:
  PassOrder(std::size_t pool_size, std::uint64_t seed);

  /// Index of the next problem; starts a new permutation after the last.
  [[nodiscard]] std::size_t next();

 private:
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
  std::uint64_t state_;
};

/// `part / whole`, or 0 when nothing was counted.
[[nodiscard]] double share(std::uint64_t part, std::uint64_t whole) noexcept;

// ------------------------------------------------------------ output checks

/// Bitwise comparison of produced against expected outputs. Thread-safe;
/// keeps the first mismatch for the report.
class OutputCheck {
 public:
  /// Returns true when `got` and `want` have equal length and equal bits;
  /// otherwise records "<what> <item>: <first differing value>".
  bool expect_equal(std::span<const double> got, std::span<const double> want,
                    const char* what, std::size_t item);
  /// Records a failed check that is not an output comparison.
  void fail(const std::string& what);

  [[nodiscard]] std::uint64_t mismatches() const noexcept {
    return mismatches_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string first_mismatch() const;

 private:
  std::atomic<std::uint64_t> mismatches_{0};
  mutable std::mutex mu_;
  std::string first_;  ///< guarded by mu_
};

// --------------------------------------------------------- host-speed stamp

/// Milliseconds a fixed serial integer loop takes on this host. Recorded
/// before and after each run beside its results so slow-host episodes can
/// be told apart from slow code; never used to scale a metric.
[[nodiscard]] double host_speed_stamp_ms();

// ------------------------------------------------------------------- spans

struct ThreadLog;  // support.cpp: one thread's spans

/// One finished span. Names are string literals; parent is an index into
/// the same thread's log (-1 for a root).
struct SpanRecord {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Per-thread span logs of a traced run. Disabled (the untraced runs) it
/// records nothing and reads no clock. Threads that call into the benchmark
/// from inside the library (batch executors running a QoI callback) get
/// their own log on first use.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }

  /// RAII span on the calling thread, nested under its innermost open span.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    ThreadLog* thread_ = nullptr;
    std::int32_t index_ = -1;
  };

  /// Durations (microseconds) of every span called `name`, all threads.
  [[nodiscard]] std::vector<double> durations_us(const char* name) const;

  /// Per span name: total self time in microseconds — each span's duration
  /// minus the part its child spans cover.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_time_us() const;

  /// Writes up to `max_events` spans as Chrome trace-event JSON ("X"
  /// events, one row per thread, self time in args). Returns false when the
  /// file cannot be written.
  bool write_chrome_trace(const std::string& path, std::size_t max_events) const;

 private:
  friend class Scope;
  [[nodiscard]] ThreadLog& thread_log();

  std::atomic<bool> enabled_;
  const std::uint64_t id_;  ///< process-unique; keys the thread-local log cache
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadLog>> threads_;  ///< guarded by mu_
};

// ------------------------------------------------------------------ result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// `s` as a JSON string literal.
[[nodiscard]] std::string json_quote(const std::string& s);

/// The run's one-line JSON result: exactly the keys correct, attempted,
/// failed and metrics, values with all 17 significant digits. A non-finite
/// value cannot be written as a JSON number: it is written as 0 and the
/// run is marked incorrect.
[[nodiscard]] std::string result_json(const RunResult& result);

}  // namespace hpcbench
