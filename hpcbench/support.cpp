#include "support.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

namespace hpcbench {

std::optional<double> median(std::vector<double> samples) {
  if (samples.empty()) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || !(q > 0.0 && q < 1.0)) return std::nullopt;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::vector<double> block_tail_percentiles(std::span<const double> samples, double q,
                                           std::size_t block) {
  const std::size_t n = samples.size();
  const std::size_t blocks = std::max<std::size_t>(1, n / block);
  const std::size_t len = n / blocks;
  std::vector<double> out;
  for (std::size_t b = 0; b < blocks && n > 0; ++b) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(b * len);
    const auto last = b + 1 == blocks ? samples.end() : first + static_cast<std::ptrdiff_t>(len);
    const std::optional<double> p = tail_percentile(std::vector<double>(first, last), q);
    if (!p) return {};
    out.push_back(*p);
  }
  return out;
}

void WindowCounter::add(double t_s, double amount) {
  if (!(t_s >= 0.0)) return;
  const auto w = static_cast<std::size_t>(t_s / window_s_);
  if (w >= amounts_.size()) amounts_.resize(w + 1, 0.0);
  amounts_[w] += amount;
}

void WindowCounter::merge(const WindowCounter& other) {
  if (other.amounts_.size() > amounts_.size()) amounts_.resize(other.amounts_.size(), 0.0);
  for (std::size_t w = 0; w < other.amounts_.size(); ++w) amounts_[w] += other.amounts_[w];
}

std::optional<double> WindowCounter::median_rate(double span_s) const {
  const auto whole = static_cast<std::size_t>(span_s / window_s_);
  std::vector<double> rates(whole, 0.0);
  for (std::size_t w = 0; w < whole && w < amounts_.size(); ++w) {
    rates[w] = amounts_[w] / window_s_;
  }
  return median(std::move(rates));
}

PassTally::PassTally(std::size_t pool_size) : pool_size_(pool_size) {}

void PassTally::record(bool hit, bool fell_back) {
  pass_hits_ += hit ? 1 : 0;
  pass_fallbacks_ += fell_back ? 1 : 0;
  if (++in_pass_ < pool_size_) return;
  passes_ += 1;
  problems_ += pool_size_;
  hits_ += pass_hits_;
  fallbacks_ += pass_fallbacks_;
  in_pass_ = 0;
  pass_hits_ = pass_fallbacks_ = 0;
}

void PassTally::merge(const PassTally& other) {
  passes_ += other.passes_;
  problems_ += other.problems_;
  hits_ += other.hits_;
  fallbacks_ += other.fallbacks_;
}

PassOrder::PassOrder(std::size_t pool_size, std::uint64_t seed)
    : order_(pool_size), state_(seed) {
  for (std::size_t i = 0; i < pool_size; ++i) order_[i] = i;
}

std::size_t PassOrder::next() {
  if (pos_ == 0) {
    // Fisher-Yates driven by SplitMix64: the same seed gives the same
    // sequence of passes on every platform.
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      z ^= z >> 31;
      std::swap(order_[i - 1], order_[z % i]);
    }
  }
  const std::size_t index = order_[pos_];
  pos_ = (pos_ + 1) % order_.size();
  return index;
}

double share(std::uint64_t part, std::uint64_t whole) noexcept {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

bool OutputCheck::expect_equal(std::span<const double> got, std::span<const double> want,
                               const char* what, std::size_t item) {
  if (got.size() == want.size() &&
      std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0) {
    return true;
  }
  std::ostringstream msg;
  msg.precision(17);
  msg << what << " " << item << ": ";
  if (got.size() != want.size()) {
    msg << got.size() << " values, expected " << want.size();
  } else {
    for (std::size_t i = 0; i < got.size(); ++i) {
      if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
        msg << "value " << i << " is " << got[i] << ", expected " << want[i];
        break;
      }
    }
  }
  fail(msg.str());
  return false;
}

void OutputCheck::fail(const std::string& what) {
  const std::lock_guard lock(mu_);
  if (mismatches_.fetch_add(1, std::memory_order_relaxed) == 0) first_ = what;
}

std::string OutputCheck::first_mismatch() const {
  const std::lock_guard lock(mu_);
  return first_;
}

double host_speed_stamp_ms() {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint32_t i = 0; i < 40'000'000U; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t sink = x;
  (void)sink;
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ------------------------------------------------------------------- spans

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::int32_t> open;  ///< indices of spans not yet ended
};

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<std::uint64_t> next_log_id{1};

/// Self time (ns) of every span of one thread's log.
std::vector<std::int64_t> self_times(const ThreadLog& t) {
  std::vector<std::int64_t> self(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    self[i] = t.spans[i].end_ns - t.spans[i].start_ns;
  }
  for (const SpanRecord& s : t.spans) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.start_ns;
  }
  return self;
}

}  // namespace

SpanLog::SpanLog(bool enabled) : enabled_(enabled), id_(next_log_id.fetch_add(1)) {}

SpanLog::~SpanLog() = default;

ThreadLog& SpanLog::thread_log() {
  thread_local std::uint64_t cached_id = 0;
  thread_local ThreadLog* cached = nullptr;
  if (cached_id != id_) {
    const std::lock_guard lock(mu_);
    threads_.push_back(std::make_unique<ThreadLog>());
    threads_.back()->tid = static_cast<std::uint32_t>(threads_.size());
    cached = threads_.back().get();
    cached_id = id_;
  }
  return *cached;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name) {
  if (!log.enabled()) return;
  thread_ = &log.thread_log();
  index_ = static_cast<std::int32_t>(thread_->spans.size());
  SpanRecord rec;
  rec.name = name;
  rec.parent = thread_->open.empty() ? -1 : thread_->open.back();
  rec.start_ns = now_ns();
  thread_->spans.push_back(rec);
  thread_->open.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (thread_ == nullptr) return;
  thread_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  thread_->open.pop_back();
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  const std::lock_guard lock(mu_);
  std::vector<double> out;
  for (const auto& t : threads_) {
    for (const SpanRecord& s : t->spans) {
      if (std::strcmp(s.name, name) == 0) out.push_back(1e-3 * static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> SpanLog::self_time_us() const {
  const std::lock_guard lock(mu_);
  std::map<std::string, double> totals;
  for (const auto& t : threads_) {
    const std::vector<std::int64_t> self = self_times(*t);
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      totals[t->spans[i].name] += 1e-3 * static_cast<double>(self[i]);
    }
  }
  return {totals.begin(), totals.end()};
}

bool SpanLog::write_chrome_trace(const std::string& path, std::size_t max_events) const {
  const std::lock_guard lock(mu_);
  std::int64_t epoch = INT64_MAX;
  for (const auto& t : threads_) {
    for (const SpanRecord& s : t->spans) epoch = std::min(epoch, s.start_ns);
  }
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"traceEvents\":[";
  std::size_t written = 0;
  char buf[256];
  for (const auto& t : threads_) {
    const std::vector<std::int64_t> self = self_times(*t);
    for (std::size_t i = 0; i < t->spans.size() && written < max_events; ++i, ++written) {
      const SpanRecord& s = t->spans[i];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                    "\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}",
                    written == 0 ? "" : ",\n", s.name, t->tid,
                    1e-3 * static_cast<double>(s.start_ns - epoch),
                    1e-3 * static_cast<double>(s.end_ns - s.start_ns),
                    1e-3 * static_cast<double>(self[i]));
      os << buf;
    }
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

// ------------------------------------------------------------------ result

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string result_json(const RunResult& result) {
  bool correct = result.correct;
  std::string metrics;
  char buf[64];
  for (const Metric& m : result.metrics) {
    double v = m.value;
    if (!std::isfinite(v)) {
      correct = false;
      v = 0.0;
    }
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" + metrics + "}}";
}

}  // namespace hpcbench
