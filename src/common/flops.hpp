#pragma once
// Analytic floating-point-operation accounting.
//
// Table 3 of the paper compares FLOP counts, cache-miss rate and bandwidth of
// the original code versus the surrogate. On this testbed we have no GPU
// profiler, so kernels report their FLOP and byte traffic analytically
// through this counter; the device model (src/runtime/device.hpp) converts
// the totals into modeled execution time and cache behaviour.

#include <atomic>
#include <cstdint>

namespace ahn {

/// Aggregated operation counts for one kernel invocation or phase.
struct OpCounts {
  std::uint64_t flops = 0;        ///< floating point operations
  std::uint64_t bytes_read = 0;   ///< bytes loaded from memory
  std::uint64_t bytes_written = 0;///< bytes stored to memory

  OpCounts& operator+=(const OpCounts& o) noexcept {
    flops += o.flops;
    bytes_read += o.bytes_read;
    bytes_written += o.bytes_written;
    return *this;
  }

  [[nodiscard]] std::uint64_t bytes_total() const noexcept {
    return bytes_read + bytes_written;
  }

  /// Arithmetic intensity (FLOPs per byte); 0 when no memory traffic.
  [[nodiscard]] double intensity() const noexcept {
    const std::uint64_t b = bytes_total();
    return b > 0 ? static_cast<double>(flops) / static_cast<double>(b) : 0.0;
  }
};

inline OpCounts operator+(OpCounts a, const OpCounts& b) noexcept { return a += b; }

/// Global accumulation point; kernels that want their cost modeled call
/// FlopCounter::add. Scoped regions can snapshot/diff. Counters are relaxed
/// atomics: the serving runtime runs inference kernels from many client and
/// flusher threads concurrently, and each field is an independent tally.
class FlopCounter {
 public:
  static FlopCounter& instance() noexcept {
    static FlopCounter c;
    return c;
  }

  void add(const OpCounts& c) noexcept {
    flops_.fetch_add(c.flops, std::memory_order_relaxed);
    bytes_read_.fetch_add(c.bytes_read, std::memory_order_relaxed);
    bytes_written_.fetch_add(c.bytes_written, std::memory_order_relaxed);
  }
  void reset() noexcept {
    flops_.store(0, std::memory_order_relaxed);
    bytes_read_.store(0, std::memory_order_relaxed);
    bytes_written_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] OpCounts total() const noexcept {
    return {flops_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed),
            bytes_written_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> flops_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

/// RAII region: captures the OpCounts added between construction and read().
class FlopRegion {
 public:
  FlopRegion() noexcept : start_(FlopCounter::instance().total()) {}

  [[nodiscard]] OpCounts delta() const noexcept {
    const OpCounts now = FlopCounter::instance().total();
    OpCounts d;
    d.flops = now.flops - start_.flops;
    d.bytes_read = now.bytes_read - start_.bytes_read;
    d.bytes_written = now.bytes_written - start_.bytes_written;
    return d;
  }

 private:
  OpCounts start_;
};

}  // namespace ahn
