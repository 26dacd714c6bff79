#pragma once
// Analytic floating-point-operation accounting.
//
// Table 3 of the paper compares FLOP counts, cache-miss rate and bandwidth of
// the original code versus the surrogate. On this testbed we have no GPU
// profiler, so kernels report their FLOP and byte traffic analytically
// through this counter; the device model (src/runtime/device.hpp) converts
// the totals into modeled execution time and cache behaviour.

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

/// Accumulation point; kernels that want their cost modeled call
/// FlopCounter::add on the thread that ran them. Each thread keeps its own
/// tally, so a FlopRegion counts exactly its own thread's kernels while
/// other threads (serving clients, a parallel sample acquisition) run
/// theirs, and no shared counter is written on the serving path.
class FlopCounter {
 public:
  static FlopCounter& instance() noexcept {
    static FlopCounter c;
    return c;
  }

  void add(const OpCounts& c) noexcept { tally_ += c; }
  /// Zeroes the calling thread's tally.
  void reset() noexcept { tally_ = {}; }
  /// The calling thread's tally.
  [[nodiscard]] OpCounts total() const noexcept { return tally_; }

 private:
  static inline thread_local OpCounts tally_;
};

/// RAII region: captures the OpCounts the constructing thread added between
/// construction and delta(). A region is read on the thread that made it.
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
