#include "tensor/gemm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/parallel.hpp"

namespace ahn::ops::detail {

namespace {

/// Reads op(A)(i, p): A is (m x k) row-major, or (k x m) when transposed.
inline double a_at(const double* a, bool a_trans, std::size_t m, std::size_t k,
                   std::size_t i, std::size_t p) noexcept {
  return a_trans ? a[p * m + i] : a[i * k + p];
}

/// Reads op(B)(p, j): B is (k x n) row-major, or (n x k) when transposed.
inline double b_at(const double* b, bool b_trans, std::size_t n, std::size_t k,
                   std::size_t p, std::size_t j) noexcept {
  return b_trans ? b[j * k + p] : b[p * n + j];
}

/// Packs the (mc x kc) block of op(A) at (i0, p0) into MR-row panels:
/// panel ir holds kc groups of MR consecutive row elements, zero-padded
/// past the last valid row so the microkernel never needs an edge case.
void pack_a(const double* a, bool a_trans, std::size_t m, std::size_t k,
            std::size_t i0, std::size_t mc, std::size_t p0, std::size_t kc,
            double* ap) {
  for (std::size_t ir = 0; ir < mc; ir += kMr) {
    const std::size_t rows = std::min(kMr, mc - ir);
    double* panel = ap + ir * kc;  // ir/kMr panels of kMr*kc each
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < rows; ++r) {
        panel[p * kMr + r] = a_at(a, a_trans, m, k, i0 + ir + r, p0 + p);
      }
      for (std::size_t r = rows; r < kMr; ++r) panel[p * kMr + r] = 0.0;
    }
  }
}

/// Packs the (kc x n) slice of op(B) at row p0 into NR-column panels,
/// zero-padded past the last valid column.
void pack_b(const double* b, bool b_trans, std::size_t n, std::size_t k,
            std::size_t p0, std::size_t kc, double* bp) {
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  for (std::size_t jp = 0; jp < n_panels; ++jp) {
    const std::size_t j0 = jp * kNr;
    const std::size_t cols = std::min(kNr, n - j0);
    double* panel = bp + jp * kNr * kc;
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t j = 0; j < cols; ++j) {
        panel[p * kNr + j] = b_at(b, b_trans, n, k, p0 + p, j0 + j);
      }
      for (std::size_t j = cols; j < kNr; ++j) panel[p * kNr + j] = 0.0;
    }
  }
}

/// The one register tile behind both paths: out[r][j] = sum over p of
/// A(r, p) * B(p, j), written out as a std::fma chain from 0.0 over
/// ascending p. A(r, p) is a[r * a_rs + p * a_ps]; B(p, j) is b[p * ldb + j].
/// Spelling the fma keeps the recurrence from depending on what the compiler
/// chooses to contract. The local accumulator and operand copies let GCC
/// keep the tile in registers (accumulating through `out` went via memory).
inline void fma_tile(std::size_t kc, const double* __restrict a, std::size_t a_rs,
                     std::size_t a_ps, const double* __restrict b, std::size_t ldb,
                     double out[kMr][kNr]) noexcept {
  double acc[kMr][kNr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    double av[kMr];
    double bv[kNr];
    for (std::size_t r = 0; r < kMr; ++r) av[r] = a[r * a_rs + p * a_ps];
    for (std::size_t j = 0; j < kNr; ++j) bv[j] = b[p * ldb + j];
    for (std::size_t r = 0; r < kMr; ++r) {
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] = std::fma(av[r], bv[j], acc[r][j]);
    }
  }
  for (std::size_t r = 0; r < kMr; ++r) {
    for (std::size_t j = 0; j < kNr; ++j) out[r][j] = acc[r][j];
  }
}

/// The 1-row form of fma_tile: crow[j] = sum over p of A(p) * B(p, j) with
/// A(p) = a[p * a_ps], the same fma chain. A single row runs faster through
/// this loop than through a tile.
inline void fma_row(std::size_t k, const double* __restrict a, std::size_t a_ps,
                    const double* __restrict b, std::size_t n,
                    double* __restrict crow) noexcept {
  for (std::size_t j = 0; j < n; ++j) crow[j] = 0.0;
  for (std::size_t p = 0; p < k; ++p) {
    const double av = a[p * a_ps];
    const double* __restrict brow = b + p * n;
    for (std::size_t j = 0; j < n; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
  }
}

/// Bias, then activation, over one row of C.
inline void epilogue_row(double* crow, std::size_t n, const double* bias,
                         EpilogueAct act) noexcept {
  if (bias != nullptr) {
    for (std::size_t j = 0; j < n; ++j) crow[j] += bias[j];
  }
  if (act != EpilogueAct::None) {
    for (std::size_t j = 0; j < n; ++j) crow[j] = epilogue_apply(act, crow[j]);
  }
}

/// Merges a microtile into C: overwrite on the first KC panel, accumulate on
/// later ones, and fold the epilogue into the write-back of the last panel.
inline void write_back(double* c, std::size_t ldc, std::size_t rows,
                       std::size_t cols, const double acc[kMr][kNr], bool first,
                       bool last, const double* bias, EpilogueAct act) noexcept {
  for (std::size_t r = 0; r < rows; ++r) {
    double* crow = c + r * ldc;
    for (std::size_t j = 0; j < cols; ++j) {
      double v = acc[r][j];
      if (!first) v += crow[j];
      if (last) {
        if (bias != nullptr) v += bias[j];
        if (act != EpilogueAct::None) v = epilogue_apply(act, v);
      }
      crow[j] = v;
    }
  }
}

/// Unpacked path for small products (k * n at or below kSmallGemm), every
/// orientation. op(B) = B^T (the input-gradient NT product) is first
/// transposed into a thread-local (k x n) panel, so all three products run
/// one loop. Full groups of kMr rows run fma_tile over kNr-column tiles
/// straight from A and B; the last n % kNr columns read a zero-padded copy of
/// their panel. A tail of fewer than kMr rows runs fma_row. Both compute
/// every element as the same fma chain over all k, so a row's bits depend on
/// neither its group nor m nor the thread count.
void gemm_small(bool a_trans, bool b_trans, std::size_t m, std::size_t n,
                std::size_t k, const double* a, const double* b, double* c,
                const double* bias, EpilogueAct act) {
  // A(i, p) = a[i * a_rs + p * a_ps].
  const std::size_t a_rs = a_trans ? 1 : k;
  const std::size_t a_ps = a_trans ? m : 1;
  const std::size_t n_full = n / kNr * kNr;
  static thread_local std::vector<double> bt;
  static thread_local std::vector<double> tail;
  if (b_trans) {
    bt.resize(k * n);
    for (std::size_t p = 0; p < k; ++p) {
      for (std::size_t j = 0; j < n; ++j) bt[p * n + j] = b[j * k + p];
    }
    b = bt.data();
  }
  if (m >= kMr && n_full < n) {
    tail.assign(k * kNr, 0.0);
    for (std::size_t p = 0; p < k; ++p) {
      std::copy(b + p * n + n_full, b + (p + 1) * n, tail.begin() + p * kNr);
    }
  }
  const double* tail_panel = tail.data();
  parallel_for(small_tile_work(m, n, k), (m + kMr - 1) / kMr, [&](std::size_t g) {
    const std::size_t i0 = g * kMr;
    if (i0 + kMr > m) {
      for (std::size_t i = i0; i < m; ++i) {
        fma_row(k, a + i * a_rs, a_ps, b, n, c + i * n);
        epilogue_row(c + i * n, n, bias, act);
      }
      return;
    }
    double acc[kMr][kNr];
    for (std::size_t j0 = 0; j0 < n_full; j0 += kNr) {
      fma_tile(k, a + i0 * a_rs, a_rs, a_ps, b + j0, n, acc);
      write_back(c + i0 * n + j0, n, kMr, kNr, acc, true, true,
                 bias != nullptr ? bias + j0 : nullptr, act);
    }
    if (n_full == n) return;
    fma_tile(k, a + i0 * a_rs, a_rs, a_ps, tail_panel, kNr, acc);
    write_back(c + i0 * n + n_full, n, kMr, n - n_full, acc, true, true,
               bias != nullptr ? bias + n_full : nullptr, act);
  });
}

void gemm_blocked(bool a_trans, bool b_trans, std::size_t m, std::size_t n,
                  std::size_t k, const double* a, const double* b, double* c,
                  const double* bias, EpilogueAct act) {
  const std::size_t n_panels = (n + kNr - 1) / kNr;
  const std::size_t n_rowblocks = (m + kMc - 1) / kMc;
  // Shared packed-B slice for the current KC panel; every row block reads it.
  std::vector<double> bp(n_panels * kNr * std::min(k, kKc));

  for (std::size_t pc = 0; pc < k; pc += kKc) {
    const std::size_t kc = std::min(kKc, k - pc);
    const bool first = pc == 0;
    const bool last = pc + kc == k;
    pack_b(b, b_trans, n, k, pc, kc, bp.data());

    // Threads own disjoint row blocks, so no two threads touch the same C
    // element — the parallelism never reorders any element's reduction.
    parallel_for(m * n * kc, n_rowblocks, [&](std::size_t ib) {
      const std::size_t i0 = ib * kMc;
      const std::size_t mc = std::min(kMc, m - i0);
      const std::size_t mc_padded = (mc + kMr - 1) / kMr * kMr;
      static thread_local std::vector<double> ap;
      ap.resize(mc_padded * kc);
      pack_a(a, a_trans, m, k, i0, mc, pc, kc, ap.data());

      for (std::size_t jp = 0; jp < n_panels; ++jp) {
        const std::size_t j0 = jp * kNr;
        const std::size_t cols = std::min(kNr, n - j0);
        const double* bpanel = bp.data() + jp * kNr * kc;
        for (std::size_t ir = 0; ir < mc; ir += kMr) {
          const std::size_t rows = std::min(kMr, mc - ir);
          double acc[kMr][kNr];
          fma_tile(kc, ap.data() + ir * kc, 1, kMr, bpanel, kNr, acc);
          write_back(c + (i0 + ir) * n + j0, n, rows, cols, acc, first, last,
                     bias != nullptr ? bias + j0 : nullptr, act);
        }
      }
    });
  }
}

}  // namespace

void gemm(bool a_trans, bool b_trans, std::size_t m, std::size_t n, std::size_t k,
          const double* a, const double* b, double* c, const double* bias,
          EpilogueAct act) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate reduction: the product is zero; only the epilogue runs.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        const double v = bias != nullptr ? bias[j] : 0.0;
        c[i * n + j] = act != EpilogueAct::None ? epilogue_apply(act, v) : v;
      }
    }
    return;
  }
  // Path choice must not depend on m (see kSmallGemm).
  if (k * n <= kSmallGemm) {
    gemm_small(a_trans, b_trans, m, n, k, a, b, c, bias, act);
  } else {
    gemm_blocked(a_trans, b_trans, m, n, k, a, b, c, bias, act);
  }
}

}  // namespace ahn::ops::detail
