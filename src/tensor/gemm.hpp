#pragma once
// Cache-blocked, register-tiled GEMM core behind ops::matmul / matmul_nt /
// matmul_tn / matmul_epilogue. Layout follows the classic Goto/BLIS loop
// nest: the reduction dimension is split into KC panels (outermost, always
// serial), B is packed once per KC panel into NR-wide column panels shared
// by every thread, and threads claim disjoint MC row blocks whose A panels
// they pack thread-locally into MR-row panels. The innermost microkernel
// accumulates an MR x NR register tile over the packed panels. Small
// products (kSmallGemm) skip panel packing and run the same register tile
// straight from A and B over MR-row groups; op(B) = B^T is transposed once
// per call into a (k x n) panel first.
//
// Determinism contract (the property gradient checkpointing and the serving
// runtime's batched-inference bitwise guarantee rely on):
//  * every C element is produced by exactly one thread (threads partition
//    output rows, never the reduction dimension), and
//  * in every orientation its value is c = fma(op(A)(i, p), op(B)(p, j), c)
//    from c = 0.0 over ascending p, written as std::fma: one chain over all
//    of k on the small path, one chain per KC panel with the panels summed
//    in order on the blocked path. Then the bias is added and the
//    activation applied, once.
// The accumulation order depends only on k and on which path (k * n) takes,
// never on m, the orientation, tile position, or thread count — so results
// are bitwise identical across OMP_NUM_THREADS settings, and row i of a
// batched product equals the same row computed as a 1-row product.

#include <cstddef>

#include "tensor/ops.hpp"

namespace ahn::ops::detail {

/// Register microtile: MR rows x NR columns of C.
inline constexpr std::size_t kMr = 4;
inline constexpr std::size_t kNr = 8;
/// KC panel depth: A/B panel slices sized for L1/L2 residency.
inline constexpr std::size_t kKc = 256;
/// MC row block: unit of thread-level parallelism and A-packing.
inline constexpr std::size_t kMc = 64;
/// Products with k * n at or below this skip the blocked path's panels (the
/// setup would cost more than it saves). The threshold deliberately ignores
/// m so a 1-row product takes the same code path — and therefore the same
/// accumulation order — as any batch with the same (k, n).
inline constexpr std::size_t kSmallGemm = 64 * 64;

/// Work the unpacked path reports to parallel_for: half its
/// multiply-adds. Forking a team costs a fixed few microseconds, and the
/// register tile is fast enough that a team pays only from
/// 2 * kParallelGrain of them (`kernel_microbench --grain` on a 4-vCPU
/// host), while matvec and SpMV, which the grain also serves, are already
/// 2-3x faster on a team at kParallelGrain.
[[nodiscard]] constexpr std::size_t small_tile_work(std::size_t m, std::size_t n,
                                                    std::size_t k) noexcept {
  return m * n * k / 2;
}

/// C = epilogue(op(A) * op(B) + bias), written (never accumulated) into c.
/// a is (m x k) row-major, or (k x m) when a_trans; b is (k x n) row-major,
/// or (n x k) when b_trans. bias (length n) may be null; act applies after
/// the bias. c must not alias a or b.
void gemm(bool a_trans, bool b_trans, std::size_t m, std::size_t n, std::size_t k,
          const double* a, const double* b, double* c, const double* bias,
          EpilogueAct act);

}  // namespace ahn::ops::detail
