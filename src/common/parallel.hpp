#pragma once
// The library's one OpenMP seam. Every data-parallel loop in src/ goes
// through parallel_for, which decides from an estimate of the loop's work
// whether a team pays at all, instead of forking the default team whatever
// the size:
//
//   team = work < kParallelGrain ? 1 : omp_get_max_threads()
//
// A team of 1 runs the loop on the calling thread without entering OpenMP,
// so a 1-row product on the §7.3 online path pays no fork/join. A team is
// never sized in between: libgomp ends pool threads when a team shrinks and
// starts new ones when it grows back, so regions alternating between 4 and
// 2 threads cost ~6x a region at a constant 4 (kernel_microbench --grain).
//
// Team budget: omp_get_max_threads() reads OpenMP's per-thread nthreads ICV.
// Serving never forks: Orchestrator::serve runs every batch at a team of one
// (TeamOfOne) on whichever thread runs it — a client, an inline leader or the
// batching flusher. The thread that builds a model keeps the full team.
//
// Whole tasks: independent units far above the grain (exact sample runs, NAS
// candidates, LTFB worker rounds) run as the iterations of one parallel_for
// through parallel_tasks; the 2D search's arms do too, with their own
// deferred rethrow. Inside the team every nested loop runs serially, so each
// task runs at a team of one; a single task runs inline at the caller's
// budget.
//
// Determinism: iterations stay the unit of parallel work and each writes
// only its own outputs, so a result never depends on the team size chosen
// (the contract in tensor/gemm.hpp).

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <vector>

namespace ahn {

/// Work, in multiply-add-sized operations, from which a loop forks a team
/// (docs/PERFORMANCE.md, "Parallelism"). On a 4-vCPU host a 4-thread team
/// runs matvec and SpMV 2-3x faster than one thread from 32768. The
/// register-tiled GEMM is faster per multiply-add and counts half of them
/// (ops::detail::small_tile_work), since a team pays for it only from 65536.
inline constexpr std::size_t kParallelGrain = 32768;

/// The team parallel_for uses for `n` iterations totalling `work`: 1, or
/// the calling thread's whole budget (some threads idle when n is smaller).
[[nodiscard]] inline int parallel_team_size(std::size_t work, std::size_t n) noexcept {
  if (n < 2 || work < kParallelGrain) return 1;
  // Inside a team a loop never forks again (OpenMP would run it on one
  // thread anyway, after paying for the region).
  if (omp_in_parallel()) return 1;
  return std::max(1, omp_get_max_threads());
}

/// Holds the calling thread's team budget at 1 for its scope, then gives the
/// thread back the budget it had.
struct TeamOfOne {
  TeamOfOne() noexcept : saved(omp_get_max_threads()) { omp_set_num_threads(1); }
  ~TeamOfOne() { omp_set_num_threads(saved); }
  const int saved;
};

/// Runs body(i) for i in [0, n), statically partitioned over a team sized
/// by parallel_team_size(work, n). body must write disjoint data per i.
template <typename Body>
void parallel_for(std::size_t work, std::size_t n, Body&& body) {
  if (parallel_team_size(work, n) == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The team is the calling thread's whole budget, its nthreads ICV.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) body(i);
}

/// Runs task(i) for i in [0, n) as independent whole tasks, one per
/// iteration of a parallel_for. An exception must not leave an OpenMP
/// region: each task keeps its own, and the lowest index's, the one a serial
/// loop would have thrown, is rethrown after the team.
template <typename Task>
void parallel_tasks(std::size_t n, Task&& task) {
  std::vector<std::exception_ptr> errors(n);
  parallel_for(n * kParallelGrain, n, [&](std::size_t i) {
    try {
      task(i);
    } catch (...) {
      errors[i] = std::current_exception();
    }
  });
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ahn
