#pragma once
// Helpers for the bitwise-across-team-size tests: run one computation at
// several OpenMP team budgets on the calling thread, and check that a shape
// is large enough for parallel_for to fork a real team at each of them.

#include <gtest/gtest.h>
#include <omp.h>

#include <cstddef>
#include <cstring>
#include <vector>

#include "common/parallel.hpp"

namespace ahn::team_test {

// 8 exceeds a 4-vCPU host on purpose: an oversubscribed team must give the
// same bits too.
inline constexpr int kTeamBudgets[] = {1, 2, 4, 8};

/// Iterations a compared loop needs so that a 4-thread team has no idle
/// thread.
inline constexpr std::size_t kMinTeamIterations = 4;

#if defined(__SANITIZE_THREAD__)
inline constexpr bool kThreadSanitizer = true;
#elif defined(__has_feature)
inline constexpr bool kThreadSanitizer = __has_feature(thread_sanitizer);
#else
inline constexpr bool kThreadSanitizer = false;
#endif

/// fn() evaluated once per budget in kTeamBudgets, in that order. libgomp
/// is not TSan-instrumented and its barriers read as races, so a TSan build
/// keeps the process's own budget (its CI job sets OMP_NUM_THREADS=1).
template <typename Fn>
auto at_team_budgets(Fn&& fn) {
  const int saved = omp_get_max_threads();
  std::vector<decltype(fn())> outs;
  for (const int t : kTeamBudgets) {
    if (!kThreadSanitizer) omp_set_num_threads(t);
    outs.push_back(fn());
  }
  omp_set_num_threads(saved);
  return outs;
}

/// Holds the calling thread's team budget at `threads` for its scope (the
/// process's own under TSan, as above), then restores it.
struct ScopedTeamBudget {
  explicit ScopedTeamBudget(int threads) : saved(omp_get_max_threads()) {
    if (!kThreadSanitizer) omp_set_num_threads(threads);
  }
  ~ScopedTeamBudget() { omp_set_num_threads(saved); }
  ScopedTeamBudget(const ScopedTeamBudget&) = delete;
  ScopedTeamBudget& operator=(const ScopedTeamBudget&) = delete;
  const int saved;
};

/// True when a loop of `n` iterations and `work` forks a team at every
/// budget above 1 and gives each thread of a 4-thread team an iteration,
/// i.e. the test compares real teams rather than serial runs.
[[nodiscard]] inline bool forks_full_team(std::size_t work, std::size_t n) {
  return work >= kParallelGrain && n >= kMinTeamIterations;
}

/// Every result in `outs` is bitwise equal to the first.
template <typename T>
void expect_bitwise_equal(const std::vector<T>& outs) {
  for (std::size_t i = 1; i < outs.size(); ++i) {
    ASSERT_EQ(outs[0].size(), outs[i].size());
    EXPECT_EQ(0, std::memcmp(outs[0].data(), outs[i].data(),
                             outs[0].size() * sizeof(*outs[0].data())))
        << "team budget " << kTeamBudgets[i] << " differs from 1";
  }
}

}  // namespace ahn::team_test
