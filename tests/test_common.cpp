// Tests for src/common: RNG determinism and distributions, statistics
// helpers, the stopwatch, FLOP counting and table rendering.

#include <gtest/gtest.h>

#include <omp.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/flops.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace ahn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 5000; ++i) seen[rng.uniform_index(10)]++;
  for (int count : seen) EXPECT_GT(count, 300);  // roughly uniform
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(17);
  const int n = 40000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianScaledMeanSigma) {
  Rng rng(19);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.gaussian(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(31);
  Rng b = a.fork();
  // The fork should not replay the parent's stream.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Stats, MeanAndVariance) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(stddev(v), std::sqrt(1.25));
}

TEST(Stats, HarmonicMeanMatchesClosedForm) {
  const std::vector<double> v{1.0, 2.0, 4.0};
  EXPECT_NEAR(harmonic_mean(v), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
}

TEST(Stats, HarmonicMeanRejectsNonPositive) {
  const std::vector<double> v{1.0, -2.0};
  EXPECT_THROW((void)harmonic_mean(v), Error);
}

TEST(Stats, PercentileEndpointsAndMedian) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(median(v), 25.0);
}

TEST(Stats, RelativeErrorHandlesZeroReference) {
  EXPECT_DOUBLE_EQ(relative_error(3.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(relative_error(11.0, 10.0), 0.1);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(t.milliseconds(), 8.0);
  t.restart();
  EXPECT_LT(t.milliseconds(), 5.0);
}

TEST(OpCounts, SumAndIntensity) {
  OpCounts a{100, 50, 50};
  OpCounts b{100, 0, 0};
  const OpCounts c = a + b;
  EXPECT_EQ(c.flops, 200u);
  EXPECT_EQ(c.bytes_total(), 100u);
  EXPECT_DOUBLE_EQ(c.intensity(), 2.0);
  EXPECT_DOUBLE_EQ(b.intensity(), 0.0);
}

TEST(FlopRegion, CapturesDelta) {
  FlopCounter::instance().reset();
  FlopRegion region;
  FlopCounter::instance().add({10, 20, 30});
  const OpCounts d = region.delta();
  EXPECT_EQ(d.flops, 10u);
  EXPECT_EQ(d.bytes_read, 20u);
  EXPECT_EQ(d.bytes_written, 30u);
}

// Two threads run counted regions at the same time: each region sees only
// its own thread's adds, and the main thread's tally sees neither.
TEST(FlopRegion, CountsOnlyItsOwnThreadWhileOthersRun) {
  constexpr int kAdds = 20000;
  const FlopRegion main_region;
  std::atomic<int> started{0};
  OpCounts seen[2];
  auto worker = [&](int id) {
    const FlopRegion region;
    started.fetch_add(1);
    while (started.load() < 2) std::this_thread::yield();  // overlap the loops
    const OpCounts step{static_cast<std::uint64_t>(id + 1), 7, 0};
    for (int i = 0; i < kAdds; ++i) FlopCounter::instance().add(step);
    seen[id] = region.delta();
  };
  std::thread t0(worker, 0), t1(worker, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(seen[0].flops, 1u * kAdds);
  EXPECT_EQ(seen[1].flops, 2u * kAdds);
  EXPECT_EQ(seen[0].bytes_read, 7u * kAdds);
  EXPECT_EQ(seen[1].bytes_read, 7u * kAdds);
  EXPECT_EQ(seen[0].bytes_written, 0u);
  EXPECT_EQ(main_region.delta().flops, 0u);
}

// ------------------------------------------------------------ parallel_for

/// Sets the calling thread's team budget for one test, then restores it.
class TeamBudget {
 public:
  explicit TeamBudget(int threads) : saved_(omp_get_max_threads()) {
    omp_set_num_threads(threads);
  }
  ~TeamBudget() { omp_set_num_threads(saved_); }
  TeamBudget(const TeamBudget&) = delete;
  TeamBudget& operator=(const TeamBudget&) = delete;

 private:
  int saved_;
};

TEST(ParallelFor, BelowTheGrainRunsSeriallyOnTheCallingThread) {
  const TeamBudget budget(4);
  EXPECT_EQ(parallel_team_size(kParallelGrain - 1, 1000), 1);
  EXPECT_EQ(parallel_team_size(std::size_t{1} << 30, 1), 1);  // one iteration
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> seen(100, 0);
  std::atomic<int> off_caller{0};
  std::atomic<int> in_team{0};
  parallel_for(kParallelGrain - 1, seen.size(), [&](std::size_t i) {
    seen[i] += 1;
    if (std::this_thread::get_id() != caller) ++off_caller;
    if (omp_in_parallel()) ++in_team;
  });
  for (const int v : seen) EXPECT_EQ(v, 1);
  EXPECT_EQ(off_caller.load(), 0);
  EXPECT_EQ(in_team.load(), 0);  // never entered OpenMP
}

// Above the grain the team is the whole budget, never a size in between
// (shrinking a libgomp team ends pool threads).
TEST(ParallelFor, AboveTheGrainForksTheWholeBudget) {
  const TeamBudget budget(4);
  EXPECT_EQ(parallel_team_size(kParallelGrain, 1000), 4);
  EXPECT_EQ(parallel_team_size(100 * kParallelGrain, 1000), 4);
  EXPECT_EQ(parallel_team_size(kParallelGrain, 2), 4);  // surplus threads idle
  std::vector<int> team(1000, 0);  // team size seen by each iteration
  parallel_for(kParallelGrain, team.size(),
               [&](std::size_t i) { team[i] = omp_get_num_threads(); });
  for (const int t : team) EXPECT_EQ(t, 4);
}

TEST(ParallelFor, ThreadBudgetOfOneNeverForks) {
  const TeamBudget budget(4);
  std::thread serving([] {
    omp_set_num_threads(1);
    EXPECT_EQ(parallel_team_size(std::size_t{1} << 40, std::size_t{1} << 20), 1);
  });
  serving.join();
  // The budget is per thread: the caller's own team is untouched.
  EXPECT_EQ(parallel_team_size(100 * kParallelGrain, 1000), 4);
}

// Tasks 1-3 throw, task 1 last in time. All four run in the team, and the
// exception rethrown is task 1's, the one a serial loop would have thrown.
TEST(ParallelTasks, RethrowsTheLowestFailingTasksException) {
  const TeamBudget budget(4);
  std::atomic<int> ran{0};
  std::string what = "no exception";
  try {
    parallel_tasks(4, [&](std::size_t i) {
      ++ran;
      if (i == 0) return;
      if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("task " + std::to_string(i));
    });
  } catch (const std::runtime_error& e) {
    what = e.what();
  }
  EXPECT_EQ(what, "task 1");
  EXPECT_EQ(ran.load(), 4);
}

// Inside the team every nested loop runs serially: each task sees a team of
// one, however much work it has.
TEST(ParallelTasks, EachTaskRunsAtATeamOfOne) {
  const TeamBudget budget(4);
  std::vector<int> team(8, 0), nested(8, 0);
  parallel_tasks(team.size(), [&](std::size_t i) {
    team[i] = omp_get_num_threads();
    nested[i] = parallel_team_size(std::size_t{1} << 40, 1000);
  });
  for (std::size_t i = 0; i < team.size(); ++i) {
    EXPECT_EQ(team[i], 4) << "task " << i;
    EXPECT_EQ(nested[i], 1) << "task " << i;
  }
}

TEST(ParallelTasks, OneTaskRunsInlineAtTheCallersBudget) {
  const TeamBudget budget(4);
  const std::thread::id caller = std::this_thread::get_id();
  bool on_caller = false;
  bool in_team = true;
  int nested = 0;
  parallel_tasks(1, [&](std::size_t) {
    on_caller = std::this_thread::get_id() == caller;
    in_team = omp_in_parallel() != 0;
    nested = parallel_team_size(std::size_t{1} << 40, 1000);
  });
  EXPECT_TRUE(on_caller);
  EXPECT_FALSE(in_team);
  EXPECT_EQ(nested, 4);
}

TEST(TextTable, RendersAlignedRows) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1.00"});
  t.add_row({"longer-name", "2.50"});
  const std::string out = t.render();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("| name"), std::string::npos);
  // header separator present
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TextTable, RejectsAridityMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

}  // namespace
}  // namespace ahn
