// Tests of the benchmark's measurement helpers. Build and run with the
// benchmark: cmake --build .bench_build --target hpcbench_tests &&
// .bench_build/hpcbench_tests

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

#include "support.hpp"

namespace hpcbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(Percentile, MedianOfOddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  // p99 of 1000 samples is rank 990: ten samples lie beyond it.
  EXPECT_EQ(tail_percentile(one_to(1000), 0.99), 990.0);
  // 999 samples: rank 990 leaves nine beyond, too few to report.
  EXPECT_FALSE(tail_percentile(one_to(999), 0.99).has_value());
  // The median of a small sample is still a tail percentile under the rule.
  EXPECT_EQ(tail_percentile(one_to(20), 0.5), 10.0);
  EXPECT_FALSE(tail_percentile(one_to(19), 0.5).has_value());
  EXPECT_FALSE(tail_percentile(one_to(100), 1.0).has_value());
}

TEST(Percentile, BlockTailsSplitInRecordedOrder) {
  std::vector<double> s = one_to(3500);  // blocks 3500..1751 and 1750..1
  EXPECT_EQ(block_tail_percentiles(s, 0.99, 1500), (std::vector<double>{3483.0, 1733.0}));
  // A stall in one block leaves the other block's tail alone.
  for (std::size_t i = 0; i < 100; ++i) s[i] = 1e6;
  EXPECT_EQ(block_tail_percentiles(s, 0.99, 1500)[1], 1733.0);
  // Fewer samples than a block: one block of all of them.
  EXPECT_EQ(block_tail_percentiles(one_to(1000), 0.99, 2000), (std::vector<double>{990.0}));
  EXPECT_TRUE(block_tail_percentiles(one_to(999), 0.99, 2000).empty());
  EXPECT_TRUE(block_tail_percentiles({}, 0.99, 2000).empty());
}

TEST(WindowCounter, MedianRateIgnoresAStalledWindow) {
  WindowCounter a(1.0), b(1.0);
  for (int i = 0; i < 50; ++i) {
    const double t = 0.1 * i + 0.05;
    if (t < 1.0 || t >= 2.0) (i % 2 == 0 ? a : b).add(t, 16.0);  // nothing in [1, 2)
  }
  a.merge(b);
  // Five whole 1 s windows: 160, 0, 160, 160, 160 rows per second; the
  // partial window [5, 5.5) does not count.
  EXPECT_EQ(a.median_rate(5.5), 160.0);
  EXPECT_EQ(a.median_rate(2.0), 80.0);
  EXPECT_FALSE(a.median_rate(0.5).has_value());
  WindowCounter half(0.5);
  half.add(0.25, 10.0);
  half.add(0.75, 30.0);
  half.add(-1.0, 99.0);  // before the phase: ignored
  EXPECT_EQ(half.median_rate(1.0), 40.0);
}

TEST(PassTally, CountsOnlyCompletePasses) {
  PassTally tally(4);
  const bool hits[] = {true, false, true, true};
  for (int pass = 0; pass < 2; ++pass) {
    for (bool h : hits) tally.record(h, !h);
  }
  EXPECT_TRUE(tally.at_pass_boundary());
  tally.record(false, true);  // a partial third pass
  tally.record(false, true);
  EXPECT_FALSE(tally.at_pass_boundary());
  EXPECT_EQ(tally.passes(), 2U);
  EXPECT_EQ(tally.problems(), 8U);
  EXPECT_EQ(tally.hits(), 6U);
  EXPECT_EQ(tally.fallbacks(), 2U);
  // The share is exactly the one-pass share, however many passes ran.
  EXPECT_EQ(share(tally.hits(), tally.problems()), 0.75);
}

TEST(PassTally, MergeAddsCommittedCounts) {
  PassTally a(2), b(2);
  a.record(true, false);
  a.record(false, true);
  b.record(true, false);
  b.record(true, false);
  b.record(false, true);  // uncommitted
  a.merge(b);
  EXPECT_EQ(a.passes(), 2U);
  EXPECT_EQ(a.problems(), 4U);
  EXPECT_EQ(a.hits(), 3U);
  EXPECT_EQ(a.fallbacks(), 1U);
  EXPECT_EQ(share(0, 0), 0.0);
}

TEST(PassOrder, EveryPassVisitsThePoolOnceInAFreshOrder) {
  PassOrder order(64, 7), same(64, 7), other(64, 8);
  std::vector<std::vector<std::size_t>> passes(3);
  for (auto& pass : passes) {
    for (std::size_t i = 0; i < 64; ++i) pass.push_back(order.next());
  }
  for (auto pass : passes) {
    std::sort(pass.begin(), pass.end());
    for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(pass[i], i);
  }
  EXPECT_NE(passes[0], passes[1]);
  std::vector<std::size_t> again, different;
  for (std::size_t i = 0; i < 64; ++i) again.push_back(same.next());
  for (std::size_t i = 0; i < 64; ++i) different.push_back(other.next());
  EXPECT_EQ(again, passes[0]);
  EXPECT_NE(different, passes[0]);
}

TEST(OutputCheck, PlantedMismatchFailsTheCheck) {
  OutputCheck check;
  const std::vector<double> want = {1.0, 2.0, 3.0};
  EXPECT_TRUE(check.expect_equal(want, want, "row", 0));
  EXPECT_EQ(check.mismatches(), 0U);

  std::vector<double> planted = want;
  planted[1] = std::nextafter(planted[1], 3.0);  // one ulp off
  EXPECT_FALSE(check.expect_equal(planted, want, "row", 7));
  EXPECT_EQ(check.mismatches(), 1U);
  EXPECT_NE(check.first_mismatch().find("row 7: value 1"), std::string::npos);

  // Bitwise, not numeric: -0.0 == 0.0 numerically but differs in bits.
  const std::vector<double> zero = {0.0}, negative_zero = {-0.0};
  EXPECT_FALSE(check.expect_equal(negative_zero, zero, "sign", 0));
  EXPECT_FALSE(check.expect_equal(want, zero, "length", 0));
  EXPECT_EQ(check.mismatches(), 3U);
  EXPECT_NE(check.first_mismatch().find("row 7"), std::string::npos);
}

TEST(SpanLog, DisabledRecordsNothing) {
  SpanLog log(false);
  { const SpanLog::Scope s(log, "a"); }
  EXPECT_TRUE(log.durations_us("a").empty());
  EXPECT_TRUE(log.self_time_us().empty());
}

TEST(SpanLog, SelfTimeSubtractsChildren) {
  SpanLog log(true);
  {
    const SpanLog::Scope outer(log, "outer");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    { const SpanLog::Scope inner(log, "inner"); std::this_thread::sleep_for(std::chrono::milliseconds(5)); }
  }
  std::thread([&] { const SpanLog::Scope other(log, "inner"); }).join();
  ASSERT_EQ(log.durations_us("outer").size(), 1U);
  ASSERT_EQ(log.durations_us("inner").size(), 2U);
  const double outer_us = log.durations_us("outer")[0];
  double inner_us = 0.0;
  for (double d : log.durations_us("inner")) inner_us += d;
  for (const auto& [name, self] : log.self_time_us()) {
    if (name == "outer") {
      EXPECT_NEAR(self, outer_us - log.durations_us("inner")[0], 1e-6);
    } else {
      EXPECT_NEAR(self, inner_us, 1e-6);
    }
  }
}

TEST(Result, EmitsExactlyTheResultKeys) {
  RunResult r;
  r.attempted = 1000;
  r.failed = 2;
  r.metrics = {{"latency_ms", 1.25, "ms"}, {"rows_per_s", 1.0 / 3.0, "rows/s"}};
  EXPECT_EQ(result_json(r),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 2, \"metrics\": "
            "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"rows_per_s\": {\"value\": 0.33333333333333331, \"unit\": \"rows/s\"}}}");
}

TEST(Result, NonFiniteValueMarksTheRunIncorrect) {
  RunResult r;
  r.attempted = 1;
  r.metrics = {{"step_p99_ms", std::numeric_limits<double>::infinity(), "ms"}};
  EXPECT_EQ(result_json(r),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 0, \"metrics\": "
            "{\"step_p99_ms\": {\"value\": 0, \"unit\": \"ms\"}}}");
}

TEST(HostSpeedStamp, IsPositive) { EXPECT_GT(host_speed_stamp_ms(), 0.0); }

}  // namespace
}  // namespace hpcbench
