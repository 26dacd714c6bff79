#include "apps/blackscholes_app.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/flops.hpp"

namespace ahn::apps {

namespace {
double std_normal_cdf(double x) {
  return 0.5 * std::erfc(-x / std::numbers::sqrt2);
}

/// Counts `priced` options priced `num_runs` times: ~40 FLOPs per
/// closed-form price, its 5 inputs read and its price written each run.
void count_prices(std::size_t priced, std::size_t num_runs) {
  OpCounts c;
  c.flops = 40ULL * priced * num_runs;
  c.bytes_read = sizeof(double) * 5 * priced * num_runs;
  c.bytes_written = sizeof(double) * priced * num_runs;
  FlopCounter::instance().add(c);
}
}  // namespace

BlackscholesApp::BlackscholesApp(std::size_t options, std::size_t num_runs)
    : options_(options), num_runs_(num_runs) {
  AHN_CHECK(options >= 1 && num_runs >= 1);
}

double BlackscholesApp::call_price(double spot, double strike, double rate, double vol,
                                   double expiry) {
  const double sqrt_t = std::sqrt(expiry);
  const double d1 =
      (std::log(spot / strike) + (rate + 0.5 * vol * vol) * expiry) / (vol * sqrt_t);
  const double d2 = d1 - vol * sqrt_t;
  return spot * std_normal_cdf(d1) - strike * std::exp(-rate * expiry) * std_normal_cdf(d2);
}

void BlackscholesApp::generate_problems(std::size_t count, std::uint64_t seed) {
  problems_.clear();
  problems_.reserve(count);
  Rng rng(seed);
  for (std::size_t p = 0; p < count; ++p) {
    // The surrogate targets a specific input distribution (§3.2 of the
    // paper: one NN model per input distribution): near-the-money options
    // with moderate vol/expiry, the regime PARSEC's input files cover.
    std::vector<double> opts(input_dim());
    for (std::size_t o = 0; o < options_; ++o) {
      opts[o * 5 + 0] = rng.uniform(80.0, 120.0);   // spot
      opts[o * 5 + 1] = rng.uniform(85.0, 115.0);   // strike
      opts[o * 5 + 2] = rng.uniform(0.02, 0.06);    // risk-free rate
      opts[o * 5 + 3] = rng.uniform(0.20, 0.35);    // volatility
      opts[o * 5 + 4] = rng.uniform(0.6, 1.2);      // expiry (years)
    }
    problems_.push_back(std::move(opts));
  }
}

RegionRun BlackscholesApp::run_region(std::size_t i) const {
  const std::vector<double>& opts = problems_.at(i);
  return timed_region([&] {
    std::vector<double> prices(options_);
    // PARSEC re-prices NUM_RUNS times (its way of scaling the kernel).
    for (std::size_t run = 0; run < num_runs_; ++run) {
      for (std::size_t o = 0; o < options_; ++o) {
        prices[o] = call_price(opts[o * 5 + 0], opts[o * 5 + 1], opts[o * 5 + 2],
                               opts[o * 5 + 3], opts[o * 5 + 4]);
      }
    }
    count_prices(options_, num_runs_);
    return prices;
  });
}

RegionRun BlackscholesApp::run_region_perforated(std::size_t i,
                                                 double keep_fraction) const {
  AHN_CHECK(keep_fraction > 0.0 && keep_fraction <= 1.0);
  const std::vector<double>& opts = problems_.at(i);
  // Perforate the option loop: only the first keep*N options are priced;
  // skipped options reuse the last computed price (HPAC's value-forwarding).
  const auto priced = std::max<std::size_t>(
      1, static_cast<std::size_t>(keep_fraction * static_cast<double>(options_)));
  return timed_region([&] {
    std::vector<double> prices(options_, 0.0);
    for (std::size_t run = 0; run < num_runs_; ++run) {
      for (std::size_t o = 0; o < priced; ++o) {
        prices[o] = call_price(opts[o * 5 + 0], opts[o * 5 + 1], opts[o * 5 + 2],
                               opts[o * 5 + 3], opts[o * 5 + 4]);
      }
    }
    for (std::size_t o = priced; o < options_; ++o) prices[o] = prices[priced - 1];
    count_prices(priced, num_runs_);
    return prices;
  });
}

double BlackscholesApp::other_part_seconds(std::size_t i) const {
  // Option parsing / output writing stand-in.
  const std::vector<double>& opts = problems_.at(i);
  const Timer t;
  double acc = 0.0;
  for (double v : opts) acc += v;
  volatile double sink = acc;
  (void)sink;
  return t.seconds();
}

double BlackscholesApp::qoi(std::size_t i, std::span<const double> region_outputs) const {
  (void)i;
  double s = 0.0;
  for (double p : region_outputs) s += p;
  return s / static_cast<double>(region_outputs.size());
}

double BlackscholesApp::qoi_error(std::size_t i, std::span<const double> exact_outputs,
                                  std::span<const double> surrogate_outputs) const {
  (void)i;
  return relative_l2(surrogate_outputs, exact_outputs);
}

}  // namespace ahn::apps
