// Tests of the benchmark's correctness helpers. Built by the benchmark's
// own CMake project; run with `ctest --test-dir .bench_build/perfbench`
// or directly as .bench_build/perfbench/perfbench_checks_test.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "util/rng.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

// Direct sum of the binomial pmf, for comparison with the log-space one.
double binomial_cdf_below(std::uint64_t m, double q, std::uint64_t k) {
  double sum = 0.0;
  double coef = 1.0;  // C(m, i)
  for (std::uint64_t i = 0; i < k; ++i) {
    sum += coef * std::pow(q, static_cast<double>(i)) *
           std::pow(1.0 - q, static_cast<double>(m - i));
    coef = coef * static_cast<double>(m - i) / static_cast<double>(i + 1);
  }
  return sum;
}

void test_binomial_lower_bound() {
  using perfbench::binomial_lower_bound;
  expect(binomial_lower_bound(0, 0.95, 1e-6) == 0, "empty sample");
  expect(binomial_lower_bound(50, 1.0, 1e-6) == 50, "q = 1 needs every trial");
  // The bound is the largest k with P(X < k) <= alpha.
  for (const std::uint64_t m : {10u, 40u, 100u}) {
    for (const double q : {0.9, 0.95, 0.99}) {
      const std::uint64_t k = binomial_lower_bound(m, q, 1e-3);
      char what[96];
      std::snprintf(what, sizeof(what), "bound m=%llu q=%.2f",
                    static_cast<unsigned long long>(m), q);
      expect(binomial_cdf_below(m, q, k) <= 1e-3 + 1e-12, what);
      expect(binomial_cdf_below(m, q, k + 1) > 1e-3, what);
    }
  }
  // Monotone in the sample size and in alpha.
  expect(binomial_lower_bound(1000, 0.95, 1e-6) >
             binomial_lower_bound(500, 0.95, 1e-6),
         "bound grows with m");
  expect(binomial_lower_bound(1000, 0.95, 1e-2) >=
             binomial_lower_bound(1000, 0.95, 1e-6),
         "looser alpha gives a higher bound");
}

void test_true_cardinality() {
  bfce::service::PortablePopulation synthetic;
  synthetic.kind = bfce::service::PortablePopulation::Kind::kSynthetic;
  synthetic.size = 12345;
  expect(perfbench::true_cardinality(synthetic) == 12345, "synthetic size");

  bfce::service::PortablePopulation membership;
  membership.kind = bfce::service::PortablePopulation::Kind::kMembership;
  membership.membership = bfce::util::BitVector(1000);
  for (std::size_t i = 0; i < 1000; i += 3) membership.membership.set(i);
  expect(perfbench::true_cardinality(membership) == 334, "bitmap popcount");
}

// A population of outcomes that honours the guarantee: errors drawn
// uniformly in ±0.6·ε·n, so every one lies within ε·n.
std::vector<perfbench::Outcome> honest_outcomes() {
  std::vector<perfbench::Outcome> out;
  bfce::util::Xoshiro256ss rng(7);
  for (int i = 0; i < 400; ++i) {
    perfbench::Outcome o;
    o.estimator = (i % 4 == 0) ? "ZOE" : "BFCE";
    o.epsilon = 0.05;
    o.delta = 0.05;
    o.met_by_design = true;
    o.n_true = (i % 2 == 0) ? 10000.0 : 1000000.0;
    o.n_hat = o.n_true * (1.0 + 0.6 * o.epsilon * (2.0 * rng.uniform() - 1.0));
    o.airtime_s = 0.19 + 0.001 * rng.uniform();
    out.push_back(o);
  }
  return out;
}

void test_coverage_accepts_honest_estimates() {
  const auto problems = perfbench::check_outcomes(honest_outcomes(), 1e-6, 0.05);
  for (const std::string& p : problems) std::fprintf(stderr, "  %s\n", p.c_str());
  expect(problems.empty(), "honest estimates pass every check");
}

void test_coverage_rejects_biased_estimates() {
  // The deliberately wrong estimate n̂·(1 + 2ε) must fail the check.
  auto outcomes = honest_outcomes();
  for (perfbench::Outcome& o : outcomes) o.n_hat *= 1.0 + 2.0 * o.epsilon;
  const auto cells = perfbench::check_coverage(outcomes, 1e-6);
  expect(cells.size() == 2, "one cell per estimator");
  for (const auto& c : cells) expect(!c.ok, "biased estimates fail coverage");
  expect(!perfbench::check_outcomes(outcomes, 1e-6, 0.05).empty(),
         "biased estimates reported");
}

void test_coverage_ignores_outcomes_off_design() {
  auto outcomes = honest_outcomes();
  for (perfbench::Outcome& o : outcomes) {
    o.met_by_design = false;
    o.n_hat *= 3.0;
  }
  for (const auto& c : perfbench::check_coverage(outcomes, 1e-6)) {
    expect(c.ok && c.met == 0, "off-design outcomes carry no guarantee");
  }
}

void test_airtime_slope() {
  auto outcomes = honest_outcomes();
  expect(std::fabs(perfbench::bfce_airtime_loglog_slope(outcomes)) < 0.01,
         "constant airtime has slope ~0");
  // A protocol whose airtime is linear in n has slope 1 and must fail.
  for (perfbench::Outcome& o : outcomes) o.airtime_s = 1e-5 * o.n_true;
  expect(std::fabs(perfbench::bfce_airtime_loglog_slope(outcomes) - 1.0) < 1e-9,
         "linear airtime has slope 1");
  expect(!perfbench::check_outcomes(outcomes, 1e-6, 0.05).empty(),
         "linear airtime reported");
}

}  // namespace

int main() {
  test_binomial_lower_bound();
  test_true_cardinality();
  test_coverage_accepts_honest_estimates();
  test_coverage_rejects_biased_estimates();
  test_coverage_ignores_outcomes_off_design();
  test_airtime_slope();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench checks: all passed\n");
  return 0;
}
