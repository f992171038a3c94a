#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <tuple>

namespace perfbench {

std::uint64_t binomial_lower_bound(std::uint64_t m, double q, double alpha) {
  if (m == 0) return 0;
  if (q >= 1.0) return m;
  if (q <= 0.0) return 0;
  const double mm = static_cast<double>(m);
  const double lq = std::log(q);
  const double l1q = std::log1p(-q);
  double cdf = 0.0;
  for (std::uint64_t i = 0; i <= m; ++i) {
    const double x = static_cast<double>(i);
    const double log_pmf = std::lgamma(mm + 1.0) - std::lgamma(x + 1.0) -
                           std::lgamma(mm - x + 1.0) + x * lq + (mm - x) * l1q;
    cdf += std::exp(log_pmf);
    if (cdf > alpha) return i;
  }
  return m;
}

std::uint64_t true_cardinality(const bfce::service::PortablePopulation& pop) {
  using Kind = bfce::service::PortablePopulation::Kind;
  switch (pop.kind) {
    case Kind::kSynthetic:
      return pop.size;
    case Kind::kMembership:
      return pop.membership.count_ones();
    case Kind::kNone:
      break;
  }
  return 0;
}

std::vector<CoverageCell> check_coverage(const std::vector<Outcome>& outcomes,
                                         double alpha) {
  std::map<std::tuple<std::string, double, double>, CoverageCell> cells;
  for (const Outcome& o : outcomes) {
    CoverageCell& c = cells[{o.estimator, o.epsilon, o.delta}];
    c.estimator = o.estimator;
    c.epsilon = o.epsilon;
    c.delta = o.delta;
    if (!o.met_by_design) continue;
    ++c.met;
    if (std::fabs(o.n_hat - o.n_true) <= o.epsilon * o.n_true) ++c.within;
  }
  std::vector<CoverageCell> out;
  for (auto& [key, c] : cells) {
    c.bound = binomial_lower_bound(c.met, 1.0 - c.delta, alpha);
    c.ok = c.within >= c.bound;
    out.push_back(c);
  }
  return out;
}

double bfce_airtime_loglog_slope(const std::vector<Outcome>& outcomes) {
  std::map<double, std::pair<double, std::uint64_t>> by_n;
  for (const Outcome& o : outcomes) {
    if (o.estimator != "BFCE" || o.n_true <= 0.0) continue;
    auto& [sum, count] = by_n[o.n_true];
    sum += o.airtime_s;
    ++count;
  }
  if (by_n.size() < 2) return std::numeric_limits<double>::quiet_NaN();
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (const auto& [n, acc] : by_n) {
    const double x = std::log(n);
    const double y = std::log(acc.first / static_cast<double>(acc.second));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double k = static_cast<double>(by_n.size());
  return (k * sxy - sx * sy) / (k * sxx - sx * sx);
}

std::vector<std::string> check_outcomes(const std::vector<Outcome>& outcomes,
                                        double alpha, double max_slope) {
  std::vector<std::string> problems;
  char buf[256];
  for (const CoverageCell& c : check_coverage(outcomes, alpha)) {
    if (c.ok) continue;
    std::snprintf(buf, sizeof(buf),
                  "coverage %s eps=%.3f delta=%.3f: %llu of %llu met-by-design "
                  "outcomes within eps*n, binomial lower bound %llu",
                  c.estimator.c_str(), c.epsilon, c.delta,
                  static_cast<unsigned long long>(c.within),
                  static_cast<unsigned long long>(c.met),
                  static_cast<unsigned long long>(c.bound));
    problems.emplace_back(buf);
  }
  const double slope = bfce_airtime_loglog_slope(outcomes);
  if (!std::isnan(slope) && slope > max_slope) {
    std::snprintf(buf, sizeof(buf),
                  "BFCE airtime grows with n: log-log slope %.4f > %.4f",
                  slope, max_slope);
    problems.emplace_back(buf);
  }
  return problems;
}

}  // namespace perfbench
