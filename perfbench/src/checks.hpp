#pragma once
// Correctness properties the benchmark checks on every run. They are
// properties the method must have, not a copy of some earlier output:
//
//  * coverage — the (ε, δ) guarantee: among outcomes that met their
//    design point, each lies within ε·n with probability ≥ 1 − δ, so the
//    count within ε·n may not fall below a one-sided binomial lower bound;
//  * constant airtime — BFCE's modelled airtime does not grow with n
//    (log-log slope of the per-size-class mean against n stays ≈ 0,
//    where a protocol linear in n would read 1);
//  * true cardinality — computed by the benchmark from the input it
//    generated, never taken from the program under test.

#include <cstdint>
#include <string>
#include <vector>

#include "service/portable.hpp"

namespace perfbench {

/// Largest k with P(Binomial(m, q) < k) ≤ alpha. A success count below
/// it rejects "every trial succeeds with probability at least q" at
/// level alpha.
std::uint64_t binomial_lower_bound(std::uint64_t m, double q, double alpha);

/// True tag count of a portable population: the synthetic size, or the
/// popcount of the membership bitmap.
std::uint64_t true_cardinality(const bfce::service::PortablePopulation& pop);

/// One finished estimate, reduced to what the checks need.
struct Outcome {
  std::string estimator;
  double epsilon = 0.0;
  double delta = 0.0;
  bool met_by_design = false;
  double n_true = 0.0;
  double n_hat = 0.0;
  double airtime_s = 0.0;
};

/// Coverage of one (estimator, ε, δ) class.
struct CoverageCell {
  std::string estimator;
  double epsilon = 0.0;
  double delta = 0.0;
  std::uint64_t met = 0;     ///< outcomes with met_by_design
  std::uint64_t within = 0;  ///< of those, |n̂ − n| ≤ ε·n
  std::uint64_t bound = 0;   ///< binomial_lower_bound(met, 1 − δ, alpha)
  bool ok = true;
};

/// Groups `outcomes` by (estimator, ε, δ) and checks each class.
std::vector<CoverageCell> check_coverage(const std::vector<Outcome>& outcomes,
                                         double alpha);

/// Least-squares slope of log(mean airtime) against log(n) over the BFCE
/// outcomes grouped by n_true. NaN when fewer than two distinct sizes.
double bfce_airtime_loglog_slope(const std::vector<Outcome>& outcomes);

/// Per-class failures of the checks above as readable lines; empty when
/// every check holds.
std::vector<std::string> check_outcomes(const std::vector<Outcome>& outcomes,
                                        double alpha, double max_slope);

}  // namespace perfbench
