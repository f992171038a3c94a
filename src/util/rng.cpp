#include "util/rng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace bfce::util {

std::uint64_t Xoshiro256ss::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method: multiply-shift with a rejection
  // step only in the (rare) biased region.
  if (bound == 0) return 0;
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) noexcept {
  // Feed (master, index) through two rounds of splitmix so that adjacent
  // indices land in unrelated regions of the seed space.
  SplitMix64 sm(master ^ (0xA0761D6478BD642FULL * (index + 1)));
  sm();  // discard one output to decorrelate from the raw key
  return sm();
}

namespace {

// The pieces below port libstdc++-12's binomial_distribution
// (bits/random.tcc) statement for statement, so a draw returns the same
// value and leaves `rng` at the same position as
// std::binomial_distribution<std::uint64_t>(trials, p)(rng). Operand
// order and integer/double conversions follow the original; reordering
// any expression changes low bits.

/// A uniform in [0, 1), drawn as libstdc++'s __detail::_Adaptor does.
double canonical(Xoshiro256ss& rng) {
  return std::generate_canonical<double, std::numeric_limits<double>::digits>(
      rng);
}

/// A standard exponential, spelled -log(1 − U) as in every libstdc++ site.
double exponential(Xoshiro256ss& rng) {
  return -std::log(1.0 - canonical(rng));
}

/// ln Γ(x) through lgamma_r: bit-identical to lgamma() without its
/// write to the process-global `signgam`.
double log_gamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

/// Devroye's second waiting-time method (binomial_distribution::
/// _M_waiting): sums exponential spacings until they pass q.
std::uint64_t waiting(std::uint64_t t, double q, Xoshiro256ss& rng) {
  std::uint64_t x = 0;
  double sum = 0.0;
  do {
    if (t == x) return x;
    const double e = exponential(rng);
    sum += e / static_cast<double>(t - x);
    x += 1;
  } while (sum <= q);
  return x - 1;
}

/// Devroye's rejection sampler for t·p12 ≥ 8 (param_type::_M_initialize
/// followed by the !_M_easy branch of operator()), p12 = min(p, 1 − p).
/// Returns the draw for p12; the caller reflects it.
std::uint64_t devroye(std::uint64_t t, double p12, Xoshiro256ss& rng) {
  const auto td = static_cast<double>(t);
  // Parameters (_M_initialize).
  const double np = std::floor(td * p12);
  const double pa = np / td;
  const double one_p = 1 - pa;
  const auto pi_4 =
      static_cast<double>(0.7853981633974483096156608458198757L);
  const double d1x =
      std::sqrt(np * one_p * std::log(32 * np / (81 * pi_4 * one_p)));
  const double d1 = std::round(std::max<double>(1.0, d1x));
  const double d2x = std::sqrt(
      np * one_p *
      std::log(static_cast<double>(32 * t) * one_p / (pi_4 * pa)));
  const double d2 = std::round(std::max<double>(1.0, d2x));
  // sqrt(pi / 2)
  const auto spi_2 =
      static_cast<double>(1.2533141373155002512078826424055226L);
  const double s1 = std::sqrt(np * one_p) * (1 + d1 / (4 * np));
  const double s2 = std::sqrt(np * one_p) *
                    (1 + d2 / (static_cast<double>(4 * t) * one_p));
  const double c = 2 * d1 / np;
  const double a1 = std::exp(c) * s1 * spi_2;
  const double a12 = a1 + s2 * spi_2;
  const double s1s = s1 * s1;
  const double a123 = a12 + (std::exp(d1 / (td * one_p)) * 2 * s1s / d1 *
                             std::exp(-d1 * d1 / (2 * s1s)));
  const double s2s = s2 * s2;
  const double s = a123 + 2 * s2s / d2 * std::exp(-d2 * d2 / (2 * s2s));
  const double lf = log_gamma(np + 1) + log_gamma(td - np + 1);
  const double lp1p = std::log(pa / one_p);
  const double q = -std::log(1 - (p12 - pa) / one_p);

  // Rejection loop (operator()). The normal distribution caches the
  // second value of each polar pair, so one instance lives for the
  // whole draw, as the distribution's _M_nd member does.
  const double naf = (1 - std::numeric_limits<double>::epsilon()) / 2;
  const double thr =
      static_cast<double>(std::numeric_limits<std::uint64_t>::max()) + naf;
  std::normal_distribution<double> normal;
  double x = 0.0;
  bool reject = true;
  do {
    const double u = s * canonical(rng);
    double v = 0.0;
    if (u <= a1) {
      const double n = normal(rng);
      const double y = s1 * std::abs(n);
      reject = y >= d1;
      if (!reject) {
        const double e = exponential(rng);
        x = std::floor(y);
        v = -e - n * n / 2 + c;
      }
    } else if (u <= a12) {
      const double n = normal(rng);
      const double y = s2 * std::abs(n);
      reject = y >= d2;
      if (!reject) {
        const double e = exponential(rng);
        x = std::floor(-y);
        v = -e - n * n / 2;
      }
    } else if (u <= a123) {
      const double e1 = exponential(rng);
      const double e2 = exponential(rng);
      const double y = d1 + 2 * s1s * e1 / d1;
      x = std::floor(y);
      v = -e2 + d1 * (1 / (td - np) - y / (2 * s1s));
      reject = false;
    } else {
      const double e1 = exponential(rng);
      const double e2 = exponential(rng);
      const double y = d2 + 2 * s2s * e1 / d2;
      x = std::floor(-y);
      v = -e2 - d2 * y / (2 * s2s);
      reject = false;
    }
    reject = reject || x < -np || x > td - np;
    if (!reject) {
      const double lfx = log_gamma(np + x + 1) + log_gamma(td - (np + x) + 1);
      reject = v > lf - lfx + x * lp1p;
    }
    reject |= x + np >= thr;
  } while (reject);

  x += np + naf;
  const auto head = static_cast<std::uint64_t>(x);
  return head + waiting(t - head, q, rng);
}

}  // namespace

std::uint64_t draw_binomial(std::uint64_t trials, double p,
                            Xoshiro256ss& rng) {
  if (trials == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return trials;
  const double p12 = p <= 0.5 ? p : 1.0 - p;
  const std::uint64_t draw =
      static_cast<double>(trials) * p12 >= 8
          ? devroye(trials, p12, rng)
          : waiting(trials, -std::log(1 - p12), rng);
  return p12 != p ? trials - draw : draw;
}

}  // namespace bfce::util
