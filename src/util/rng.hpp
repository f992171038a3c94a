#pragma once
// Deterministic random-number infrastructure.
//
// Everything stochastic in this repository flows through these generators so
// that every experiment is reproducible from a single master seed, and so
// that Monte-Carlo trials can be split into independent streams that do not
// depend on thread scheduling.

#include <bit>
#include <cstdint>
#include <limits>
#include <string_view>

namespace bfce::util {

/// SplitMix64 — tiny, statistically solid 64-bit generator.
///
/// Used directly for seed derivation (its stream-splitting property is the
/// point: consecutive outputs seed independent child generators) and as the
/// recommended way to initialise Xoshiro256ss state.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value (Steele, Lea & Flood's splitmix64 finaliser).
  constexpr std::uint64_t operator()() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the workhorse generator.
///
/// Satisfies UniformRandomBitGenerator, so it plugs into <random>
/// distributions (draw_binomial consumes it through
/// std::generate_canonical and std::normal_distribution). State is
/// seeded through SplitMix64 as the authors recommend.
class Xoshiro256ss {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256ss(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm();
  }

  std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr std::uint64_t min() noexcept { return 0; }
  static constexpr std::uint64_t max() noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) noexcept {
    return lo + below(hi - lo + 1);
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4];
};

/// Value of the SplitMix64 stream seeded with `base` at zero-based
/// position `index`, computed directly instead of by generating the
/// prefix: `splitmix_at(base, i)` equals the (i+1)-th output of
/// `SplitMix64(base)`.
///
/// This is counter-addressed randomness: because the value depends only
/// on (base, index), it can be evaluated in any order, by any thread,
/// for any partition of the index range — the property the FrameEngine's
/// sharded exact walk builds its shard-count-invariance on (per-tag
/// decisions are indexed by the global tag index, never by a stream
/// position that depends on who walked first).
constexpr std::uint64_t splitmix_at(std::uint64_t base,
                                    std::uint64_t index) noexcept {
  // base + (index+1)*gamma wraps mod 2^64 by design: it is the
  // splitmix64 state after index+1 golden-gamma increments (defined
  // unsigned behaviour; clang's -fsanitize=integer unsigned-wrap
  // checker would flag this intentional site).
  std::uint64_t z = base + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Derives the seed for child stream `index` from `master`.
///
/// Child streams produced from distinct indices are statistically
/// independent; this is how per-trial / per-tag / per-frame generators are
/// created without coupling them to execution order.
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t index) noexcept;

/// Binomial(trials, p) draw — the one sanctioned way to sample a binomial
/// anywhere in src/.
///
/// A port of libstdc++-12's std::binomial_distribution: each draw returns
/// the same value and consumes `rng` exactly as
/// std::binomial_distribution<std::uint64_t>(trials, p)(rng) does, so
/// results stay bit-identical to the historical in-line uses. Devroye's
/// rejection sampler runs when trials·min(p, 1−p) ≥ 8, the waiting-time
/// method otherwise, reflected for p > 0.5. It calls lgamma_r where
/// libstdc++ calls lgamma(), whose write to glibc's process-global
/// `signgam` would race across worker threads, and touches no other
/// shared state: concurrent draws on distinct streams need no lock.
std::uint64_t draw_binomial(std::uint64_t trials, double p, Xoshiro256ss& rng);

/// Splitmix64-based sponge for deriving one seed from several typed
/// components (sweep coordinates, protocol names, ...).
///
/// Each absorb() runs the previous state XOR the component through a full
/// splitmix64 step, so every component avalanches into all 64 bits of the
/// result. This replaces ad-hoc `seed ^ uint(eps*1e4) ^ hash(name)`
/// mixing, where nearby sweep points (n, ε, δ) could collide into
/// correlated streams: doubles are absorbed by bit pattern, not by lossy
/// truncation, and strings via a byte-wise FNV-1a pre-hash.
class SeedMixer {
 public:
  explicit constexpr SeedMixer(std::uint64_t master) noexcept
      : state_(next(0x243F6A8885A308D3ULL ^ master)) {}

  constexpr SeedMixer& absorb(std::uint64_t component) noexcept {
    state_ = next(state_ ^ component);
    return *this;
  }

  /// Absorbs the full bit pattern of a double (no truncation; 0.05 and
  /// 0.050001 land in unrelated regions of the seed space).
  constexpr SeedMixer& absorb(double component) noexcept {
    return absorb(std::bit_cast<std::uint64_t>(component));
  }

  /// Absorbs a string byte-wise (FNV-1a), then mixes.
  constexpr SeedMixer& absorb(std::string_view component) noexcept {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    for (const char c : component) {
      h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ULL;
    }
    return absorb(h);
  }

  /// The derived seed for everything absorbed so far.
  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return next(state_); }

 private:
  /// One splitmix64 step: advance by the golden-gamma increment and
  /// finalise (same construction as SplitMix64::operator()).
  static constexpr std::uint64_t next(std::uint64_t x) noexcept {
    std::uint64_t z = x + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

}  // namespace bfce::util
