// Tests for the deterministic RNG substrate.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <string_view>
#include <vector>

#include "math/hypothesis.hpp"

namespace bfce::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(SplitMix64, DiffersAcrossSeeds) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SplitMix64, KnownFirstOutput) {
  // Reference value of splitmix64(seed=0) from the published algorithm.
  SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xE220A8397B1DCDAFULL);
}

TEST(Xoshiro256ss, IsDeterministic) {
  Xoshiro256ss a(7);
  Xoshiro256ss b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256ss, UniformIsInUnitInterval) {
  Xoshiro256ss rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro256ss, BelowRespectsBound) {
  Xoshiro256ss rng(11);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 8192ULL}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Xoshiro256ss, BelowZeroBoundReturnsZero) {
  Xoshiro256ss rng(11);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Xoshiro256ss, BelowIsUniformChiSquare) {
  Xoshiro256ss rng(13);
  constexpr std::size_t kBins = 64;
  constexpr std::size_t kDraws = 64000;
  std::vector<std::size_t> counts(kBins, 0);
  for (std::size_t i = 0; i < kDraws; ++i) ++counts[rng.below(kBins)];
  const double stat = math::chi_square_uniform(counts);
  EXPECT_GT(math::chi_square_pvalue(stat, kBins - 1), 0.001);
}

TEST(Xoshiro256ss, BetweenIsInclusive) {
  Xoshiro256ss rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.between(10, 13));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 10u);
  EXPECT_EQ(*seen.rbegin(), 13u);
}

TEST(Xoshiro256ss, BernoulliEdgeProbabilities) {
  Xoshiro256ss rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro256ss, BernoulliRateMatches) {
  Xoshiro256ss rng(17);
  const double p = 0.3;
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(p)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, p, 0.01);
}

TEST(DeriveSeed, IsDeterministicAndIndexSensitive) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
}

TEST(SeedMixer, IsDeterministicAndOrderSensitive) {
  const auto mix = [](std::uint64_t a, std::uint64_t b) {
    return SeedMixer(1).absorb(a).absorb(b).value();
  };
  EXPECT_EQ(mix(3, 4), mix(3, 4));
  EXPECT_NE(mix(3, 4), mix(4, 3));  // a sponge, not an XOR bag
  EXPECT_NE(SeedMixer(1).value(), SeedMixer(2).value());
}

TEST(SeedMixer, SweepGridHasNoCollisions) {
  // The exact (n, eps, delta, protocol) grid of the Fig 9/10 comparison
  // sweeps — every point must get a distinct stream.
  const std::vector<std::uint64_t> ns = {50000, 100000, 200000, 500000,
                                         1000000};
  const std::vector<double> epss = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  const std::vector<double> deltas = {0.05, 0.10, 0.15, 0.20, 0.25, 0.30};
  const std::vector<std::string_view> protos = {"BFCE", "ZOE", "SRC"};
  std::set<std::uint64_t> seeds;
  std::size_t points = 0;
  for (const std::uint64_t n : ns) {
    for (const double eps : epss) {
      for (const double delta : deltas) {
        for (const std::string_view proto : protos) {
          seeds.insert(SeedMixer(12345)
                           .absorb(n)
                           .absorb(eps)
                           .absorb(delta)
                           .absorb(proto)
                           .value());
          ++points;
        }
      }
    }
  }
  EXPECT_EQ(seeds.size(), points);
}

TEST(SeedMixer, DoublesAbsorbedByBitPatternNotTruncation) {
  // The old `uint(eps * 1e4)` mixing collapsed nearby doubles; the mixer
  // must separate values that differ in the last mantissa bit.
  const double eps = 0.05;
  const double eps_next = std::nextafter(eps, 1.0);
  EXPECT_NE(SeedMixer(7).absorb(eps).value(),
            SeedMixer(7).absorb(eps_next).value());
}

TEST(SeedMixer, StringsHashByContent) {
  EXPECT_NE(SeedMixer(7).absorb(std::string_view("ZOE")).value(),
            SeedMixer(7).absorb(std::string_view("SRC")).value());
  EXPECT_EQ(SeedMixer(7).absorb(std::string_view("BFCE")).value(),
            SeedMixer(7).absorb(std::string_view("BFCE")).value());
  // "" still advances the sponge: absorbing nothing != absorbing "".
  EXPECT_NE(SeedMixer(7).absorb(std::string_view("")).value(),
            SeedMixer(7).value());
}

// draw_binomial backs the sampled-mode batched sampler, where a frame
// over n = 10^6 tags with k = 4 hashes draws Binomial(4e6, p); the
// planner can also push trials toward 2^40 for fleet-scale sweeps. The
// extremes must stay exact (degenerate p), sane (within the CLT
// envelope) and fast (no per-trial loop for large np).
TEST(DrawBinomial, DegenerateProbabilitiesAreExact) {
  Xoshiro256ss rng(3);
  const std::uint64_t huge = 1ULL << 40;
  EXPECT_EQ(draw_binomial(huge, 0.0, rng), 0u);
  EXPECT_EQ(draw_binomial(huge, -0.5, rng), 0u);
  EXPECT_EQ(draw_binomial(huge, 1.0, rng), huge);
  EXPECT_EQ(draw_binomial(huge, 1.5, rng), huge);
  EXPECT_EQ(draw_binomial(0, 0.5, rng), 0u);
}

TEST(DrawBinomial, HugeTrialCountStaysInTheCltEnvelope) {
  Xoshiro256ss rng(5);
  const std::uint64_t trials = 1ULL << 40;
  // p = 1/2: mean 2^39, sd 2^19 — allow 6 sigma.
  const double mean = 0.5 * static_cast<double>(trials);
  const double sd = std::sqrt(0.25 * static_cast<double>(trials));
  for (int i = 0; i < 8; ++i) {
    const double x = static_cast<double>(draw_binomial(trials, 0.5, rng));
    EXPECT_NEAR(x, mean, 6.0 * sd);
  }
}

TEST(DrawBinomial, ExtremeTailProbabilitiesBehave) {
  Xoshiro256ss rng(7);
  const std::uint64_t trials = 1ULL << 40;
  // p = 2^-40: mean 1 — tiny counts, never anywhere near trials.
  for (int i = 0; i < 16; ++i) {
    EXPECT_LT(draw_binomial(trials, std::ldexp(1.0, -40), rng), 64u);
  }
  // p = 1 − 2^-40: mean trials − 1 — hugs the ceiling from below.
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t x =
        draw_binomial(trials, 1.0 - std::ldexp(1.0, -40), rng);
    EXPECT_LE(x, trials);
    EXPECT_GT(x, trials - 64u);
  }
}

TEST(DrawBinomial, PersistenceGridProbabilitiesAreDeterministic) {
  // Bloom persistence lives on the 1/65536 grid (BloomFrameConfig's
  // p_numerator); every grid point must reproduce bit-identically from
  // the same stream — draw_binomial keeps no state of its own, so the
  // result is a pure function of (trials, p, rng state).
  for (const std::uint32_t p_n : {1u, 3u, 256u, 32768u, 65535u}) {
    const double p = static_cast<double>(p_n) / 65536.0;
    Xoshiro256ss a(11);
    Xoshiro256ss b(11);
    for (int i = 0; i < 4; ++i) {
      const std::uint64_t trials = 1ULL << (10 + 10 * i);  // 2^10 … 2^40
      EXPECT_EQ(draw_binomial(trials, p, a), draw_binomial(trials, p, b))
          << "p_n " << p_n << " trials 2^" << (10 + 10 * i);
    }
  }
}

TEST(DrawBinomial, MatchesLibstdcxxBitForBit) {
  // draw_binomial is a port of libstdc++'s binomial_distribution; this
  // grid pins it to the library draw for draw: the same value and the
  // same stream position afterwards. The (t, p) grid spans both of the
  // library's paths and crosses the switch between them:
  // t·min(p, 1−p) = 7.9984 (t = 16, p = 0.4999 and 0.5001), exactly 8
  // (t = 16, p = 0.5) and ≈ 10 (t = 100, p = 0.1, and p = 0.9 reflected).
  const std::uint64_t trials[] = {1,      7,      8,       9,       16,
                                  100,    4096,   24576,   50000,   200000,
                                  1000000, 3000000, 1ULL << 40};
  const double probs[] = {1e-9, 1e-6, 1.59e-6, 1e-4,   1e-3, 0.01,
                          0.1,  0.4999, 0.5,   0.5001, 0.9,  0.999999};
  constexpr std::uint64_t kSeeds = 100;
  int below = 0, at = 0, above = 0;
  for (const std::uint64_t t : trials) {
    for (const double p : probs) {
      const double np12 = static_cast<double>(t) * std::min(p, 1.0 - p);
      (np12 < 8 ? below : np12 == 8 ? at : above) += 1;
      for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const std::uint64_t key = SeedMixer(seed).absorb(t).absorb(p).value();
        Xoshiro256ss ours(key);
        Xoshiro256ss ref(key);
        const std::uint64_t got = draw_binomial(t, p, ours);
        std::binomial_distribution<std::uint64_t> dist(t, p);
        const std::uint64_t want = dist(ref);
        ASSERT_EQ(got, want) << "t " << t << " p " << p << " seed " << seed;
        ASSERT_EQ(ours(), ref()) << "stream position after t " << t << " p "
                                 << p << " seed " << seed;
      }
    }
  }
  EXPECT_GT(below, 0);
  EXPECT_GT(at, 0);
  EXPECT_GT(above, 0);
}

TEST(DeriveSeed, AdjacentStreamsAreDecorrelated) {
  // Generators seeded from adjacent indices should not produce equal
  // leading outputs.
  Xoshiro256ss a(derive_seed(99, 0));
  Xoshiro256ss b(derive_seed(99, 1));
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

}  // namespace
}  // namespace bfce::util
