// A kernel declared with a target attribute whose splitmix_at base
// parameter is fed a SeedMixer-derived value at its only call site.
#include <cstddef>
#include <cstdint>
#include "util/rng.hpp"

namespace fx {

__attribute__((target("avx2"))) void decide_avx2(std::uint64_t base,
                                                  std::uint64_t* out,
                                                  std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = util::splitmix_at(base, i) >> 11;
  }
}

void decide(std::uint64_t seed, std::uint64_t* out, std::size_t n) {
  util::SeedMixer mix(seed);
  mix.absorb(static_cast<std::uint64_t>(n));
  decide_avx2(mix.value(), out, n);
}

}  // namespace fx
