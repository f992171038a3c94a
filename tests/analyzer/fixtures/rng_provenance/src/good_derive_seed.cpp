// Seed flows from the caller's master seed through util::derive_seed:
// the canonical pattern.
#include <cstddef>
#include <cstdint>
#include "util/rng.hpp"

namespace fx {

void sample(double* out, std::size_t n, std::uint64_t master) {
  util::Xoshiro256ss rng(util::derive_seed(master, 7));
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rng.uniform();
  }
}

// A pointer to a stream constructs nothing, so its initializer is not a
// seed.
double draw_from(util::Xoshiro256ss* streams, std::size_t n, std::size_t i) {
  util::Xoshiro256ss* rng = nullptr;
  if (i < n) rng = streams + i;
  return rng != nullptr ? rng->uniform() : 0.0;
}

}  // namespace fx
