// Two structs that both carry a `base` member. DrawPlan::base is a
// counter base seeded from a SeedMixer; SliceJob::base is an index
// offset set from a parameter whose only caller passes 0. A field write
// belongs to its owning type, so the offset write never reaches the
// splitmix_at reads of DrawPlan::base, and passing 0 as an offset is
// not a constant seed.
#include <cstddef>
#include <cstdint>
#include <vector>
#include "util/rng.hpp"

namespace fx {

struct DrawPlan {
  std::uint64_t base = 0;
  std::size_t draws = 0;
};

struct SliceJob {
  std::size_t base = 0;
  std::size_t count = 0;
};

DrawPlan hoist_draws(std::uint64_t seed, std::size_t draws) {
  DrawPlan plan;
  util::SeedMixer mix(seed);
  mix.absorb(static_cast<std::uint64_t>(draws));
  plan.base = mix.value();
  plan.draws = draws;
  return plan;
}

void fill_slice(std::size_t begin, std::size_t count, double* out) {
  SliceJob job;
  job.base = begin;
  job.count = count;
  for (std::size_t i = 0; i < job.count; ++i) {
    out[job.base + i] = 0.0;
  }
}

void render(const std::vector<DrawPlan>& plans, std::uint64_t* out) {
  for (std::size_t f = 0; f < plans.size(); ++f) {
    const DrawPlan& plan = plans[f];
    for (std::size_t r = 0; r < plan.draws; ++r) {
      out[r] ^= util::splitmix_at(plan.base, r);
    }
  }
}

void clear_all(double* out, std::size_t n) {
  fill_slice(0, n, out);
}

}  // namespace fx
