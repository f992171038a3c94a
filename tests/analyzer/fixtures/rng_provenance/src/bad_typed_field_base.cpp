// A bare constant written into a seeded struct's counter base is still
// blamed at the write once field writes are resolved by owning type;
// the literal written into TileSpan::base, an index offset, is not.
#include <cstddef>
#include <cstdint>
#include <vector>
#include "util/rng.hpp"

namespace fx {

struct TilePlan {
  std::uint64_t base = 0;
  std::size_t draws = 0;
};

struct TileSpan {
  std::size_t base = 0;
};

TilePlan plan_tile(std::uint64_t seed, std::size_t draws, bool pinned) {
  TilePlan tp;
  if (pinned) {
    tp.base = 0x5EEDULL;  // expect: rng-provenance
  } else {
    util::SeedMixer mix(seed);
    tp.base = mix.value();
  }
  tp.draws = draws;
  return tp;
}

void render_tiles(const std::vector<TilePlan>& plans, std::uint64_t* out) {
  TileSpan span;
  span.base = 0;
  for (const TilePlan& tp : plans) {
    for (std::size_t r = 0; r < tp.draws; ++r) {
      out[span.base + r] ^= util::splitmix_at(tp.base, r);
    }
  }
}

}  // namespace fx
