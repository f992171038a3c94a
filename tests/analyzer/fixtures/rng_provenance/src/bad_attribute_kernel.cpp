// A kernel declared with a target attribute keeps its name and
// parameters, so a bare constant passed into its splitmix_at base is
// blamed at the call site.
#include <cstddef>
#include <cstdint>
#include "util/rng.hpp"

namespace fx {

__attribute__((target("avx2"))) void scatter_avx2(std::uint64_t base,
                                                   std::uint64_t* out,
                                                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = util::splitmix_at(base, i);
  }
}

void scatter_pinned(std::uint64_t* out, std::size_t n) {
  scatter_avx2(0x9E37ULL, out, n);  // expect: rng-provenance
}

}  // namespace fx
