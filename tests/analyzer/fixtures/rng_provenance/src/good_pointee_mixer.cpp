// A counter base read from a SeedMixer held behind a smart pointer: the
// pointee type, not std::unique_ptr, carries the provenance.
#include <cstdint>
#include <memory>
#include "util/rng.hpp"

namespace fx {

class Stream {
 public:
  explicit Stream(std::uint64_t seed)
      : mix_(std::make_unique<util::SeedMixer>(seed)) {}

  std::uint64_t at(std::uint64_t i) const {
    return util::splitmix_at(mix_->value(), i);
  }

 private:
  std::unique_ptr<util::SeedMixer> mix_;
};

}  // namespace fx
