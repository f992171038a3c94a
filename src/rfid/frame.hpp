#pragma once
// Frame execution: one reader query followed by slotted tag replies.
//
// Every estimation protocol in this repository reduces to a handful of
// frame shapes:
//
//   * Bloom frame      — each tag picks k slots by hashing and answers in
//                        each with persistence p (BFCE).
//   * ALOHA frame      — each tag picks 1 slot and answers with
//                        persistence p (UPE, EZB, SRC, ART).
//   * Single-slot frame— each tag answers in the sole slot with
//                        probability q (ZOE).
//   * Lottery frame    — each tag picks a geometrically distributed slot
//                        (LOF, FNEB's run analysis, PET-style schemes).
//
// Each shape runs in two modes. `kExact` walks every tag and is the
// ground-truth agent-level simulation. `kSampled` draws aggregate
// participation counts from the exact Binomial/multinomial laws, which is
// statistically equivalent under ideal hashing and makes protocols that
// need thousands of frames over millions of tags tractable. Tests verify
// the equivalence (KS test over observed statistics).
//
// This header holds the frame configuration types; frames execute
// through rfid/frame_engine.hpp's FrameEngine, usually via a
// ReaderContext (run_frame / run_batch).

#include <array>
#include <cstdint>

#include "hash/persistence.hpp"

namespace bfce::rfid {

/// Agent-level (`kExact`) vs aggregate-law (`kSampled`) execution.
enum class FrameMode { kExact, kSampled };

/// Which slot-selection hash the tags use in Bloom frames.
enum class HashScheme {
  kIdeal,        ///< full-avalanche seeded hash of the tagID
  kLightweight,  ///< the paper's RN ⊕ RS bitget hash (§IV-E.2)
};

/// Maximum k supported by the fixed-size seed array (the paper uses 3).
inline constexpr std::uint32_t kMaxHashes = 8;

/// Parameters of one Bloom frame.
struct BloomFrameConfig {
  std::uint32_t w = 8192;  ///< number of bit-slots (power of 2 for kLightweight)
  std::uint32_t k = 3;     ///< hash functions per tag
  double p = 1.0;          ///< persistence probability
  /// Numerator of p = p_n/1024 for PersistenceMode::kRnBits; ignored by
  /// the other persistence modes.
  std::uint32_t p_n = 1024;
  HashScheme hash = HashScheme::kIdeal;
  hash::PersistenceMode persistence = hash::PersistenceMode::kIdealBernoulli;
  std::array<std::uint64_t, kMaxHashes> seeds{};

  /// Sets p (and the matching p_n) from a numerator over 1024.
  void set_p_numerator(std::uint32_t numerator) noexcept {
    p_n = numerator;
    p = static_cast<double>(numerator) / 1024.0;
  }
};

}  // namespace bfce::rfid
