#include "rfid/frame_engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>

#include "hash/persistence.hpp"
#include "hash/slot_hash.hpp"
#include "rfid/frame_engine_simd.hpp"
#include "util/parallel.hpp"

namespace bfce::rfid {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Binomial draws go through util::draw_binomial: lock-free, and
// bit-identical to the historical in-line std::binomial_distribution.
using util::draw_binomial;
using detail::kNoPack16;
using detail::packed16_threshold;

/// The slot choices of one Bloom frame, premixed once per frame.
struct HoistedBloomHashes {
  HoistedBloomHashes() = default;

  bool lightweight = false;
  std::array<hash::IdealSlotHash, kMaxHashes> ideal{
      hash::IdealSlotHash(0), hash::IdealSlotHash(0), hash::IdealSlotHash(0),
      hash::IdealSlotHash(0), hash::IdealSlotHash(0), hash::IdealSlotHash(0),
      hash::IdealSlotHash(0), hash::IdealSlotHash(0)};
  std::array<std::uint32_t, kMaxHashes> lw{};

  explicit HoistedBloomHashes(const BloomFrameConfig& cfg) {
    lightweight = cfg.hash == HashScheme::kLightweight;
    for (std::uint32_t j = 0; j < cfg.k; ++j) {
      if (lightweight) {
        lw[j] = static_cast<std::uint32_t>(cfg.seeds[j]);
      } else {
        ideal[j] = hash::IdealSlotHash(cfg.seeds[j]);
      }
    }
  }

  std::uint32_t slot(const Tag& tag, std::uint32_t j,
                     std::uint32_t w) const noexcept {
    return lightweight ? hash::LightweightSlotHash(lw[j]).slot(tag.rn, w)
                       : ideal[j].slot(tag.id, w);
  }
};

// ---- exact mode: the plan/render/reduce walk ---------------------------
//
// Every exact-mode frame shape is hoisted into one FramePlan: the slot
// geometry plus a per-tag decision rule. The render stage walks the
// population once per shard, writing shard-private word-packed planes
// (no atomics, no false sharing); the reduce stage merges the planes
// and observes through the channel on the caller's stream in request
// order. Stochastic decisions are counter-addressed by the global tag
// index, so the output is a pure function of the hoisted plan — i.e.
// bit-identical for any shard count.

/// Bitmap words for a w-slot frame, padded to a 64-byte multiple so
/// adjacent shard slices never share a cache line (the parallel walk
/// stays false-sharing-free without atomics).
std::size_t padded_words(std::uint32_t w) noexcept {
  return ((static_cast<std::size_t>(w) + 63) / 64 + 7) & ~std::size_t{7};
}

/// One frame hoisted for the walk: geometry + decision rule.
/// Planes per shape — Bloom/lottery: one busy bitmap at word_offset;
/// ALOHA: an occupancy pair (plane one = "≥ 1 responder", plane two =
/// "≥ 2 responders") at word_offset/word_offset2, enough to reproduce
/// the channel's idle/single/collision categories exactly; single-slot:
/// no plane at all, the per-shard responder tally carries the state.
struct FramePlan {
  FrameShape shape = FrameShape::kBloom;
  HoistedBloomHashes hashes;            ///< Bloom slot choices
  std::size_t word_offset = 0;          ///< plane one, into a shard slice
  std::size_t word_offset2 = 0;         ///< plane two (ALOHA only)
  std::uint64_t base = 0;               ///< counter base (stochastic only)
  double p = 1.0;
  bool stochastic = false;              ///< counter-addressed decisions?
  std::uint32_t k = 0;
  std::uint32_t w = 0;                  ///< slot count (w / f / 1)
  std::uint32_t p_n = 0;
  std::uint32_t threshold16 = 0;
  std::uint32_t lane_mask = 0;          ///< nonzero ⇔ packed kernel applies
  std::array<std::uint32_t, kMaxHashes> seeds32{};
  hash::PersistenceMode persistence = hash::PersistenceMode::kRnBits;
  hash::GeometricSlotHash geo_hash{0};  ///< lottery slot choice
  std::uint64_t premixed = 0;           ///< ALOHA slot / single-slot hash seed
  std::uint64_t threshold64 = 0;        ///< single-slot participation bar
};

/// Plane words this plan needs per shard slice.
std::size_t plan_words(const FramePlan& fr) noexcept {
  switch (fr.shape) {
    case FrameShape::kAloha:
      return 2 * padded_words(fr.w);
    case FrameShape::kSingleSlot:
      return 0;
    default:
      return padded_words(fr.w);
  }
}

FramePlan hoist_plan(const FrameRequest& request, std::size_t word_offset,
                     util::Xoshiro256ss& rng) {
  FramePlan fr;
  fr.shape = request.shape();
  fr.word_offset = word_offset;
  switch (fr.shape) {
    case FrameShape::kBloom: {
      const auto& cfg = std::get<BloomFrameConfig>(request.config);
      assert(cfg.k >= 1 && cfg.k <= kMaxHashes);
      assert(cfg.hash != HashScheme::kLightweight ||
             (cfg.w & (cfg.w - 1)) == 0);
      fr.hashes = HoistedBloomHashes(cfg);
      fr.p = cfg.p;
      fr.k = cfg.k;
      fr.w = cfg.w;
      fr.p_n = cfg.p_n;
      fr.threshold16 = packed16_threshold(cfg.p);
      fr.persistence = cfg.persistence;
      for (std::uint32_t j = 0; j < cfg.k; ++j) {
        fr.seeds32[j] = static_cast<std::uint32_t>(cfg.seeds[j]);
      }
      if (cfg.persistence == hash::PersistenceMode::kIdealBernoulli ||
          cfg.persistence == hash::PersistenceMode::kSharedDraw) {
        // One draw of the caller's stream, mixed with the frame's
        // broadcast parameters: the walk itself is then RNG-free (which
        // is what makes it shard-count invariant), repeated identical
        // configs still get independent decision streams, and everything
        // remains a pure function of the context seed.
        fr.stochastic = true;
        util::SeedMixer mix(rng());
        mix.absorb(static_cast<std::uint64_t>(cfg.w));
        mix.absorb(static_cast<std::uint64_t>(cfg.k));
        for (std::uint32_t j = 0; j < cfg.k; ++j) mix.absorb(cfg.seeds[j]);
        fr.base = mix.value();
        if (fr.threshold16 != kNoPack16) {
          if (cfg.persistence == hash::PersistenceMode::kSharedDraw) {
            fr.lane_mask = detail::lane_mask_for(1);  // one decision per tag
          } else if (cfg.k <= 4) {
            fr.lane_mask = detail::lane_mask_for(cfg.k);
          }
        }
      }
      break;
    }
    case FrameShape::kAloha: {
      const auto& cfg = std::get<AlohaFrameConfig>(request.config);
      fr.w = cfg.f;
      fr.p = cfg.p;
      // The tile kernel re-derives IdealSlotHash's multiply-shift from
      // the premixed seed (it needs the raw 64-bit hash for its vector
      // reduction), so hoist the premix rather than the hasher object.
      fr.premixed = hash::premix_seed(cfg.seed);
      fr.word_offset2 = word_offset + padded_words(cfg.f);
      if (cfg.p < 1.0) {
        // Same one-draw discipline as stochastic Bloom persistence: the
        // per-tag participation draws come from a counter-addressed
        // stream, not the caller's generator.
        fr.stochastic = true;
        util::SeedMixer mix(rng());
        mix.absorb(static_cast<std::uint64_t>(cfg.f));
        mix.absorb(cfg.p);
        mix.absorb(cfg.seed);
        fr.base = mix.value();
      }
      break;
    }
    case FrameShape::kSingleSlot: {
      const auto& cfg = std::get<SingleSlotConfig>(request.config);
      fr.w = 1;
      fr.threshold64 =
          cfg.q >= 1.0 ? ~0ULL
                       : static_cast<std::uint64_t>(
                             cfg.q * 18446744073709551616.0 /* 2^64 */);
      fr.premixed = hash::premix_seed(cfg.seed);
      break;
    }
    case FrameShape::kLottery: {
      const auto& cfg = std::get<LotteryFrameConfig>(request.config);
      fr.w = cfg.f;
      fr.geo_hash = hash::GeometricSlotHash(cfg.seed);
      break;
    }
  }
  return fr;
}

/// Merged shard bitmap → busy map through the channel. The merged
/// bitmap IS the busy map under a perfect channel (it senses exactly
/// what was transmitted and draws nothing). An imperfect channel is
/// replayed slot-major on the caller's stream — the draw order of an
/// observation of per-slot counts; observe() branches only on busy-vs-idle
/// (single and collision behave identically), so presenting the bitmap
/// as 0/2 repliers is draw-for-draw equivalent to the counts.
util::BitVector bitmap_to_busy(const Channel& channel,
                               const std::uint64_t* words, std::size_t w,
                               util::Xoshiro256ss& rng) {
  util::BitVector busy(w);
  if (channel.model().perfect()) {
    for (std::size_t wi = 0; wi < busy.word_count(); ++wi) {
      busy.set_word(wi, words[wi]);
    }
    return busy;
  }
  for (std::size_t wi = 0; wi < busy.word_count(); ++wi) {
    const std::size_t begin = wi << 6;
    const std::size_t end = std::min(w, begin + 64);
    const std::uint64_t in = words[wi];
    std::uint64_t packed = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t repliers =
          ((in >> (i - begin)) & 1ULL) != 0 ? 2U : 0U;
      if (is_busy(channel.observe(repliers, rng))) {
        packed |= 1ULL << (i - begin);
      }
    }
    busy.set_word(wi, packed);
  }
  return busy;
}

/// The population walk — the render + reduce stages over hoisted
/// FramePlans of any shape mix: shard s owns the contiguous tag range
/// [s·chunk, (s+1)·chunk) and renders every frame's decisions for its
/// tags into private word-packed planes; shards then merge with
/// word-wide ORs (plus the cross-shard ≥2 term for ALOHA and responder
/// sums for single-slot). Every decision is a pure function of (frame
/// base, global tag index), so the output is bit-identical for any
/// shard count and any ISA. Writes the per-frame results to out[0..m)
/// in request order (channel observation consumes the caller's stream
/// frame-major).
void run_exact_frames(const TagPopulation& tags, const Channel& channel,
                      const FrameRequest* reqs, std::size_t m,
                      FrameResult* out, std::uint32_t shard_count,
                      bool allow_simd, util::Xoshiro256ss& rng,
                      std::vector<std::uint64_t>& shard_bits,
                      std::vector<std::uint64_t>& shard_tx,
                      std::vector<std::uint16_t>& lane_scratch) {
  std::vector<FramePlan> frames;
  frames.reserve(m);
  std::size_t words_stride = 0;
  for (std::size_t f = 0; f < m; ++f) {
    frames.push_back(hoist_plan(reqs[f], words_stride, rng));
    words_stride += plan_words(frames.back());
  }

  const auto& all_tags = tags.tags();
  const std::size_t n_tags = all_tags.size();
  if (shard_count < 1) shard_count = 1;
  const std::size_t chunk = (n_tags + shard_count - 1) / shard_count;

  // Plane storage is sized but NOT zeroed here: each shard zero-fills
  // its own slice inside the parallel region, so the first touch of a
  // cold page — and with it its NUMA placement — lands on the worker
  // that owns the shard's tag range. The executor hands shard s to the
  // same initial lane on every dispatch, so warm re-dispatches keep the
  // affinity.
  const std::size_t total_words =
      static_cast<std::size_t>(shard_count) * words_stride;
  if (shard_bits.size() < total_words) shard_bits.resize(total_words);
  shard_tx.assign(static_cast<std::size_t>(shard_count) * m, 0);
  lane_scratch.resize(static_cast<std::size_t>(shard_count) *
                      detail::kShardLaneCapacity);

  util::parallel_for(
      0, shard_count,
      [&](std::size_t s) {
        const std::size_t s_begin = s * chunk;
        const std::size_t s_end = std::min(n_tags, s_begin + chunk);
        std::uint64_t* const bits = shard_bits.data() + s * words_stride;
        std::fill(bits, bits + words_stride, std::uint64_t{0});
        std::uint16_t* const lane =
            lane_scratch.data() + s * detail::kShardLaneCapacity;
        std::vector<std::uint64_t> tx(m, 0);
        for (std::size_t t0 = s_begin; t0 < s_end;
             t0 += detail::kShardTile) {
          const std::size_t t1 = std::min(s_end, t0 + detail::kShardTile);
          for (std::size_t f = 0; f < m; ++f) {
            const FramePlan& fr = frames[f];
            std::uint64_t* const fb = bits + fr.word_offset;
            const std::uint32_t k = fr.k;
            const std::uint32_t w = fr.w;
            if (fr.shape == FrameShape::kAloha) {
              // Occupancy pair: the second-or-later responder of a slot
              // raises its ≥2 bit. Participation (p < 1) is decided by
              // the counter-addressed stream, one decision per global
              // tag index; the two-plane tile kernel (AVX-512 or its
              // bit-identical scalar span) does the rendering.
              tx[f] += detail::aloha_render_tile(
                  all_tags.data(), t0, t1, fr.premixed, w, fr.stochastic,
                  fr.base, fr.p, allow_simd, fb, bits + fr.word_offset2);
            } else if (fr.shape == FrameShape::kSingleSlot) {
              // No plane: the shard's responder tally IS the state.
              const std::uint64_t bar = fr.threshold64;
              const std::uint64_t premixed = fr.premixed;
              std::uint64_t responders = 0;
              for (std::size_t t = t0; t < t1; ++t) {
                if (hash::fmix64(all_tags[t].id ^ premixed) < bar) {
                  ++responders;
                }
              }
              tx[f] += responders;
            } else if (fr.shape == FrameShape::kLottery) {
              for (std::size_t t = t0; t < t1; ++t) {
                const std::uint32_t slot =
                    fr.geo_hash.slot(all_tags[t].id, w);
                fb[slot >> 6] |= 1ULL << (slot & 63U);
              }
              tx[f] += t1 - t0;  // every tag transmits in a lottery frame
            } else if (fr.lane_mask != 0) {
              // Packed kernel: dense responder lane ids, one
              // well-predicted drain loop.
              const std::size_t nresp = detail::bloom_decide_tile(
                  fr.base, t0, t1, fr.threshold16, fr.lane_mask, allow_simd,
                  lane);
              if (fr.persistence == hash::PersistenceMode::kSharedDraw) {
                for (std::size_t i = 0; i < nresp; ++i) {
                  const Tag& tag = all_tags[t0 + (lane[i] >> 2)];
                  for (std::uint32_t j = 0; j < k; ++j) {
                    const std::uint32_t slot = fr.hashes.slot(tag, j, w);
                    fb[slot >> 6] |= 1ULL << (slot & 63U);
                  }
                }
                tx[f] += nresp * k;
              } else {
                for (std::size_t i = 0; i < nresp; ++i) {
                  const std::uint32_t id = lane[i];
                  const Tag& tag = all_tags[t0 + (id >> 2)];
                  const std::uint32_t slot =
                      fr.hashes.slot(tag, id & 3U, w);
                  fb[slot >> 6] |= 1ULL << (slot & 63U);
                }
                tx[f] += nresp;
              }
            } else {
              switch (fr.persistence) {
                case hash::PersistenceMode::kIdealBernoulli:
                  // Off the 1/65536 grid (or k > 4): one
                  // counter-addressed unit double per (tag, hash).
                  for (std::size_t t = t0; t < t1; ++t) {
                    const Tag& tag = all_tags[t];
                    for (std::uint32_t j = 0; j < k; ++j) {
                      const std::uint64_t z = util::splitmix_at(
                          fr.base,
                          t * static_cast<std::uint64_t>(k) + j);
                      if (static_cast<double>(z >> 11) * 0x1.0p-53 <
                          fr.p) {
                        const std::uint32_t slot =
                            fr.hashes.slot(tag, j, w);
                        fb[slot >> 6] |= 1ULL << (slot & 63U);
                        ++tx[f];
                      }
                    }
                  }
                  break;
                case hash::PersistenceMode::kSharedDraw:
                  for (std::size_t t = t0; t < t1; ++t) {
                    const std::uint64_t z = util::splitmix_at(fr.base, t);
                    if (static_cast<double>(z >> 11) * 0x1.0p-53 < fr.p) {
                      const Tag& tag = all_tags[t];
                      for (std::uint32_t j = 0; j < k; ++j) {
                        const std::uint32_t slot =
                            fr.hashes.slot(tag, j, w);
                        fb[slot >> 6] |= 1ULL << (slot & 63U);
                      }
                      tx[f] += k;
                    }
                  }
                  break;
                case hash::PersistenceMode::kRnBits:
                  // Deterministic tag-side decisions: no RNG at all,
                  // so these frames keep the pre-engine executor's bits.
                  for (std::size_t t = t0; t < t1; ++t) {
                    const Tag& tag = all_tags[t];
                    for (std::uint32_t j = 0; j < k; ++j) {
                      const std::uint32_t slot = fr.hashes.slot(tag, j, w);
                      if (hash::rn_bits_respond(tag.rn, slot,
                                                fr.seeds32[j], fr.p_n)) {
                        fb[slot >> 6] |= 1ULL << (slot & 63U);
                        ++tx[f];
                      }
                    }
                  }
                  break;
                default:
                  break;
              }
            }
          }
        }
        for (std::size_t f = 0; f < m; ++f) shard_tx[s * m + f] = tx[f];
      },
      shard_count);

  // Reduce: merge shard planes into shard 0's slice, then observe each
  // frame through the channel in request order.
  for (std::size_t f = 0; f < m; ++f) {
    const FramePlan& fr = frames[f];
    const std::size_t words = (static_cast<std::size_t>(fr.w) + 63) / 64;
    std::uint64_t tx = 0;
    for (std::uint32_t s = 0; s < shard_count; ++s) {
      tx += shard_tx[s * m + f];
    }
    FrameResult& res = out[f];
    res.shape = fr.shape;
    res.tx = tx;
    switch (fr.shape) {
      case FrameShape::kSingleSlot: {
        // The summed responder tally is the whole frame state.
        res.single = channel.observe(
            static_cast<std::uint32_t>(
                tx > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : tx),
            rng);
        break;
      }
      case FrameShape::kAloha: {
        std::uint64_t* const one = shard_bits.data() + fr.word_offset;
        std::uint64_t* const two = shard_bits.data() + fr.word_offset2;
        for (std::uint32_t s = 1; s < shard_count; ++s) {
          const std::uint64_t* const one_s =
              shard_bits.data() + s * words_stride + fr.word_offset;
          const std::uint64_t* const two_s =
              shard_bits.data() + s * words_stride + fr.word_offset2;
          for (std::size_t i = 0; i < words; ++i) {
            // A slot collides if any shard saw ≥ 2 responders, or two
            // different shards each saw ≥ 1.
            const std::uint64_t os = one_s[i];
            two[i] |= two_s[i] | (one[i] & os);
            one[i] |= os;
          }
        }
        // Slot-major observation with the exact occupancy category
        // (0 / 1 / ≥2) — draw-for-draw identical to observing the true
        // per-slot counts.
        res.states.resize(fr.w);
        for (std::uint32_t i = 0; i < fr.w; ++i) {
          const std::uint32_t category =
              ((two[i >> 6] >> (i & 63U)) & 1ULL) != 0
                  ? 2U
                  : static_cast<std::uint32_t>(
                        (one[i >> 6] >> (i & 63U)) & 1ULL);
          res.states[i] = channel.observe(category, rng);
        }
        break;
      }
      default: {  // Bloom and lottery share the one-bitmap reduce.
        std::uint64_t* const merged = shard_bits.data() + fr.word_offset;
        for (std::uint32_t s = 1; s < shard_count; ++s) {
          const std::uint64_t* const src =
              shard_bits.data() + s * words_stride + fr.word_offset;
          for (std::size_t i = 0; i < words; ++i) merged[i] |= src[i];
        }
        res.busy = bitmap_to_busy(channel, merged, fr.w, rng);
        break;
      }
    }
  }
}

/// Slot counts → busy map through the channel, word at a time: 64 slot
/// observations accumulate in a register, one store per word. The
/// observation order (and with it the channel's RNG stream) is
/// slot-major.
util::BitVector counts_to_busy(const Channel& channel,
                               const std::uint32_t* counts, std::size_t w,
                               util::Xoshiro256ss& rng) {
  util::BitVector busy(w);
  const bool perfect = channel.model().perfect();
  for (std::size_t wi = 0; wi < busy.word_count(); ++wi) {
    const std::size_t begin = wi << 6;
    const std::size_t end = std::min(w, begin + 64);
    std::uint64_t packed = 0;
    if (perfect) {
      // Perfect channel: busy ⇔ any replier, no RNG — branchless.
      for (std::size_t i = begin; i < end; ++i) {
        packed |= static_cast<std::uint64_t>(counts[i] != 0) << (i - begin);
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        if (is_busy(channel.observe(counts[i], rng))) {
          packed |= 1ULL << (i - begin);
        }
      }
    }
    busy.set_word(wi, packed);
  }
  return busy;
}

std::uint64_t slots_of(const FrameRequest& request) noexcept {
  switch (request.shape()) {
    case FrameShape::kBloom:
      return std::get<BloomFrameConfig>(request.config).w;
    case FrameShape::kAloha:
      return std::get<AlohaFrameConfig>(request.config).f;
    case FrameShape::kSingleSlot:
      return 1;
    case FrameShape::kLottery:
      return std::get<LotteryFrameConfig>(request.config).f;
  }
  return 0;
}

}  // namespace

const char* to_cstring(FrameShape shape) noexcept {
  switch (shape) {
    case FrameShape::kBloom:
      return "bloom";
    case FrameShape::kAloha:
      return "aloha";
    case FrameShape::kSingleSlot:
      return "single";
    case FrameShape::kLottery:
      return "lottery";
  }
  return "?";
}

FrameResult FrameEngine::execute(const FrameRequest& request,
                                 util::Xoshiro256ss& rng) {
  FrameResult out;
  run(&request, 1, &out, rng);
  return out;
}

std::vector<FrameResult> FrameEngine::execute_batch(
    const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng) {
  ++counters_.batches;
  std::vector<FrameResult> results(requests.size());
  if (!requests.empty()) {
    run(requests.data(), requests.size(), results.data(), rng);
  }
  return results;
}

void FrameEngine::run(const FrameRequest* requests, std::size_t m,
                      FrameResult* out, util::Xoshiro256ss& rng) {
  const auto start = Clock::now();
  if (mode_ == FrameMode::kExact) {
    execute_exact(requests, m, out, rng);
  } else {
    execute_sampled(requests, m, out, rng);
  }
  for (std::size_t f = 0; f < m; ++f) {
    ShapeCounters& c = counters_.of(out[f].shape);
    c.frames += 1;
    c.slots += slots_of(requests[f]);
    c.tag_tx += out[f].tx;
  }
  // One fused pass: there is no per-shape split to measure, so the wall
  // time is charged to the first request's shape.
  counters_.of(requests[0].shape()).wall_us += elapsed_us(start);
}

std::uint32_t FrameEngine::effective_shards(std::size_t work) const noexcept {
  std::uint32_t count =
      policy_.shards != 0 ? policy_.shards : util::default_thread_count();
  if (count < 1) count = 1;
  const std::size_t per_shard =
      policy_.min_tags_per_shard > 0 ? policy_.min_tags_per_shard : 1;
  const std::size_t justified = work / per_shard;
  if (justified < count) {
    count = static_cast<std::uint32_t>(justified < 1 ? 1 : justified);
  }
  return count;
}

void FrameEngine::execute_exact(const FrameRequest* requests, std::size_t m,
                                FrameResult* out, util::Xoshiro256ss& rng) {
  assert(tags_ != nullptr);
  const std::uint32_t shard_count = effective_shards(n_);
  if (shard_count > 1) ++counters_.sharded_walks;
  run_exact_frames(*tags_, channel_, requests, m, out, shard_count,
                   policy_.allow_simd, rng, shard_bits_, shard_tx_,
                   lane_scratch_);
}

// ---- sampled mode: the batched sampler ---------------------------------

// A sampled frame's plan: Bloom and ALOHA scatter `draws` uniform
// responses into word-packed shard planes (a busy bitmap for Bloom —
// the channel branches only on busy-vs-idle, so "≥ 1 response" is
// draw-for-draw equivalent to the counts — and the ≥1/≥2 occupancy pair
// for ALOHA, whose idle/single/collision categories the channel
// observes exactly); single-slot needs only its responder count;
// lottery's dependent multinomial is drawn straight into the merged
// counts in phase 1 (its draws must stay on the caller's stream in
// request order — they cannot be counter-addressed without changing the
// law).
void FrameEngine::execute_sampled(const FrameRequest* requests,
                                  std::size_t m, FrameResult* out,
                                  util::Xoshiro256ss& rng) {
  ++counters_.sampled_batches;

  // Layout pass (no RNG): merged slot counts for the lottery frames,
  // cache-line-padded word-packed planes for the scatter shapes (same
  // padding rationale as padded_words — adjacent shard slices never
  // share a cache line).
  std::vector<SampledPlan>& plans = sampled_plans_;
  plans.assign(m, SampledPlan{});
  std::size_t total_slots = 0;
  std::size_t words_stride = 0;
  for (std::size_t f = 0; f < m; ++f) {
    SampledPlan& pl = plans[f];
    pl.shape = requests[f].shape();
    switch (pl.shape) {
      case FrameShape::kBloom:
        pl.w = std::get<BloomFrameConfig>(requests[f].config).w;
        pl.word_offset = words_stride;
        words_stride += padded_words(pl.w);
        break;
      case FrameShape::kAloha:
        pl.w = std::get<AlohaFrameConfig>(requests[f].config).f;
        pl.word_offset = words_stride;
        pl.word_offset2 = words_stride + padded_words(pl.w);
        words_stride += 2 * padded_words(pl.w);
        break;
      case FrameShape::kSingleSlot:
        pl.w = 1;
        break;
      case FrameShape::kLottery:
        pl.w = std::get<LotteryFrameConfig>(requests[f].config).f;
        pl.offset = total_slots;
        total_slots += pl.w;
        break;
    }
  }
  batch_counts_.assign(total_slots, 0);

  // Phase 1 — plan: every binomial on the caller's stream, in request
  // order (util::draw_binomial shares no state, so concurrent workers
  // each drawing on their own stream need no lock). Scatter shapes also
  // derive their counter base from exactly one caller draw, so the
  // stream position after the batch depends only on the request list.
  std::uint64_t total_draws = 0;
  for (std::size_t f = 0; f < m; ++f) {
    SampledPlan& pl = plans[f];
    switch (pl.shape) {
      case FrameShape::kBloom: {
        const auto& cfg = std::get<BloomFrameConfig>(requests[f].config);
        assert(cfg.k >= 1 && cfg.k <= kMaxHashes);
        pl.draws = draw_binomial(
            static_cast<std::uint64_t>(n_) * cfg.k, cfg.p, rng);
        break;
      }
      case FrameShape::kAloha: {
        const auto& cfg = std::get<AlohaFrameConfig>(requests[f].config);
        pl.draws = draw_binomial(n_, cfg.p, rng);
        break;
      }
      case FrameShape::kSingleSlot: {
        const auto& cfg = std::get<SingleSlotConfig>(requests[f].config);
        pl.responders = draw_binomial(n_, cfg.q, rng);
        break;
      }
      case FrameShape::kLottery: {
        // Sequential multinomial: slot j holds Binomial(n_remaining,
        // p_j / p_remaining) tags, with p_j = 2^-(j+1) and the tail mass
        // clamped into the last slot.
        std::uint32_t* const counts = batch_counts_.data() + pl.offset;
        std::uint64_t remaining = n_;
        double mass_remaining = 1.0;
        for (std::uint32_t j = 0; j + 1 < pl.w && remaining > 0; ++j) {
          const double pj = std::ldexp(1.0, -static_cast<int>(j) - 1);
          const double cond = pj / mass_remaining;
          const std::uint64_t c =
              draw_binomial(remaining, cond > 1.0 ? 1.0 : cond, rng);
          counts[j] = static_cast<std::uint32_t>(
              c > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : c);
          remaining -= c;
          mass_remaining -= pj;
          if (mass_remaining <= 0.0) break;
        }
        counts[pl.w - 1] += static_cast<std::uint32_t>(
            remaining > 0xFFFFFFFFULL ? 0xFFFFFFFFULL : remaining);
        break;
      }
    }
    if (pl.shape == FrameShape::kBloom || pl.shape == FrameShape::kAloha) {
      util::SeedMixer mix(rng());
      mix.absorb(static_cast<std::uint64_t>(pl.w));
      pl.base = mix.value();
      total_draws += pl.draws;
    }
  }

  // Phase 2 — render: scatter all response draws. Shard s owns the
  // contiguous draw range [s·chunk, (s+1)·chunk) of EVERY frame and
  // renders into private word-packed planes; slot r of a frame is
  // counter-addressed (splitmix_at(base, r) reduced by multiply-shift),
  // and both plane forms merge order-independently (busy bits with OR,
  // the ALOHA pair with the cross-shard ≥2 term), so the merged result
  // is bit-identical for any shard count.
  const std::uint32_t shard_count =
      total_draws > 0
          ? effective_shards(static_cast<std::size_t>(std::min<std::uint64_t>(
                total_draws, static_cast<std::uint64_t>(~std::size_t{0}))))
          : 1;
  if (shard_count > 1) ++counters_.sharded_walks;
  if (words_stride > 0) {
    // Sized but not zeroed here: each shard zero-fills its own slice in
    // the parallel region, so cold pages first-touch on the worker that
    // scatters into them (the same NUMA discipline as the exact walk).
    const std::size_t total_words =
        static_cast<std::size_t>(shard_count) * words_stride;
    if (shard_bits_.size() < total_words) shard_bits_.resize(total_words);
    slot_scratch_.resize(static_cast<std::size_t>(shard_count) *
                         detail::kScatterTile);
    const bool allow_simd = policy_.allow_simd;
    util::parallel_for(
        0, shard_count,
        [&](std::size_t s) {
          std::uint64_t* const plane = shard_bits_.data() + s * words_stride;
          std::fill(plane, plane + words_stride, std::uint64_t{0});
          std::uint32_t* const slots =
              slot_scratch_.data() + s * detail::kScatterTile;
          for (const SampledPlan& pl : plans) {
            if ((pl.shape != FrameShape::kBloom &&
                 pl.shape != FrameShape::kAloha) ||
                pl.draws == 0) {
              continue;
            }
            const std::uint64_t chunk =
                (pl.draws + shard_count - 1) / shard_count;
            const std::uint64_t r0 = std::min<std::uint64_t>(
                pl.draws, static_cast<std::uint64_t>(s) * chunk);
            const std::uint64_t r1 = std::min<std::uint64_t>(
                pl.draws, r0 + chunk);
            std::uint64_t* const one = plane + pl.word_offset;
            std::uint64_t* const two = plane + pl.word_offset2;
            for (std::uint64_t t0 = r0; t0 < r1;
                 t0 += detail::kScatterTile) {
              const std::uint64_t t1 =
                  std::min<std::uint64_t>(r1, t0 + detail::kScatterTile);
              detail::sampled_scatter_tile(pl.base, t0, t1, pl.w,
                                           allow_simd, slots);
              const std::size_t count = static_cast<std::size_t>(t1 - t0);
              if (pl.shape == FrameShape::kBloom) {
                for (std::size_t i = 0; i < count; ++i) {
                  const std::uint32_t slot = slots[i];
                  one[slot >> 6] |= 1ULL << (slot & 63U);
                }
              } else {
                for (std::size_t i = 0; i < count; ++i) {
                  const std::uint32_t slot = slots[i];
                  const std::uint64_t bit = 1ULL << (slot & 63U);
                  two[slot >> 6] |= one[slot >> 6] & bit;
                  one[slot >> 6] |= bit;
                }
              }
            }
          }
        },
        shard_count);
    // Merge the shard planes into shard 0's slice.
    for (const SampledPlan& pl : plans) {
      if ((pl.shape != FrameShape::kBloom &&
           pl.shape != FrameShape::kAloha) ||
          pl.draws == 0) {
        continue;
      }
      const std::size_t words = (static_cast<std::size_t>(pl.w) + 63) / 64;
      std::uint64_t* const one = shard_bits_.data() + pl.word_offset;
      std::uint64_t* const two = shard_bits_.data() + pl.word_offset2;
      for (std::uint32_t s = 1; s < shard_count; ++s) {
        const std::uint64_t* const one_s =
            shard_bits_.data() + s * words_stride + pl.word_offset;
        if (pl.shape == FrameShape::kBloom) {
          for (std::size_t i = 0; i < words; ++i) one[i] |= one_s[i];
        } else {
          const std::uint64_t* const two_s =
              shard_bits_.data() + s * words_stride + pl.word_offset2;
          for (std::size_t i = 0; i < words; ++i) {
            // A slot collides if any shard saw ≥ 2 draws, or two
            // different shards each saw ≥ 1.
            const std::uint64_t os = one_s[i];
            two[i] |= two_s[i] | (one[i] & os);
            one[i] |= os;
          }
        }
      }
    }
  }

  // Phase 3 — reduce: channel observation per frame, in request order,
  // on the caller's stream — the same frame-major order every other
  // path uses.
  for (std::size_t f = 0; f < m; ++f) {
    const SampledPlan& pl = plans[f];
    FrameResult& res = out[f];
    res.shape = pl.shape;
    switch (pl.shape) {
      case FrameShape::kBloom:
        res.tx = pl.draws;
        res.busy = bitmap_to_busy(
            channel_, shard_bits_.data() + pl.word_offset, pl.w, rng);
        break;
      case FrameShape::kAloha: {
        // Slot-major observation with the exact occupancy category
        // (0 / 1 / ≥2) — draw-for-draw identical to observing the true
        // per-slot draw counts.
        const std::uint64_t* const one = shard_bits_.data() + pl.word_offset;
        const std::uint64_t* const two = shard_bits_.data() + pl.word_offset2;
        res.tx = pl.draws;
        res.states.resize(pl.w);
        for (std::uint32_t i = 0; i < pl.w; ++i) {
          const std::uint32_t category =
              ((two[i >> 6] >> (i & 63U)) & 1ULL) != 0
                  ? 2U
                  : static_cast<std::uint32_t>(
                        (one[i >> 6] >> (i & 63U)) & 1ULL);
          res.states[i] = channel_.observe(category, rng);
        }
        break;
      }
      case FrameShape::kSingleSlot:
        res.tx = pl.responders;
        res.single = channel_.observe(
            static_cast<std::uint32_t>(pl.responders > 0xFFFFFFFFULL
                                           ? 0xFFFFFFFFULL
                                           : pl.responders),
            rng);
        break;
      case FrameShape::kLottery:
        res.tx = n_;
        res.busy = counts_to_busy(channel_, batch_counts_.data() + pl.offset,
                                  pl.w, rng);
        break;
    }
  }
}

}  // namespace bfce::rfid
