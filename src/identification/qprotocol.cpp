#include "identification/qprotocol.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace bfce::identification {

IdentificationOutcome QProtocol::identify(rfid::ReaderContext& ctx) {
  IdentificationOutcome out;
  std::uint64_t remaining = ctx.tags().size();
  double q_fp = static_cast<double>(params_.q_initial);
  auto& rng = ctx.rng();
  const InventoryCosts& cost = params_.costs;
  const rfid::TimingModel& tm = ctx.timing();

  // Slot-count simulation: tags are anonymous for counting purposes, so
  // each frame only needs the multinomial occupancy of 2^Q slots by the
  // remaining tags (identical in law to an agent walk — the tags hash
  // fresh randomness every Query).
  std::vector<std::uint32_t> occupancy;
  for (std::uint32_t frame = 0;
       frame < params_.max_frames && remaining > 0; ++frame) {
    const auto q = static_cast<std::uint32_t>(std::lround(
        std::clamp(q_fp, 0.0, static_cast<double>(params_.q_max))));
    const std::uint64_t slots = 1ULL << q;

    // Sequential-binomial multinomial throw of `remaining` tags.
    occupancy.assign(slots, 0);
    std::uint64_t left = remaining;
    for (std::uint64_t s = 0; s + 1 < slots && left > 0; ++s) {
      const double p_slot =
          1.0 / static_cast<double>(slots - s);  // conditional uniform
      // util::draw_binomial: bit-identical to std::binomial_distribution,
      // without lgamma()'s write to the global signgam.
      const std::uint64_t c = util::draw_binomial(left, p_slot, rng);
      occupancy[s] = static_cast<std::uint32_t>(c);
      left -= c;
    }
    occupancy[slots - 1] = static_cast<std::uint32_t>(left);

    // Frame-opening Query command.
    out.airtime.add_reader_broadcast(cost.query_bits);
    std::uint64_t identified_this_frame = 0;
    std::uint64_t empties = 0;
    std::uint64_t singles = 0;
    std::uint64_t collisions = 0;
    for (std::uint64_t s = 0; s < slots; ++s) {
      if (s != 0) {
        // QueryRep advances the slot counter.
        out.airtime.add_reader_broadcast(cost.query_rep_bits);
      }
      const std::uint32_t k = occupancy[s];
      if (k == 0) {
        ++empties;
        // The reader times out on silence: charge one turnaround.
        out.airtime.intervals += 1;
      } else if (k == 1) {
        ++singles;
        // RN16 → ACK → EPC completes the read.
        out.airtime.add_tag_slots(cost.rn16_bits);
        out.airtime.add_reader_broadcast(cost.ack_bits);
        out.airtime.add_tag_slots(cost.epc_bits);
        ++identified_this_frame;
      } else {
        ++collisions;
        // Colliding RN16s burn the slot.
        out.airtime.add_tag_slots(cost.rn16_bits);
      }
    }
    out.total_slots += slots;
    out.empty_slots += empties;
    out.singleton_slots += singles;
    out.collision_slots += collisions;
    out.identified += identified_this_frame;
    remaining -= identified_this_frame;

    // Q adaptation: per-frame aggregate version of the per-slot rule.
    const double pressure =
        static_cast<double>(collisions) - static_cast<double>(empties);
    q_fp += params_.c_step *
            std::clamp(pressure / std::max(1.0, static_cast<double>(slots) *
                                                    0.25),
                       -1.0, 1.0);
    // Track the optimum when the frame badly mismatches the population.
    if (remaining > 0) {
      const double ideal = std::log2(static_cast<double>(remaining));
      q_fp = std::clamp(q_fp, ideal - 2.0, ideal + 2.0);
      q_fp = std::clamp(q_fp, 0.0, static_cast<double>(params_.q_max));
    }
  }

  out.time_us = out.airtime.total_us(tm);
  return out;
}

}  // namespace bfce::identification
