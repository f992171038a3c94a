#include "core/threshold.hpp"

#include <algorithm>
#include <cmath>

namespace bfce::core {

ThresholdAnswer threshold_query(rfid::ReaderContext& ctx,
                                const ThresholdQuery& query) {
  ThresholdAnswer ans;
  const double t = std::max(1.0, query.threshold);
  const double q = std::min(1.0, 1.594 / t);

  // Busy probabilities under the two hypotheses.
  const double p_low =
      1.0 - std::exp(-q * t / query.gamma);  // n = T/γ
  const double p_high =
      1.0 - std::exp(-q * t * query.gamma);  // n = T·γ
  const double llr_busy = std::log(p_high / p_low);
  const double llr_idle = std::log((1.0 - p_high) / (1.0 - p_low));

  // Wald's boundaries.
  const double upper = std::log((1.0 - query.beta) / query.alpha);
  const double lower = std::log(query.beta / (1.0 - query.alpha));

  double llr = 0.0;
  while (ans.slots < query.max_slots) {
    const std::uint64_t seed = ctx.next_seed();
    const rfid::FrameResult frame =
        ctx.run_frame(rfid::FrameRequest::single_slot(q, seed));
    ans.airtime.tag_tx_bits += frame.tx;
    const rfid::SlotState s = frame.single;
    ans.airtime.add_reader_broadcast(query.seed_bits);
    ans.airtime.add_tag_slots(1);
    ++ans.slots;
    llr += rfid::is_busy(s) ? llr_busy : llr_idle;
    if (llr >= upper) {
      ans.above = true;
      break;
    }
    if (llr <= lower) {
      ans.above = false;
      break;
    }
  }
  if (llr < upper && llr > lower) {
    // Cap hit: n is inside the indifference band; report the lean.
    ans.decisive = false;
    ans.above = llr > 0.0;
  }
  ans.llr = llr;
  ans.time_us = ans.airtime.total_us(ctx.timing());
  return ans;
}

}  // namespace bfce::core
