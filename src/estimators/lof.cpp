#include "estimators/lof.hpp"

#include <cmath>
#include <vector>

#include "util/bitvector.hpp"

namespace bfce::estimators {

namespace {
/// Flajolet–Martin bias correction: E[2^R] ≈ n/0.7735 ⇒ n̂ = 1.2897·2^R̄.
constexpr double kFmCorrection = 1.2897;
}  // namespace

EstimateOutcome LofEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& /*req*/) {
  EstimateOutcome out;
  double index_sum = 0.0;
  // All rounds submitted as one batch: one pipeline pass (the exact
  // walk or the batched sampler) serves them all.
  std::vector<rfid::FrameRequest> requests;
  requests.reserve(params_.rounds);
  for (std::uint32_t r = 0; r < params_.rounds; ++r) {
    requests.push_back(
        rfid::FrameRequest::lottery(params_.frame_size, ctx.next_seed()));
  }
  for (const rfid::FrameResult& frame : ctx.run_batch(requests)) {
    out.airtime.tag_tx_bits += frame.tx;
    const util::BitVector& busy = frame.busy;
    out.airtime.add_reader_broadcast(params_.seed_bits);
    out.airtime.add_tag_slots(params_.frame_size);
    ctx.log_frame(rfid::FrameKind::kLottery, params_.frame_size, 1.0,
                  static_cast<std::uint32_t>(busy.count_ones()),
                  static_cast<double>(params_.seed_bits) *
                          ctx.timing().reader_bit_us +
                      params_.frame_size * ctx.timing().tag_bit_us +
                      2.0 * ctx.timing().interval_us);
    index_sum += static_cast<double>(busy.first_zero());
  }
  const double mean_index = index_sum / static_cast<double>(params_.rounds);
  out.n_hat = kFmCorrection * std::exp2(mean_index);
  out.rounds = params_.rounds;
  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
