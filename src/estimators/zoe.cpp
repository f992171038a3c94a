#include "estimators/zoe.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "math/erf.hpp"

namespace bfce::estimators {

std::uint64_t ZoeEstimator::required_frames(double epsilon, double delta,
                                            double lambda_star,
                                            double sigma_max) {
  const double d = math::confidence_d(delta);
  const double denom =
      std::exp(-lambda_star) * (1.0 - std::exp(-epsilon * lambda_star));
  const double root = std::ceil(d * sigma_max / denom);
  return static_cast<std::uint64_t>(root * root);
}

EstimateOutcome ZoeEstimator::estimate(rfid::ReaderContext& ctx,
                                       const Requirement& req) {
  EstimateOutcome out;
  out.rounds = 0;
  LofEstimator lof(params_.rough);
  const std::uint64_t m = required_frames(req.epsilon, req.delta,
                                          params_.lambda_star,
                                          params_.sigma_max);

  for (std::uint32_t attempt = 0; attempt <= params_.max_restarts;
       ++attempt) {
    // Rough phase: LOF × 10 rounds, its airtime charged to this run.
    const EstimateOutcome rough = lof.estimate(ctx, req);
    out.airtime += rough.airtime;
    const double n_rough = std::max(1.0, rough.n_hat);
    const double q = std::min(1.0, params_.lambda_star / n_rough);

    // Measurement phase: single-slot frames, one seed broadcast each.
    // The slot count is adaptive: the formula's m assumes the load sits
    // at λ*, but the achieved load is λ* · n/n̂_rough. After the planned
    // frames the reader re-evaluates the bound at the achieved load
    // λ̂ = −ln ρ̄ and keeps going until it is met — this is exactly why
    // "an estimation that fairly deviates from the actual cardinality
    // will lead to a sharp growth of the required time slots" (§V-C),
    // ZOE's multi-second worst cases.
    std::uint64_t idle = 0;
    std::uint64_t done = 0;
    std::uint64_t target = m;
    const std::uint64_t cap = 8 * m;  // give up past 8× the plan
    // Frames are submitted in bounded batches so each chunk runs
    // through one pipeline pass (batched sampler / exact walk) instead
    // of thousands of single-frame passes. The chunk never
    // overruns the current target, so the adaptive re-plan below fires
    // at exactly the frame index it would have fired at frame-by-frame.
    constexpr std::uint64_t kChunkFrames = 4096;
    std::vector<rfid::FrameRequest> requests;
    while (done < target) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(kChunkFrames, target - done);
      requests.clear();
      requests.reserve(static_cast<std::size_t>(chunk));
      for (std::uint64_t i = 0; i < chunk; ++i) {
        requests.push_back(
            rfid::FrameRequest::single_slot(q, ctx.next_seed()));
      }
      for (const rfid::FrameResult& frame : ctx.run_batch(requests)) {
        out.airtime.tag_tx_bits += frame.tx;
        const rfid::SlotState s = frame.single;
        if (!rfid::is_busy(s)) ++idle;
        out.airtime.add_reader_broadcast(params_.seed_bits);
        out.airtime.add_tag_slots(1);
        ctx.log_frame(rfid::FrameKind::kSingleSlot, 1, q,
                      rfid::is_busy(s) ? 1 : 0,
                      static_cast<double>(params_.seed_bits) *
                              ctx.timing().reader_bit_us +
                          ctx.timing().tag_bit_us +
                          2.0 * ctx.timing().interval_us);
        ++done;
        if (done == target && target < cap) {
          const double rho_so_far = std::clamp(
              static_cast<double>(idle) / static_cast<double>(done),
              1.0 / static_cast<double>(2 * done),
              1.0 - 1.0 / static_cast<double>(2 * done));
          const double lambda_hat = -std::log(rho_so_far);
          target = std::min<std::uint64_t>(
              cap, std::max<std::uint64_t>(
                       m, required_frames(req.epsilon, req.delta, lambda_hat,
                                          params_.sigma_max)));
        }
      }
    }
    out.rounds += static_cast<std::uint32_t>(done);

    const double rho =
        static_cast<double>(idle) / static_cast<double>(done);
    const bool usable = rho >= params_.usable_rho_min &&
                        rho <= params_.usable_rho_max;
    if (usable || attempt == params_.max_restarts) {
      // Invert; clamp a degenerate ρ̄ to the finest resolvable value so
      // the final fallback still returns a number.
      const double clamped = std::clamp(
          rho, 1.0 / static_cast<double>(2 * done),
          1.0 - 1.0 / static_cast<double>(2 * done));
      out.n_hat = -std::log(clamped) / q;
      if (!usable) {
        out.met_by_design = false;
        out.note = "idle ratio left the usable band even after restarts";
      }
      break;
    }
    out.note = "restarted: rough estimate drove the load off its design point";
  }

  out.time_us = out.airtime.total_us(ctx.timing());
  return out;
}

}  // namespace bfce::estimators
