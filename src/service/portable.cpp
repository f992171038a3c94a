#include "service/portable.hpp"

#include <cmath>
#include <utility>

#include "rfid/tag.hpp"
#include "tracking/session.hpp"
#include "util/rng.hpp"

namespace bfce::service {

namespace {

/// Domain-separation label for membership-population RN derivation.
constexpr std::string_view kMembershipRnLabel = "portable-membership-rn";

bool valid_distribution(rfid::TagIdDistribution d) noexcept {
  switch (d) {
    case rfid::TagIdDistribution::kT1Uniform:
    case rfid::TagIdDistribution::kT2ApproxNormal:
    case rfid::TagIdDistribution::kT3Normal:
      return true;
  }
  return false;
}

}  // namespace

const char* validate_portable_job(const PortableJobSpec& spec) noexcept {
  if (spec.estimator.empty()) return "empty estimator name";
  if (spec.estimator.size() > kMaxEstimatorName) {
    return "estimator name too long";
  }
  if (!(spec.req.epsilon > 0.0) || !(spec.req.epsilon < 1.0)) {
    return "epsilon outside (0, 1)";
  }
  if (!(spec.req.delta > 0.0) || !(spec.req.delta < 1.0)) {
    return "delta outside (0, 1)";
  }
  if (std::isnan(spec.airtime_budget_s) || spec.airtime_budget_s < 0.0) {
    return "airtime budget is negative or NaN";
  }
  if (std::isnan(spec.deadline_s) || spec.deadline_s < 0.0) {
    return "deadline is negative or NaN";
  }

  if (spec.tracking.has_value()) {
    const PortableTrackingSpec& t = *spec.tracking;
    if (t.initial_population > kMaxPortableTags) {
      return "tracking initial population too large";
    }
    if (t.schedule.empty()) return "tracking schedule is empty";
    if (t.schedule.size() > kMaxSchedulePhases) {
      return "tracking schedule has too many phases";
    }
    for (const PortableChurnPhase& phase : t.schedule) {
      if (phase.rounds == 0 || phase.rounds > kMaxPhaseRounds) {
        return "tracking phase rounds outside [1, 2^20]";
      }
      if (!(phase.departure_prob >= 0.0) || !(phase.departure_prob <= 1.0)) {
        return "departure probability outside [0, 1]";
      }
      if (!(phase.arrival_mean >= 0.0) ||
          phase.arrival_mean > static_cast<double>(kMaxPortableTags)) {
        return "arrival mean outside [0, 2^24]";
      }
    }
    return nullptr;  // tracking jobs ignore the population description
  }

  switch (spec.population.kind) {
    case PortablePopulation::Kind::kNone:
      return "non-tracking job has no population";
    case PortablePopulation::Kind::kSynthetic:
      if (spec.population.size > kMaxPortableTags) {
        return "synthetic population too large";
      }
      if (!valid_distribution(spec.population.distribution)) {
        return "unknown tag-id distribution";
      }
      return nullptr;
    case PortablePopulation::Kind::kMembership:
      if (spec.population.membership.size() > kMaxMembershipBits) {
        return "membership bitmap too large";
      }
      return nullptr;
  }
  return "unknown population kind";
}

std::optional<MaterializedJob> materialize(const PortableJobSpec& spec) {
  if (validate_portable_job(spec) != nullptr) return std::nullopt;

  MaterializedJob job;
  job.spec.estimator = spec.estimator;
  job.spec.req = spec.req;
  job.spec.seed = spec.seed;
  job.spec.airtime_budget_s = spec.airtime_budget_s;
  job.spec.deadline_s = spec.deadline_s;
  job.spec.max_attempts = spec.max_attempts;

  if (spec.tracking.has_value()) {
    TrackingJobSpec track;
    track.reader_id = spec.tracking->reader_id;
    track.initial_population =
        static_cast<std::size_t>(spec.tracking->initial_population);
    track.schedule.reserve(spec.tracking->schedule.size());
    for (const PortableChurnPhase& phase : spec.tracking->schedule) {
      tracking::ChurnPhase p;
      p.rounds = static_cast<std::size_t>(phase.rounds);
      p.model.departure_prob = phase.departure_prob;
      p.model.arrival_mean = phase.arrival_mean;
      track.schedule.push_back(p);
    }
    job.spec.tracking = std::move(track);
    return job;
  }

  if (spec.population.kind == PortablePopulation::Kind::kSynthetic) {
    job.population = std::make_shared<const rfid::TagPopulation>(
        rfid::make_population(static_cast<std::size_t>(spec.population.size),
                              spec.population.distribution,
                              spec.population.seed));
  } else {  // kMembership
    // Bit i ⇒ tag id i+1 (ids stay in the paper's [1, 10^15] range for
    // any plausible bitmap). RN32 values are counter-addressed off a
    // label-separated base so the population is a pure function of the
    // (bitmap, seed) pair — independent of construction order.
    const std::uint64_t rn_base = util::SeedMixer(spec.population.seed)
                                      .absorb(kMembershipRnLabel)
                                      .value();
    std::vector<rfid::Tag> tags;
    const util::BitVector& bits = spec.population.membership;
    tags.reserve(bits.count_ones());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (!bits.get(i)) continue;
      rfid::Tag tag;
      tag.id = static_cast<std::uint64_t>(i) + 1;
      tag.rn = static_cast<std::uint32_t>(
          util::splitmix_at(rn_base, static_cast<std::uint64_t>(i)));
      tags.push_back(tag);
    }
    job.population =
        std::make_shared<const rfid::TagPopulation>(std::move(tags));
  }
  job.spec.population = job.population.get();
  return job;
}

void encode_portable_job(util::ByteWriter& w, const PortableJobSpec& spec) {
  w.str(spec.estimator);
  w.f64(spec.req.epsilon);
  w.f64(spec.req.delta);
  w.u64(spec.seed);
  w.f64(spec.airtime_budget_s);
  w.f64(spec.deadline_s);
  w.u32(spec.max_attempts);

  w.u8(static_cast<std::uint8_t>(spec.population.kind));
  switch (spec.population.kind) {
    case PortablePopulation::Kind::kNone:
      break;
    case PortablePopulation::Kind::kSynthetic:
      w.u64(spec.population.size);
      w.u8(static_cast<std::uint8_t>(spec.population.distribution));
      w.u64(spec.population.seed);
      break;
    case PortablePopulation::Kind::kMembership:
      w.u64(spec.population.seed);
      w.bitvector(spec.population.membership);
      break;
  }

  w.u8(spec.tracking.has_value() ? 1 : 0);
  if (spec.tracking.has_value()) {
    const PortableTrackingSpec& t = *spec.tracking;
    w.u64(t.reader_id);
    w.u64(t.initial_population);
    w.u64(t.schedule.size());
    for (const PortableChurnPhase& phase : t.schedule) {
      w.u64(phase.rounds);
      w.f64(phase.departure_prob);
      w.f64(phase.arrival_mean);
    }
  }
}

PortableJobSpec decode_portable_job(util::ByteReader& r) {
  PortableJobSpec spec;
  spec.estimator = r.str(kMaxEstimatorName);
  spec.req.epsilon = r.f64();
  spec.req.delta = r.f64();
  spec.seed = r.u64();
  spec.airtime_budget_s = r.f64();
  spec.deadline_s = r.f64();
  spec.max_attempts = r.u32();

  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(PortablePopulation::Kind::kMembership)) {
    r.fail();
    return spec;
  }
  spec.population.kind = static_cast<PortablePopulation::Kind>(kind);
  switch (spec.population.kind) {
    case PortablePopulation::Kind::kNone:
      break;
    case PortablePopulation::Kind::kSynthetic: {
      spec.population.size = r.u64();
      const std::uint8_t dist = r.u8();
      if (dist > static_cast<std::uint8_t>(rfid::TagIdDistribution::kT3Normal)) {
        r.fail();
        return spec;
      }
      spec.population.distribution =
          static_cast<rfid::TagIdDistribution>(dist);
      spec.population.seed = r.u64();
      break;
    }
    case PortablePopulation::Kind::kMembership:
      spec.population.seed = r.u64();
      spec.population.membership = r.bitvector(kMaxMembershipBits);
      break;
  }

  const std::uint8_t has_tracking = r.u8();
  if (has_tracking > 1) {
    r.fail();
    return spec;
  }
  if (has_tracking == 1) {
    PortableTrackingSpec t;
    t.reader_id = r.u64();
    t.initial_population = r.u64();
    const std::uint64_t phases = r.u64();
    if (phases > kMaxSchedulePhases || !r.fits(phases, 24)) {
      r.fail();
      return spec;
    }
    t.schedule.reserve(static_cast<std::size_t>(phases));
    for (std::uint64_t i = 0; i < phases; ++i) {
      PortableChurnPhase phase;
      phase.rounds = r.u64();
      phase.departure_prob = r.f64();
      phase.arrival_mean = r.f64();
      t.schedule.push_back(phase);
    }
    spec.tracking = std::move(t);
  }
  return spec;
}

}  // namespace bfce::service
