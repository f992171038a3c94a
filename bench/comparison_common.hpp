#pragma once
// Shared sweep machinery for the Fig 9 / Fig 10 comparisons of BFCE
// against ZOE and SRC on the T2 distribution.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/bfce.hpp"
#include "estimators/registry.hpp"
#include "rfid/frame_engine.hpp"
#include "util/rng.hpp"

namespace bfce::bench {

inline const std::vector<std::string>& comparison_protocols() {
  static const std::vector<std::string> kNames = {"BFCE", "ZOE", "SRC"};
  return kNames;
}

/// Engine counters accumulated across every comparison_point of this
/// process; benches print them at the end via core::render_engine_counters.
inline rfid::EngineCounters& comparison_counters() {
  static rfid::EngineCounters counters;
  return counters;
}

/// One comparison point: protocol × (n, ε, δ) on T2. The per-point seed
/// absorbs every sweep coordinate through util::SeedMixer, so nearby
/// (n, ε, δ) points and distinct protocols get uncorrelated streams.
/// `--shards=N` splits every trial's frame pipeline (exact walk /
/// batched sampler) over N shards (0 ⇒ default thread count).
inline sim::ExperimentSummary comparison_point(
    PopulationCache& pops, const std::string& protocol, std::size_t n,
    double eps, double delta, const util::Cli& cli, std::size_t trials) {
  sim::ExperimentConfig cfg;
  cfg.trials = trials;
  cfg.req = {eps, delta};
  cfg.mode = mode_from(cli);
  const std::int64_t shards = cli.get_int("shards", -1);
  if (shards >= 0) {
    cfg.engine_policy =
        rfid::ExecutionPolicy::sharded(static_cast<std::uint32_t>(shards));
  }
  cfg.seed = util::SeedMixer(cli.seed())
                 .absorb(static_cast<std::uint64_t>(n))
                 .absorb(eps)
                 .absorb(delta)
                 .absorb(std::string_view(protocol))
                 .value();
  const auto& pop = pops.get(n, rfid::TagIdDistribution::kT2ApproxNormal);
  const auto records = sim::run_experiment(
      pop,
      [&protocol] { return estimators::make_estimator(protocol); },
      cfg);
  sim::ExperimentSummary summary = sim::summarize_records(records, eps);
  comparison_counters() += summary.counters;
  return summary;
}

/// The x-axes of Fig 9 / Fig 10.
inline const std::vector<std::size_t>& comparison_ns() {
  static const std::vector<std::size_t> kNs = {50000, 100000, 200000,
                                               500000, 1000000};
  return kNs;
}

inline const std::vector<double>& comparison_eps() {
  static const std::vector<double> kEps = {0.05, 0.10, 0.15, 0.20, 0.25,
                                           0.30};
  return kEps;
}

inline const std::vector<double>& comparison_deltas() {
  static const std::vector<double> kDeltas = {0.05, 0.10, 0.15, 0.20, 0.25,
                                              0.30};
  return kDeltas;
}

}  // namespace bfce::bench
