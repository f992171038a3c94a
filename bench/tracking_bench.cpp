// Continuous-tracking bench: runs the three canonical churn scenarios
// (steady, ramp, step) through TrackingSession and measures what the
// Kalman fusion buys over the raw per-round BFCE estimates —
// tracked-vs-raw RMSE, rounds per second, and how many rounds the
// filter needs to reach steady state after the step scenario's jump.
//
// Writes the whole record to BENCH_tracking.json and exits non-zero if
// fusion failed to beat the raw rounds on the ramp or step scenario
// (the PR's acceptance criterion, so CI can hold the line).
//
//   $ tracking_bench [--rounds=60] [--n0=20000] [--q=0.02] [--seed=...]
//                    [--exact] [--csv] [--smoke] [--shards=N]
//
// --shards=N splits every round's frame pipeline over N shards
// (0 ⇒ default thread count). Trajectories
// are a pure function of the seed for any shard count, so this only
// changes wall-clock, never the tracked numbers.
//
// --smoke shrinks the run (small population, few rounds) so the CI
// smoke stage finishes in seconds while still exercising every path.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "tracking/session.hpp"
#include "util/rng.hpp"

using namespace bfce;

namespace {

struct ScenarioRecord {
  std::string name;
  tracking::TrackSummary summary;
  double wall_s = 0.0;
  double rounds_per_s = 0.0;
  std::size_t settle_round = 0;  ///< step only: rounds to re-converge
};

/// First round after `from` whose tracked estimate stays within `band`
/// of the ground truth for the rest of the trajectory — the filter's
/// steady-state latency after a disturbance.
std::size_t settle_round_after(const std::vector<tracking::TrackPoint>& traj,
                               std::size_t from, double band) {
  std::size_t settled = traj.size();
  for (std::size_t i = traj.size(); i-- > from;) {
    const double n = static_cast<double>(traj[i].true_n);
    if (std::fabs(traj[i].tracked_n - n) > band * n) break;
    settled = i;
  }
  return settled;
}

ScenarioRecord run_scenario(const std::string& name,
                            const tracking::SessionConfig& config,
                            const tracking::ChurnSchedule& schedule) {
  ScenarioRecord rec;
  rec.name = name;
  const auto t0 = std::chrono::steady_clock::now();
  tracking::TrackingSession session(config);
  session.run(schedule);
  rec.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  rec.summary = session.summary();
  rec.rounds_per_s = rec.wall_s > 0.0
                         ? static_cast<double>(rec.summary.rounds) / rec.wall_s
                         : 0.0;
  if (name == "step") {
    // The jump lands after the first third; measure recovery from there.
    rec.settle_round =
        settle_round_after(session.trajectory(), session.trajectory().size() / 3,
                           config.req.epsilon);
  }
  return rec;
}

void append_scenario_json(std::string& json, const ScenarioRecord& rec,
                          bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"scenario\": \"%s\", \"rounds\": %zu, \"raw_rmse\": %.4f, "
      "\"tracked_rmse\": %.4f, \"improvement\": %.4f, "
      "\"raw_rel_rmse\": %.6f, \"tracked_rel_rmse\": %.6f, "
      "\"innovation_rms\": %.4f, \"residual_rms\": %.4f, "
      "\"design_misses\": %zu, \"airtime_s\": %.4f, \"wall_s\": %.4f, "
      "\"rounds_per_s\": %.2f, \"settle_round\": %zu}%s\n",
      rec.name.c_str(), rec.summary.rounds, rec.summary.raw_rmse,
      rec.summary.tracked_rmse, rec.summary.improvement(),
      rec.summary.raw_rel_rmse, rec.summary.tracked_rel_rmse,
      rec.summary.innovation_rms, rec.summary.residual_rms,
      rec.summary.design_misses, rec.summary.airtime_s, rec.wall_s,
      rec.rounds_per_s, rec.settle_round, last ? "" : ",");
  json += buf;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"rounds", "n0", "q", "seed", "exact",
                                   "csv", "smoke", "shards"});
  const bool smoke = cli.has("smoke");
  const auto rounds =
      static_cast<std::size_t>(cli.get_int("rounds", smoke ? 12 : 60));
  const double n0 = cli.get_double("n0", smoke ? 4000.0 : 20000.0);
  const double q = cli.get_double("q", 0.02);

  core::PersistencePlanner planner;
  tracking::SessionConfig cfg;
  cfg.initial_population = static_cast<std::size_t>(n0);
  cfg.params.planner = &planner;
  cfg.req = {0.05, 0.05};
  cfg.mode = bench::mode_from(cli);
  cfg.seed = cli.seed();
  const std::int64_t shards = cli.get_int("shards", -1);
  if (shards >= 0) {
    cfg.policy =
        rfid::ExecutionPolicy::sharded(static_cast<std::uint32_t>(shards));
  }

  std::vector<ScenarioRecord> records;
  records.push_back(
      run_scenario("steady", cfg, tracking::steady_scenario(rounds, q, n0)));
  records.push_back(
      run_scenario("ramp", cfg, tracking::ramp_scenario(rounds, q, n0, 2.0)));
  records.push_back(
      run_scenario("step", cfg, tracking::step_scenario(rounds, q, n0, 1.5)));

  util::Table table({"scenario", "rounds", "raw_rmse", "tracked_rmse",
                     "improve", "rounds_per_s", "settle"});
  for (const ScenarioRecord& rec : records) {
    table.add_row({rec.name,
                   util::Table::num(static_cast<double>(rec.summary.rounds)),
                   util::Table::num(rec.summary.raw_rmse),
                   util::Table::num(rec.summary.tracked_rmse),
                   util::Table::num(rec.summary.improvement()),
                   util::Table::num(rec.rounds_per_s),
                   util::Table::num(static_cast<double>(rec.settle_round))});
  }
  bench::emit(cli, "tracking_bench: Kalman fusion vs raw BFCE rounds",
              table);

  // Acceptance criterion: fusion must beat the raw rounds where the
  // population is actually moving.
  bool pass = true;
  for (const ScenarioRecord& rec : records) {
    if (rec.name == "steady") continue;
    if (rec.summary.tracked_rmse >= rec.summary.raw_rmse) {
      std::fprintf(stderr,
                   "FAIL: %s scenario tracked RMSE %.2f >= raw %.2f\n",
                   rec.name.c_str(), rec.summary.tracked_rmse,
                   rec.summary.raw_rmse);
      pass = false;
    }
  }
  std::printf("tracked beats raw on ramp and step: %s\n",
              pass ? "yes" : "NO - BUG");

  // Dispatch-overhead stage: a tracking round issues one sharded walk
  // per frame, so the pool-cold vs pool-warm gap is exactly the per-
  // round tax the persistent executor removed. (BENCH_service.json
  // carries the committed record; here it is informational.)
  const bench::PoolLatency pool = bench::measure_pool_latency();
  std::printf(
      "executor dispatch (%u lanes): pool-cold %.3f ms, pool-warm "
      "%.3f ms (%.0fx reuse win)\n",
      pool.lanes, pool.cold_ms, pool.warm_ms,
      pool.warm_ms > 0.0 ? pool.cold_ms / pool.warm_ms : 0.0);

  std::string json = "{\n  \"bench\": \"tracking\",\n";
  char buf[384];
  std::snprintf(buf, sizeof(buf),
                "  \"rounds\": %zu,\n  \"n0\": %.0f,\n  \"q\": %.4f,\n"
                "  \"mode\": \"%s\",\n  \"seed\": %llu,\n"
                "  \"smoke\": %s,\n  \"tracked_beats_raw\": %s,\n"
                "  \"scenarios\": [\n",
                rounds, n0, q,
                cfg.mode == rfid::FrameMode::kExact ? "exact" : "sampled",
                static_cast<unsigned long long>(cfg.seed),
                smoke ? "true" : "false", pass ? "true" : "false");
  json += buf;
  for (std::size_t i = 0; i < records.size(); ++i) {
    append_scenario_json(json, records[i], i + 1 == records.size());
  }
  json += "  ]\n}\n";

  const char* path = "BENCH_tracking.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return 1;
  }
  return pass ? 0 : 1;
}
