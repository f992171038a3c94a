// sampled_soak: sampled mode, a long fleet-like soak. BFCE and ZOE
// pointer jobs over shared populations of 5·10³–10⁶ tags with the
// (ε, δ) mix and max_attempts = 2. One submitter keeps a fixed window of
// outstanding jobs, sixteen times the worker count, so the queue does not
// empty while the oldest job is a slow one. metrics() is polled every
// kPollEvery jobs, and each round ends in snapshot, save, load and
// restore into a fresh service. Per-job service overhead, ZOE's thousands
// of single-slot frames, Theorem-4 searches at tight requirements, and
// state that grows with the jobs a service has served show here and not
// in exact_bigpop.
//
// ZOE at (0.02, 0.01) — one job in 32, by far the slowest class — holds
// the p99 inside one class.

#include <cstdio>
#include <deque>
#include <string_view>

#include "rfid/population.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace estimators = bfce::estimators;
namespace rfid = bfce::rfid;
namespace service = bfce::service;
namespace util = bfce::util;

constexpr std::string_view kName = "sampled_soak";
const char* const kSnapshot = "sampled_soak.snapshot";

constexpr std::size_t kSizes[] = {5000, 50000, 200000, 1000000};
constexpr std::size_t kBlock = 32;
constexpr std::size_t kRoundJobs = 125 * kBlock;
constexpr std::size_t kPollEvery = 100;
constexpr std::uint32_t kMaxAttempts = 2;
constexpr std::size_t kReplaySample = 2 * kBlock;

constexpr estimators::Requirement kReqs[] = {
    {0.05, 0.05}, {0.03, 0.05}, {0.1, 0.1}, {0.02, 0.01}};

/// Job i of a block: every eighth is ZOE (on 10⁶ tags, one requirement
/// each), the rest BFCE, whose sizes and requirements cycle so that every
/// (size, requirement) pair occurs.
service::JobSpec make_job(const std::vector<rfid::TagPopulation>& pops,
                          std::uint64_t seed, std::uint64_t round,
                          std::size_t i) {
  const std::size_t b = i % kBlock;
  service::JobSpec spec;
  spec.population = &pops[b % std::size(kSizes)];
  spec.estimator = (b % 8 == 7) ? "ZOE" : "BFCE";
  spec.req = kReqs[(b / 8 + b) % std::size(kReqs)];
  spec.max_attempts = kMaxAttempts;
  spec.seed = util::SeedMixer(seed).absorb(kName).absorb(round).absorb(std::uint64_t{i}).value();
  return spec;
}

std::vector<rfid::TagPopulation> make_populations(std::uint64_t seed) {
  std::vector<rfid::TagPopulation> pops;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    pops.push_back(rfid::make_population(
        kSizes[i], rfid::TagIdDistribution::kT1Uniform,
        util::SeedMixer(seed).absorb(kName).absorb(std::string_view("population")).absorb(std::uint64_t{i}).value()));
  }
  return pops;
}

service::ServiceConfig sampled_config() {
  service::ServiceConfig cfg;
  cfg.mode = rfid::FrameMode::kSampled;
  return cfg;
}

struct Round {
  std::vector<service::JobSpec> specs;
  std::vector<service::JobResult> results;
  double wall_s = 0.0;
  std::vector<double> metrics_ms;
  RecoveryTiming recovery;
  /// Heap in use at the round's end, service alive, minus that at its
  /// start: what the service (and the round's own records) hold.
  double service_heap_mb = 0.0;
};

Round run_round(const std::vector<rfid::TagPopulation>& pops,
                std::uint64_t seed, std::uint64_t index, Report& report) {
  Round round;
  const double heap_at_start = heap_in_use_mb();
  const service::ServiceConfig cfg = sampled_config();
  service::EstimationService svc(cfg);
  const std::size_t window = 16 * static_cast<std::size_t>(svc.metrics().workers);
  round.specs.reserve(kRoundJobs);
  for (std::size_t i = 0; i < kRoundJobs; ++i) {
    round.specs.push_back(make_job(pops, seed, index, i));
  }
  round.results.resize(kRoundJobs);

  std::deque<std::pair<std::size_t, service::JobId>> outstanding;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kRoundJobs; ++i) {
    if (outstanding.size() == window) {
      const auto [j, id] = outstanding.front();
      outstanding.pop_front();
      round.results[j] = svc.wait(id);
    }
    outstanding.emplace_back(i, svc.submit(round.specs[i]));
    if ((i + 1) % kPollEvery == 0) {
      const auto m0 = Clock::now();
      svc.metrics();
      round.metrics_ms.push_back(seconds_since(m0) * 1e3);
    }
  }
  for (const auto& [j, id] : outstanding) round.results[j] = svc.wait(id);
  round.wall_s = seconds_since(t0);

  std::vector<std::pair<service::JobId, service::JobResult>> sample;
  for (std::size_t i = 0; i < kRoundJobs; i += kRoundJobs / 64) {
    sample.emplace_back(round.results[i].id, round.results[i]);
  }
  round.recovery = snapshot_and_restore(svc, cfg, sample, kSnapshot, 10, report);
  round.service_heap_mb = heap_in_use_mb() - heap_at_start;
  return round;
}

}  // namespace

void run_sampled_soak(const Args& args, Report& report) {
  std::vector<rfid::TagPopulation> pops;
  const double setup_s = median_setup_s(5, [&] {
    pops.clear();
    pops = make_populations(args.seed);
    // Warm-up: one block of jobs pays the process's first-estimate costs.
    service::EstimationService svc(sampled_config());
    std::vector<service::JobId> ids;
    for (std::size_t i = 0; i < kBlock; ++i) {
      ids.push_back(svc.submit(make_job(pops, args.seed, ~std::uint64_t{0}, i)));
    }
    for (const service::JobId id : ids) svc.wait(id);
  });

  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  for (std::uint64_t index = 0;; ++index) {
    rounds.push_back(run_round(pops, args.seed, index, report));
    const double elapsed = seconds_since(t0);
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (args.trace || elapsed + per_round > args.seconds) break;
  }

  std::vector<JobRecord> records;
  std::vector<double> latency_ms, airtime, rel_error, metrics_ms, snapshot_mb,
      restore_ms;
  std::vector<double> service_heap_mb;
  double wall_s = 0.0;
  for (const Round& round : rounds) {
    wall_s += round.wall_s;
    service_heap_mb.push_back(round.service_heap_mb);
    for (std::size_t i = 0; i < round.specs.size(); ++i) {
      ++report.attempted;
      const service::JobSpec& spec = round.specs[i];
      const service::JobResult& r = round.results[i];
      const double n = static_cast<double>(spec.population->size());
      records.push_back(make_record(spec.estimator, spec.req, n, r, r.latency_s));
      latency_ms.push_back(r.latency_s * 1e3);
      airtime.push_back(r.airtime_s);
      rel_error.push_back(r.outcome.relative_error(n));
    }
    metrics_ms.insert(metrics_ms.end(), round.metrics_ms.begin(), round.metrics_ms.end());
    snapshot_mb.push_back(static_cast<double>(round.recovery.bytes) / (1024.0 * 1024.0));
    restore_ms.push_back(round.recovery.restore_ms);
  }
  check_records(records, report);
  print_class_position("sampled_soak", records);

  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_jobs_per_s",
                  static_cast<double>(kRoundJobs * rounds.size()) / wall_s, "1/s");
    report.metric("latency_p50_ms", median(latency_ms), "ms");
    report.metric("latency_p99_ms", quantile(latency_ms, 0.99), "ms");
    report.metric("airtime_mean_s", mean(airtime), "s");
    report.metric("rel_error_mean", mean(rel_error), "ratio");
    report.metric("service_heap_mb", median(service_heap_mb), "MiB");
    report.metric("metrics_p50_ms", median(metrics_ms), "ms");
    report.metric("snapshot_mb", median(snapshot_mb), "MiB");
    report.metric("restore_ms", median(restore_ms), "ms");
    return;
  }

  const Round& round = rounds.front();
  std::vector<ReplayJob> replay;
  for (std::size_t i = 0; i < kReplaySample; ++i) {
    ReplayJob job;
    job.id = round.results[i].id;
    job.spec = round.specs[i];
    job.expected = round.results[i];
    replay.push_back(std::move(job));
  }
  LayerMetrics layers;
  fill_common_layers(records, replay, sampled_config(), pops.back(),
                     round.recovery, median(round.metrics_ms),
                     "sampled_soak.trace.json", args.seed, layers, report);
  // The wire front door and portable materialization (population build
  // included), at the wire_fleet mix: no gated workload drives them (see
  // README.md).
  measure_wire_layers(args.seed, layers, report);
  layers.emit(report);
}

}  // namespace perfbench
