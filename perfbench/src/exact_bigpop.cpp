// exact_bigpop: exact mode under the default sequential policy. Pointer
// jobs over caller-owned populations of 2·10⁵–2·10⁶ tags, mostly BFCE
// plus one loose-requirement ZOE job in eight on a 10⁴-tag population,
// driven by a closed loop of nproc clients (submit → wait). The
// FrameEngine's exact render and reduce is nearly all of the job time;
// there is no wire or materialization work, so a change to those leaves
// this workload still. The ZOE jobs exercise the per-frame execute()
// path for non-Bloom frames.
//
// Class weights put the p50 inside the 10⁶-tag class (cumulative share
// 25%–87.5%) and the p99 inside the 2·10⁶-tag class (87.5%–100%). A
// BFCE job's exact cost depends on its requirement through p_o, so those
// two classes carry one requirement each and stay one latency class.

#include <atomic>
#include <cstdio>
#include <string_view>
#include <thread>

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

constexpr std::string_view kName = "exact_bigpop";
const char* const kSnapshot = "exact_bigpop.snapshot";

constexpr std::size_t kSizes[] = {200000, 1000000, 2000000, 10000};
constexpr std::size_t kBlock = 16;
constexpr std::size_t kRoundJobs = 16 * kBlock;
constexpr std::size_t kReplaySample = kBlock;  // one job of every template

constexpr estimators::Requirement kR0{0.05, 0.05}, kR1{0.03, 0.05},
    kR2{0.1, 0.1};

struct JobTemplate {
  std::size_t pop;
  const char* estimator;
  estimators::Requirement req;
};

// 2× 2·10⁵ (R1, R2), 10× 10⁶ (R0), 2× 2·10⁶ (R0) BFCE and 2× ZOE (R2)
// on 10⁴ tags.
constexpr JobTemplate kTemplates[kBlock] = {
    {1, "BFCE", kR0}, {0, "BFCE", kR1}, {1, "BFCE", kR0}, {3, "ZOE", kR2},
    {1, "BFCE", kR0}, {2, "BFCE", kR0}, {1, "BFCE", kR0}, {1, "BFCE", kR0},
    {1, "BFCE", kR0}, {0, "BFCE", kR2}, {1, "BFCE", kR0}, {3, "ZOE", kR2},
    {1, "BFCE", kR0}, {2, "BFCE", kR0}, {1, "BFCE", kR0}, {1, "BFCE", kR0},
};

std::vector<rfid::TagPopulation> make_populations(std::uint64_t seed) {
  std::vector<rfid::TagPopulation> pops;
  for (std::size_t i = 0; i < std::size(kSizes); ++i) {
    pops.push_back(rfid::make_population(
        kSizes[i], rfid::TagIdDistribution::kT1Uniform,
        util::SeedMixer(seed).absorb(kName).absorb(std::string_view("population")).absorb(std::uint64_t{i}).value()));
  }
  return pops;
}

service::ServiceConfig exact_config() {
  service::ServiceConfig cfg;
  cfg.mode = rfid::FrameMode::kExact;
  return cfg;
}

service::JobSpec make_job(const std::vector<rfid::TagPopulation>& pops,
                          std::uint64_t seed, std::uint64_t round,
                          std::size_t i) {
  const JobTemplate& t = kTemplates[i % kBlock];
  service::JobSpec spec;
  spec.population = &pops[t.pop];
  spec.estimator = t.estimator;
  spec.req = t.req;
  spec.seed = util::SeedMixer(seed).absorb(kName).absorb(round).absorb(std::uint64_t{i}).value();
  return spec;
}

struct Round {
  std::vector<service::JobSpec> specs;
  std::vector<service::JobResult> results;
  std::vector<double> latency_s;
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
  const service::ServiceConfig cfg = exact_config();
  service::EstimationService svc(cfg);
  for (std::size_t i = 0; i < kRoundJobs; ++i) {
    round.specs.push_back(make_job(pops, seed, index, i));
  }
  round.results.resize(kRoundJobs);
  round.latency_s.resize(kRoundJobs);
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= kRoundJobs) return;
      const auto t0 = Clock::now();
      round.results[i] = svc.wait(svc.submit(round.specs[i]));
      round.latency_s[i] = seconds_since(t0);
    }
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < client_threads(); ++t) threads.emplace_back(client);
  // metrics() under load, every 10 ms until the clients are done.
  while (next.load() < kRoundJobs) {
    const auto m0 = Clock::now();
    svc.metrics();
    round.metrics_ms.push_back(seconds_since(m0) * 1e3);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (std::thread& t : threads) t.join();
  round.wall_s = seconds_since(t0);

  std::vector<std::pair<service::JobId, service::JobResult>> sample;
  for (std::size_t i = 0; i < kRoundJobs; i += kRoundJobs / 16 + 1) {
    sample.emplace_back(round.results[i].id, round.results[i]);
  }
  round.recovery = snapshot_and_restore(svc, cfg, sample, kSnapshot, 50, report);
  round.service_heap_mb = heap_in_use_mb() - heap_at_start;
  return round;
}

}  // namespace

void run_exact_bigpop(const Args& args, Report& report) {
  std::vector<rfid::TagPopulation> pops;
  const double setup_s = median_setup_s(3, [&] {
    pops.clear();
    pops = make_populations(args.seed);
    // Warm-up: one job per population pays the process's first-estimate
    // costs before anything is timed.
    service::EstimationService svc(exact_config());
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
      const double n = static_cast<double>(spec.population->size());
      records.push_back(make_record(spec.estimator, spec.req, n,
                                    round.results[i], round.latency_s[i]));
      latency_ms.push_back(round.latency_s[i] * 1e3);
      airtime.push_back(round.results[i].airtime_s);
      rel_error.push_back(round.results[i].outcome.relative_error(n));
    }
    metrics_ms.insert(metrics_ms.end(), round.metrics_ms.begin(), round.metrics_ms.end());
    snapshot_mb.push_back(static_cast<double>(round.recovery.bytes) / (1024.0 * 1024.0));
    restore_ms.push_back(round.recovery.restore_ms);
  }
  check_records(records, report);
  print_class_position("exact_bigpop", records);

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
  fill_common_layers(records, replay, exact_config(), pops[1], round.recovery,
                     median(round.metrics_ms), "exact_bigpop.trace.json",
                     args.seed, layers, report);
  layers.population_build_ns_per_tag = population_build_ns_per_tag(
      std::vector<std::size_t>(std::begin(kSizes), std::end(kSizes)), args.seed);
  layers.emit(report);
}

}  // namespace perfbench
