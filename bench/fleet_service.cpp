// Fleet workload for the estimation service: replays thousands of
// mixed estimation jobs (population sizes × (ε, δ) requirements ×
// protocols) through EstimationService and reports what a back-end
// fleet would ask of it — throughput, p50/p95/p99 latency, queue
// waits, planner-cache hit rate and the aggregated engine counters.
//
// The workload runs twice, with and without the shared Theorem-4
// planner cache, verifies the two passes are bit-identical job for job
// (caching must never change an estimate), and writes the whole record
// as machine-readable JSON to BENCH_service.json.
//
//   $ fleet_service [--jobs=2000] [--workers=0] [--queue=256]
//                   [--attempts=2] [--seed=...] [--exact] [--csv]
//                   [--shards=N]
//
// --shards=N splits every job's frame pipeline over N shards (N = 0
// picks the host default; omitted, one shard); estimates are unchanged
// by construction — the pipeline is a pure function of the job seed for
// any shard count.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/planner.hpp"
#include "service/service.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"

using namespace bfce;

namespace {

struct FleetOutcome {
  std::vector<service::JobResult> results;
  service::ServiceMetrics metrics;
  double wall_s = 0.0;
  /// Crash image cut after the drain (every job terminal) plus how long
  /// the cut itself took — the snapshot/restore latency stage reuses it
  /// instead of executing a third pass.
  service::ServiceSnapshot snapshot;
  double snapshot_cut_s = 0.0;
};

/// The mixed workload: job i is a pure function of (seed, i), so both
/// passes and any two runs with the same flags submit identical specs.
std::vector<service::JobSpec> build_workload(
    bench::PopulationCache& pops, std::size_t jobs, std::uint64_t seed,
    std::uint32_t attempts) {
  static const std::size_t kSizes[] = {5000, 50000, 200000, 1000000};
  static const estimators::Requirement kReqs[] = {
      {0.05, 0.05}, {0.03, 0.05}, {0.1, 0.1}, {0.02, 0.01}};

  std::vector<service::JobSpec> specs;
  specs.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    service::JobSpec spec;
    spec.population =
        &pops.get(kSizes[i % 4], rfid::TagIdDistribution::kT1Uniform);
    spec.estimator = (i % 8 == 7) ? "ZOE" : "BFCE";
    spec.req = kReqs[(i / 4) % 4];
    spec.seed = util::SeedMixer(seed).absorb(std::uint64_t{i}).value();
    spec.max_attempts = attempts;
    specs.push_back(spec);
  }
  return specs;
}

FleetOutcome run_fleet(const std::vector<service::JobSpec>& specs,
                       const service::ServiceConfig& cfg) {
  FleetOutcome out;
  const auto t0 = std::chrono::steady_clock::now();
  service::EstimationService svc(cfg);
  std::vector<service::JobId> ids;
  ids.reserve(specs.size());
  for (const service::JobSpec& spec : specs) ids.push_back(svc.submit(spec));
  svc.drain();
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  out.results.reserve(ids.size());
  for (const service::JobId id : ids) out.results.push_back(svc.wait(id));
  out.metrics = svc.metrics();
  const auto s0 = std::chrono::steady_clock::now();
  out.snapshot = svc.snapshot();
  out.snapshot_cut_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - s0)
                           .count();
  return out;
}

/// Keeps the optimizer from eliding a measured planner call.
inline void benchmark_guard(const core::PersistenceChoice& c) {
  asm volatile("" : : "g"(&c) : "memory");
}

/// ns per call of `body` over enough repetitions to be stable.
template <typename F>
double ns_per_call(F&& body) {
  using clock = std::chrono::steady_clock;
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = clock::now();
    for (std::size_t i = 0; i < reps; ++i) body();
    const double s =
        std::chrono::duration<double>(clock::now() - t0).count();
    if (s > 0.05) return s * 1e9 / static_cast<double>(reps);
    reps *= 4;
  }
}

bool bit_identical(const std::vector<service::JobResult>& a,
                   const std::vector<service::JobResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].status != b[i].status || a[i].attempts != b[i].attempts ||
        a[i].outcome.n_hat != b[i].outcome.n_hat ||
        a[i].outcome.ci_low != b[i].outcome.ci_low ||
        a[i].outcome.ci_high != b[i].outcome.ci_high ||
        a[i].airtime_s != b[i].airtime_s) {
      std::fprintf(stderr, "job %zu diverged between passes\n", i);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv,
                      {"jobs", "workers", "queue", "attempts", "seed",
                       "exact", "csv", "shards"});
  const auto jobs = static_cast<std::size_t>(cli.get_int("jobs", 2000));
  const auto workers = static_cast<unsigned>(cli.get_int("workers", 0));
  const auto queue =
      static_cast<std::size_t>(cli.get_int("queue", 256));
  const auto attempts =
      static_cast<std::uint32_t>(cli.get_int("attempts", 2));
  const std::int64_t shards =
      cli.get_int("shards", -1);  // -1 ⇒ one shard

  bench::PopulationCache pops(cli.seed());
  const auto specs = build_workload(pops, jobs, cli.seed(), attempts);

  service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = queue;
  cfg.mode = bench::mode_from(cli);
  if (shards >= 0) {
    cfg.engine_policy =
        rfid::ExecutionPolicy::sharded(static_cast<std::uint32_t>(shards));
  }

  // Pass 1: shared planner cache.
  core::PersistencePlanner planner;
  cfg.planner = &planner;
  std::printf("fleet pass 1/2: %zu jobs, planner cache ON...\n", jobs);
  const FleetOutcome cached = run_fleet(specs, cfg);

  // Pass 2: every job runs the full Theorem-4 search.
  cfg.planner = nullptr;
  std::printf("fleet pass 2/2: %zu jobs, planner cache OFF...\n", jobs);
  const FleetOutcome uncached = run_fleet(specs, cfg);

  const bool identical = bit_identical(cached.results, uncached.results);
  const service::ServiceMetrics& m = cached.metrics;
  const core::PlannerCacheStats planner_stats = planner.stats();

  util::Table table({"pass", "wall_s", "jobs_per_s", "p50_ms", "p95_ms",
                     "p99_ms", "hit_rate"});
  const auto row = [&](const char* label, const FleetOutcome& f,
                       double hit_rate) {
    table.add_row({label, util::Table::num(f.wall_s),
                   util::Table::num(static_cast<double>(jobs) / f.wall_s),
                   util::Table::num(f.metrics.latency.p50_s * 1e3),
                   util::Table::num(f.metrics.latency.p95_s * 1e3),
                   util::Table::num(f.metrics.latency.p99_s * 1e3),
                   util::Table::num(hit_rate)});
  };
  row("cache_on", cached, planner_stats.hit_rate());
  row("cache_off", uncached, 0.0);
  bench::emit(cli, "fleet_service: mixed workload, cache on vs off", table);

  std::printf("%s\n", service::render_service_metrics(m).c_str());
  std::printf("cached results bit-identical to uncached: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("planner-search wall saved: %.2fx end-to-end\n",
              uncached.wall_s / cached.wall_s);

  // ---- Planner hot path, isolated ----------------------------------
  // Typical keys early-exit the Theorem-4 scan after a few candidates;
  // the worst case (no satisfying p, e.g. a tiny n̂_low under a tight
  // requirement) walks all 1023. The cache flattens both to one lookup.
  core::PersistencePlanner micro;
  micro.choose(250000.0, 8192, 3, 0.05, 0.05);  // warm the key
  const double hit_ns = ns_per_call([&] {
    benchmark_guard(micro.choose(250000.0, 8192, 3, 0.05, 0.05));
  });
  const double typical_ns = ns_per_call([&] {
    benchmark_guard(
        core::PersistencePlanner::search(250000.0, 8192, 3, 0.05, 0.05));
  });
  const double worst_ns = ns_per_call([&] {
    benchmark_guard(
        core::PersistencePlanner::search(50.0, 8192, 3, 0.01, 0.01));
  });
  std::printf(
      "planner hot path: cache hit %.0f ns, search %.0f ns (typical) / "
      "%.0f ns (full 1023-candidate scan) per choice\n",
      hit_ns, typical_ns, worst_ns);

  // ---- Snapshot/restore latency ------------------------------------
  // The cached pass's crash image carries every terminal result plus
  // the warm planner cache. Measure the full recovery path on it:
  // encode, crash-atomic save (includes the fsyncs), load+decode, and
  // restore-by-reaccounting into a fresh service.
  using clock = std::chrono::steady_clock;
  const auto seconds_since = [](clock::time_point t0) {
    return std::chrono::duration<double>(clock::now() - t0).count();
  };
  const auto e0 = clock::now();
  const std::vector<std::uint8_t> image =
      service::encode_snapshot(cached.snapshot);
  const double encode_s = seconds_since(e0);

  const char* snap_path = "fleet_service.snapshot";
  const auto w0 = clock::now();
  const auto save_err = service::save_snapshot(cached.snapshot, snap_path);
  const double save_s = seconds_since(w0);

  service::ServiceSnapshot loaded;
  const auto l0 = clock::now();
  const auto load_err = service::load_snapshot(snap_path, loaded);
  const double load_s = seconds_since(l0);
  std::remove(snap_path);

  double restore_s = 0.0;
  bool restore_ok = false;
  if (save_err == service::SnapshotError::kNone &&
      load_err == service::SnapshotError::kNone) {
    core::PersistencePlanner restored_planner;
    service::ServiceConfig restore_cfg = cfg;
    restore_cfg.planner = &restored_planner;
    service::EstimationService restored(restore_cfg);
    const auto r0 = clock::now();
    restore_ok = restored.restore(loaded) == service::SnapshotError::kNone;
    restore_s = seconds_since(r0);
    restore_ok = restore_ok &&
                 restored.metrics().completed == cached.results.size() &&
                 restored_planner.stats().entries ==
                     planner_stats.entries;
  }
  std::printf(
      "snapshot: %zu results, %zu planner keys, %zu bytes; cut %.2f ms, "
      "encode %.2f ms, save %.2f ms, load %.2f ms, restore %.2f ms (%s)\n",
      cached.snapshot.completed.size(),
      cached.snapshot.planner.entries.size(), image.size(),
      cached.snapshot_cut_s * 1e3, encode_s * 1e3, save_s * 1e3,
      load_s * 1e3, restore_s * 1e3,
      restore_ok ? "restored state verified" : "RESTORE FAILED");

  // ---- Executor dispatch overhead ----------------------------------
  // Pool-cold vs pool-warm fan-out latency: the cold number is what
  // every sharded frame walk paid per call before the persistent
  // executor; the warm number is what a dispatch costs now that the
  // workers stay parked between calls.
  const bench::PoolLatency pool = bench::measure_pool_latency();
  std::printf(
      "executor dispatch (%u lanes): pool-cold %.3f ms, pool-warm "
      "%.3f ms (%.0fx reuse win)\n",
      pool.lanes, pool.cold_ms, pool.warm_ms,
      pool.warm_ms > 0.0 ? pool.cold_ms / pool.warm_ms : 0.0);

  // ---- BENCH_service.json ------------------------------------------
  std::string json = "{\n  \"bench\": \"fleet_service\",\n";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "  \"jobs\": %zu,\n  \"workers\": %u,\n"
                "  \"queue_capacity\": %zu,\n  \"attempts\": %u,\n"
                "  \"mode\": \"%s\",\n  \"shards\": %lld,\n"
                "  \"seed\": %llu,\n",
                jobs, m.workers, queue, attempts,
                cfg.mode == rfid::FrameMode::kExact ? "exact" : "sampled",
                static_cast<long long>(shards),
                static_cast<unsigned long long>(cli.seed()));
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"wall_s\": %.6f,\n  \"throughput_jobs_per_s\": %.3f,\n"
                "  \"uncached_wall_s\": %.6f,\n  \"cache_speedup\": %.4f,\n"
                "  \"cached_matches_uncached\": %s,\n",
                cached.wall_s, static_cast<double>(jobs) / cached.wall_s,
                uncached.wall_s, uncached.wall_s / cached.wall_s,
                identical ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"planner_ns\": {\"cache_hit\": %.1f, "
                "\"search_typical\": %.1f, \"search_full_scan\": %.1f},\n",
                hit_ns, typical_ns, worst_ns);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"snapshot\": {\"results\": %zu, \"planner_keys\": %zu, "
                "\"bytes\": %zu, \"cut_ms\": %.3f, \"encode_ms\": %.3f, "
                "\"save_ms\": %.3f, \"load_ms\": %.3f, \"restore_ms\": %.3f, "
                "\"restore_verified\": %s},\n",
                cached.snapshot.completed.size(),
                cached.snapshot.planner.entries.size(), image.size(),
                cached.snapshot_cut_s * 1e3, encode_s * 1e3, save_s * 1e3,
                load_s * 1e3, restore_s * 1e3,
                restore_ok ? "true" : "false");
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"executor\": {\"lanes\": %u, \"cold_dispatch_ms\": %.4f, "
                "\"warm_dispatch_ms\": %.4f},\n",
                pool.lanes, pool.cold_ms, pool.warm_ms);
  json += buf;
  json += "  \"metrics\": ";
  std::string metrics_json = service::service_metrics_json(m);
  while (!metrics_json.empty() && metrics_json.back() == '\n') {
    metrics_json.pop_back();
  }
  json += metrics_json;
  json += "\n}\n";

  const char* path = "BENCH_service.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return 1;
  }
  return (identical && restore_ok) ? 0 : 1;
}
