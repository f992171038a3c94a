// wire_fleet: the production path. Portable BFCE (7/8) and ZOE (1/8) jobs
// go through the AF_UNIX front door over a fixed set of reader
// populations of 10³–10⁵ tags; a quarter of the jobs describe their
// population as a membership bitmap, so the codec moves real bytes. Each
// round starts a fresh service and server (a portable job's population
// stays resident until its service ends, so a round bounds that memory),
// runs a closed-loop capacity phase and then an open-loop Poisson phase
// at half that round's capacity, with one connection per request
// and at most nproc client threads. The end-to-end latency is the closed
// loop's round trip. Open-loop latency, timed from each request's due
// time so a stall also delays the requests queued behind it, is reported
// by the traced run: each open-loop request starts from idle threads, so
// its figures follow how the host schedules a VM's vCPUs; on the 4-vCPU
// reference VM they spread 24–69% over ten runs of the same code
// (README.md).

#include <atomic>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string_view>
#include <thread>

#include "service/snapshot.hpp"
#include "service/wire.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace estimators = bfce::estimators;
namespace service = bfce::service;
namespace util = bfce::util;

constexpr std::string_view kName = "wire_fleet";
const char* const kSocket = "wire_fleet.sock";
const char* const kSnapshot = "wire_fleet.snapshot";

constexpr std::size_t kBlock = 16;
constexpr std::size_t kCapacityJobs = 20 * kBlock;
constexpr std::size_t kOpenJobs = 30 * kBlock;
constexpr int kMetricsFrames = 50;
constexpr std::size_t kDeterminismSample = 8;
constexpr std::size_t kReplaySample = 3 * kBlock;

struct Reader {
  service::PortablePopulation pop;
  double n_true = 0.0;
};

/// Reader populations: synthetic 10³, 10⁴, 10⁵ tags, then membership
/// bitmaps at density ¼ over universes of 4·10³, 4·10⁴, 2·10⁵ ids.
std::vector<Reader> make_readers(std::uint64_t seed) {
  struct Shape {
    bool membership;
    std::uint64_t tags;
  };
  const Shape shapes[] = {{false, 1000}, {false, 10000}, {false, 100000},
                          {true, 1000},  {true, 10000},  {true, 50000}};
  std::vector<Reader> readers;
  for (std::uint64_t r = 0; r < std::size(shapes); ++r) {
    const std::uint64_t pop_seed = util::SeedMixer(seed)
                                       .absorb(kName)
                                       .absorb(std::string_view("reader"))
                                       .absorb(r)
                                       .value();
    Reader reader;
    reader.pop.seed = pop_seed;
    if (shapes[r].membership) {
      reader.pop.kind = service::PortablePopulation::Kind::kMembership;
      const std::size_t universe = static_cast<std::size_t>(4 * shapes[r].tags);
      reader.pop.membership = util::BitVector(universe);
      util::Xoshiro256ss rng(
          util::SeedMixer(pop_seed).absorb(std::string_view("bits")).value());
      for (std::size_t i = 0; i < universe; ++i) {
        if (rng.uniform() < 0.25) reader.pop.membership.set(i);
      }
    } else {
      reader.pop.kind = service::PortablePopulation::Kind::kSynthetic;
      reader.pop.size = shapes[r].tags;
    }
    reader.n_true = static_cast<double>(true_cardinality(reader.pop));
    readers.push_back(std::move(reader));
  }
  return readers;
}

struct JobTemplate {
  std::size_t reader;
  const char* estimator;
  estimators::Requirement req;
};

constexpr estimators::Requirement kR0{0.05, 0.05}, kR1{0.03, 0.05},
    kR2{0.1, 0.1}, kR3{0.02, 0.01};

// One block of 16 jobs, by latency class: 10³-tag readers (synthetic ×2,
// membership ×2, ZOE ×1) and the ~10⁴-tag membership reader make up 37.5%;
// BFCE on the synthetic 10⁴-tag reader 37.5%, so the p50 falls inside
// that class; the 5·10⁴-tag membership reader and ZOE on 10⁴ tags 12.5%;
// the synthetic 10⁵-tag reader, whose materialization dominates, the last
// 12.5%, so the p99 falls inside it. Four jobs in 16 carry a bitmap.
constexpr JobTemplate kTemplates[kBlock] = {
    {1, "BFCE", kR0}, {0, "BFCE", kR1}, {1, "BFCE", kR2}, {3, "BFCE", kR3},
    {1, "BFCE", kR1}, {2, "BFCE", kR0}, {4, "BFCE", kR2}, {0, "ZOE", kR2},
    {1, "BFCE", kR3}, {3, "BFCE", kR0}, {1, "BFCE", kR2}, {5, "BFCE", kR1},
    {0, "BFCE", kR3}, {1, "BFCE", kR0}, {2, "BFCE", kR3}, {1, "ZOE", kR0},
};

struct Job {
  service::PortableJobSpec spec;
  std::size_t reader = 0;
};

std::vector<Job> make_jobs(const std::vector<Reader>& readers,
                           std::uint64_t seed, std::uint64_t round,
                           std::string_view phase, std::size_t count) {
  std::vector<Job> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    const JobTemplate& t = kTemplates[i % kBlock];
    jobs[i].reader = t.reader;
    service::PortableJobSpec& spec = jobs[i].spec;
    spec.estimator = t.estimator;
    spec.req = t.req;
    spec.seed = util::SeedMixer(seed)
                    .absorb(kName)
                    .absorb(phase)
                    .absorb(round)
                    .absorb(std::uint64_t{i})
                    .value();
    spec.population = readers[t.reader].pop;
  }
  return jobs;
}

/// One request over its own connection.
struct Call {
  bool ok = false;
  double connect_us = 0.0;
  double round_trip_s = 0.0;
  service::JobResult result;
};

Call call(const service::PortableJobSpec& spec) {
  Call c;
  const auto t0 = Clock::now();
  std::optional<service::WireClient> client = service::WireClient::connect(kSocket);
  c.connect_us = seconds_since(t0) * 1e6;
  if (!client.has_value()) return c;
  std::optional<service::JobResult> result = client->submit(spec);
  c.round_trip_s = seconds_since(t0);
  if (!result.has_value()) return c;
  c.ok = true;
  c.result = std::move(*result);
  return c;
}

/// Sends every job from client_threads() threads; with `due` set, job i is
/// sent no earlier than start + due[i] (open loop), otherwise as soon as a
/// thread is free (closed loop).
struct Phase {
  std::vector<Call> calls;
  std::vector<double> late_s;     ///< open loop: send time − due time
  std::vector<double> latency_s;  ///< open loop: reply time − due time
};

Phase drive(const std::vector<Job>& jobs, const std::vector<double>* due,
            Clock::time_point start) {
  Phase phase;
  phase.calls.resize(jobs.size());
  phase.late_s.resize(jobs.size());
  phase.latency_s.resize(jobs.size());
  std::atomic<std::size_t> next{0};
  const auto client = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      Clock::time_point due_at = Clock::now();
      if (due != nullptr) {
        due_at = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>((*due)[i]));
        std::this_thread::sleep_until(due_at);
        phase.late_s[i] = seconds_since(due_at);
      }
      phase.calls[i] = call(jobs[i].spec);
      phase.latency_s[i] = seconds_since(due_at);
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < client_threads(); ++t) threads.emplace_back(client);
  for (std::thread& t : threads) t.join();
  return phase;
}

struct Round {
  std::vector<Job> jobs;  ///< capacity phase, then open-loop phase
  std::vector<Call> calls;
  std::vector<double> open_latency_s;
  std::vector<double> late_s;
  double capacity_s = 0.0;
  std::vector<double> metrics_frame_ms;
  std::vector<double> metrics_ms;  ///< metrics() calls during the open loop
  RecoveryTiming recovery;
  /// Heap in use at the round's end, service alive, minus that at its
  /// start: what the service (and the round's own records) hold.
  double service_heap_mb = 0.0;
};

/// Sends one request per reader through a fresh server.
void warm_up(const std::vector<Reader>& readers, std::uint64_t seed,
             Report& report) {
  service::EstimationService svc;
  service::WireConfig wc;
  wc.socket_path = kSocket;
  service::WireServer server(svc, wc);
  if (!server.running()) {
    report.problem("wire server did not start on " + std::string(kSocket));
    return;
  }
  for (std::size_t r = 0; r < readers.size(); ++r) {
    service::PortableJobSpec spec;
    spec.seed = util::SeedMixer(seed).absorb(kName).absorb(std::string_view("warm")).absorb(std::uint64_t{r}).value();
    spec.population = readers[r].pop;
    if (!call(spec).ok) report.problem("warm-up request failed");
  }
}

Round run_round(const std::vector<Reader>& readers, std::uint64_t seed,
                std::uint64_t index, Report& report) {
  Round round;
  const double heap_at_start = heap_in_use_mb();
  service::ServiceConfig cfg;
  cfg.mode = bfce::rfid::FrameMode::kSampled;
  service::EstimationService svc(cfg);
  service::WireConfig wc;
  wc.socket_path = kSocket;
  service::WireServer server(svc, wc);
  if (!server.running()) {
    report.problem("wire server did not start on " + std::string(kSocket));
    return round;
  }

  // Closed-loop capacity phase.
  round.jobs = make_jobs(readers, seed, index, "capacity", kCapacityJobs);
  const auto c0 = Clock::now();
  Phase capacity = drive(round.jobs, nullptr, c0);
  round.capacity_s = seconds_since(c0);
  // Half of this round's own capacity: a host that slows down between
  // rounds is then not driven into overload by a rate it cannot serve.
  const double open_rate = 0.5 * static_cast<double>(kCapacityJobs) / round.capacity_s;

  // Open-loop phase: seeded Poisson arrivals at the fixed rate.
  std::vector<Job> open_jobs = make_jobs(readers, seed, index, "open", kOpenJobs);
  std::vector<double> due(kOpenJobs);
  util::Xoshiro256ss arrivals(util::SeedMixer(seed)
                                  .absorb(kName)
                                  .absorb(std::string_view("arrivals"))
                                  .absorb(index)
                                  .value());
  double t = 0.0;
  for (double& d : due) {
    t += -std::log1p(-arrivals.uniform()) / open_rate;
    d = t;
  }
  Phase open;
  std::atomic<bool> open_done{false};
  std::thread open_loop_thread([&] {
    open = drive(open_jobs, &due, Clock::now());
    open_done = true;
  });
  // metrics() under load, every 10 ms while the open loop runs.
  while (!open_done) {
    const auto m0 = Clock::now();
    svc.metrics();
    round.metrics_ms.push_back(seconds_since(m0) * 1e3);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  open_loop_thread.join();
  round.open_latency_s = std::move(open.latency_s);
  round.late_s = std::move(open.late_s);

  round.calls = std::move(capacity.calls);
  round.calls.insert(round.calls.end(), open.calls.begin(), open.calls.end());
  round.jobs.insert(round.jobs.end(), open_jobs.begin(), open_jobs.end());

  for (int i = 0; i < kMetricsFrames; ++i) {
    const auto t0 = Clock::now();
    std::optional<service::WireClient> client = service::WireClient::connect(kSocket);
    const bool ok = client.has_value() && client->metrics_json().has_value();
    round.metrics_frame_ms.push_back(seconds_since(t0) * 1e3);
    ++report.attempted;
    if (!ok) ++report.failed;
  }

  // Determinism contract: a wire result equals an in-process run of the
  // same portable spec.
  service::EstimationService reference(cfg);
  // A stride one past a multiple of the block visits every template.
  const std::size_t stride = round.jobs.size() / kDeterminismSample + 1;
  for (std::size_t i = 0; i < round.jobs.size(); i += stride) {
    if (!round.calls[i].ok) continue;
    const service::JobResult local =
        reference.wait(reference.submit_portable(round.jobs[i].spec));
    if (!same_result(local, round.calls[i].result)) {
      report.problem("wire result differs from the in-process run of job " +
                     std::to_string(i));
    }
  }

  std::vector<std::pair<service::JobId, service::JobResult>> sample;
  for (std::size_t i = 0; i < round.calls.size(); i += stride) {
    if (round.calls[i].ok) sample.emplace_back(round.calls[i].result.id, round.calls[i].result);
  }
  round.recovery = snapshot_and_restore(svc, cfg, sample, kSnapshot, 50, report);
  round.service_heap_mb = heap_in_use_mb() - heap_at_start;
  return round;
}

/// Everything the rounds measured, pooled.
struct Totals {
  std::vector<JobRecord> records, closed_records;
  std::vector<double> closed_ms, open_ms, late_ms, frame_ms, metrics_ms,
      snapshot_mb, restore_ms, airtime, rel_error, connect_us, overhead_ms,
      request_bytes, reply_bytes, capacity, service_heap_mb;
};

/// Pools the rounds, counts their requests in `report` and checks the
/// outcomes.
Totals pool(const std::vector<Round>& rounds, const std::vector<Reader>& readers,
            Report& report) {
  Totals t;
  for (const Round& round : rounds) {
    t.capacity.push_back(static_cast<double>(kCapacityJobs) / round.capacity_s);
    t.service_heap_mb.push_back(round.service_heap_mb);
    for (std::size_t i = 0; i < round.calls.size(); ++i) {
      ++report.attempted;
      const Call& c = round.calls[i];
      if (!c.ok) {
        ++report.failed;
        continue;
      }
      const Job& job = round.jobs[i];
      t.records.push_back(make_record(job.spec.estimator, job.spec.req,
                                      readers[job.reader].n_true, c.result,
                                      c.round_trip_s));
      if (i < kCapacityJobs) {
        t.closed_records.push_back(t.records.back());
        t.closed_ms.push_back(c.round_trip_s * 1e3);
      }
      t.airtime.push_back(c.result.airtime_s);
      t.rel_error.push_back(c.result.outcome.relative_error(readers[job.reader].n_true));
      t.connect_us.push_back(c.connect_us);
      t.overhead_ms.push_back((c.round_trip_s - c.result.latency_s) * 1e3);
      util::ByteWriter req;
      req.u8(static_cast<std::uint8_t>(service::WireMsg::kSubmit));
      service::encode_portable_job(req, job.spec);
      t.request_bytes.push_back(static_cast<double>(4 + req.size()));
      util::ByteWriter rep;
      service::encode_job_result(rep, c.result);
      t.reply_bytes.push_back(static_cast<double>(4 + 1 + 8 + rep.size()));
    }
    for (const double v : round.open_latency_s) t.open_ms.push_back(v * 1e3);
    for (const double v : round.late_s) t.late_ms.push_back(v * 1e3);
    t.frame_ms.insert(t.frame_ms.end(), round.metrics_frame_ms.begin(),
                      round.metrics_frame_ms.end());
    t.metrics_ms.insert(t.metrics_ms.end(), round.metrics_ms.begin(),
                        round.metrics_ms.end());
    t.snapshot_mb.push_back(static_cast<double>(round.recovery.bytes) / (1024.0 * 1024.0));
    t.restore_ms.push_back(round.recovery.restore_ms);
  }
  check_records(t.records, report);
  print_class_position("wire_fleet", t.closed_records);
  return t;
}

/// The wire-only layer metrics, from pooled rounds.
void fill_wire_layers(const Totals& t, std::uint64_t seed, LayerMetrics& layers) {
  layers.population_build_ns_per_tag =
      population_build_ns_per_tag({1000, 10000, 100000}, seed);
  layers.wire_connect_us = median(t.connect_us);
  layers.wire_overhead_p50_ms = median(t.overhead_ms);
  layers.wire_overhead_p99_ms = quantile(t.overhead_ms, 0.99);
  layers.wire_request_bytes = mean(t.request_bytes);
  layers.wire_reply_bytes = mean(t.reply_bytes);
  layers.generator_late_p99_ms = quantile(t.late_ms, 0.99);
  layers.open_loop_p50_ms = median(t.open_ms);
  layers.open_loop_p99_ms = quantile(t.open_ms, 0.99);
  layers.wire_metrics_frame_ms = median(t.frame_ms);
}

}  // namespace

void run_wire_fleet(const Args& args, Report& report) {
  std::vector<Reader> readers;
  const double setup_s = median_setup_s(7, [&] {
    readers = make_readers(args.seed);
    warm_up(readers, args.seed, report);
  });

  // One unmeasured round first, so the process's heap has grown to what a
  // round needs before anything is timed (see main.cpp on the allocator).
  run_round(readers, args.seed, ~std::uint64_t{0}, report);

  std::vector<Round> rounds;
  const auto t0 = Clock::now();
  for (std::uint64_t index = 0;; ++index) {
    rounds.push_back(run_round(readers, args.seed, index, report));
    const double elapsed = seconds_since(t0);
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if (args.trace || elapsed + per_round > args.seconds) break;
  }
  const Totals t = pool(rounds, readers, report);

  if (!args.trace) {
    report.metric("setup_s", setup_s, "s");
    report.metric("throughput_jobs_per_s", median(t.capacity), "1/s");
    report.metric("latency_p50_ms", median(t.closed_ms), "ms");
    report.metric("latency_p99_ms", quantile(t.closed_ms, 0.99), "ms");
    report.metric("airtime_mean_s", mean(t.airtime), "s");
    report.metric("rel_error_mean", mean(t.rel_error), "ratio");
    report.metric("service_heap_mb", median(t.service_heap_mb), "MiB");
    report.metric("metrics_p50_ms", median(t.metrics_ms), "ms");
    report.metric("snapshot_mb", median(t.snapshot_mb), "MiB");
    report.metric("restore_ms", median(t.restore_ms), "ms");
    return;
  }

  const Round& round = rounds.front();
  std::vector<ReplayJob> replay;
  for (std::size_t i = 0; i < kReplaySample; ++i) {
    if (!round.calls[i].ok) continue;
    ReplayJob job;
    job.id = round.calls[i].result.id;
    job.portable = &round.jobs[i].spec;
    job.expected = round.calls[i].result;
    replay.push_back(std::move(job));
  }
  service::PortableJobSpec largest_spec;
  largest_spec.population = readers[2].pop;
  const auto largest = service::materialize(largest_spec);
  LayerMetrics layers;
  service::ServiceConfig cfg;
  cfg.mode = bfce::rfid::FrameMode::kSampled;
  fill_common_layers(t.records, replay, cfg, *largest->population, round.recovery,
                     median(round.metrics_ms), "wire_fleet.trace.json", args.seed,
                     layers, report);
  fill_wire_layers(t, args.seed, layers);
  layers.emit(report);
}

void measure_wire_layers(std::uint64_t seed, LayerMetrics& layers, Report& report) {
  const std::vector<Reader> readers = make_readers(seed);
  run_round(readers, seed, ~std::uint64_t{0}, report);  // warm-up
  const std::vector<Round> rounds{run_round(readers, seed, 0, report)};
  const Totals t = pool(rounds, readers, report);
  fill_wire_layers(t, seed, layers);
  std::vector<double> materialize_ms;
  for (std::size_t i = 0; i < kReplaySample; ++i) {
    const auto t0 = Clock::now();
    const auto job = service::materialize(rounds.front().jobs[i].spec);
    materialize_ms.push_back(seconds_since(t0) * 1e3);
    if (!job.has_value()) report.problem("materialize rejected a wire_fleet spec");
  }
  layers.materialize_p50_ms = median(materialize_ms);
  layers.materialize_p99_ms = quantile(materialize_ms, 0.99);
}

}  // namespace perfbench
