#include "trace.hpp"

#include <cstdio>
#include <optional>

#include "core/bfce.hpp"
#include "core/planner.hpp"
#include "estimators/zoe.hpp"
#include "rfid/frame_engine.hpp"
#include "rfid/reader.hpp"
#include "service/snapshot.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/serial.hpp"

namespace perfbench {

namespace core = bfce::core;
namespace estimators = bfce::estimators;
namespace rfid = bfce::rfid;
namespace service = bfce::service;
namespace util = bfce::util;

int Tracer::open(const char* name, std::uint64_t job) {
  Span s;
  s.name = name;
  s.job = job;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_us = now_us();
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  stack_.pop_back();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

std::map<std::string, double> Tracer::self_us() const {
  // Children of one span run one after another on this thread, so the
  // part of a span they cover is the sum of their durations.
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] += spans_[i].end_us - spans_[i].start_us - child_us[i];
  }
  return self;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                 "\"parent\": %d, \"job\": %llu}%s\n",
                 s.name, s.start_us, s.end_us, s.parent,
                 static_cast<unsigned long long>(s.job),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

namespace {

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// Replays one job. `stats` is null for the runs whose numbers are not
/// kept.
void replay_job(const ReplayJob& job, const service::ServiceConfig& cfg,
                Tracer& tracer, ReplayStats* stats) {
  const auto root = tracer.span("job", job.id);
  service::JobSpec spec = job.spec;
  std::shared_ptr<const rfid::TagPopulation> owned;
  if (job.portable != nullptr) {
    service::PortableJobSpec decoded;
    {
      const auto s = tracer.span("service.portable.codec", job.id);
      util::ByteWriter w;
      service::encode_portable_job(w, *job.portable);
      util::ByteReader r(w.bytes());
      decoded = service::decode_portable_job(r);
    }
    const auto s = tracer.span("service.portable.materialize", job.id);
    const auto t0 = Clock::now();
    std::optional<service::MaterializedJob> m = service::materialize(decoded);
    if (stats != nullptr) stats->materialize_ms.push_back(ms_since(t0));
    if (!m.has_value()) {
      if (stats != nullptr) ++stats->mismatches;
      return;
    }
    owned = m->population;
    spec = std::move(m->spec);
  }

  service::JobResult r;
  rfid::EngineCounters counters;
  const std::uint32_t budget = std::max<std::uint32_t>(1, spec.max_attempts);
  for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
    std::optional<rfid::ReaderContext> ctx;
    {
      const auto s = tracer.span("rfid.reader_context", job.id);
      ctx.emplace(*spec.population, util::derive_seed(spec.seed, attempt),
                  cfg.mode, cfg.channel, cfg.timing, cfg.engine_policy);
    }
    const auto t0 = Clock::now();
    if (spec.estimator == "BFCE") {
      core::BfceTrace trace;
      {
        const auto s = tracer.span("core.bfce.estimate", job.id);
        r.outcome = core::BfceEstimator().estimate_traced(*ctx, spec.req, trace);
      }
      if (stats != nullptr) {
        stats->bfce_ms.push_back(ms_since(t0));
        stats->bfce_probe_iterations.push_back(trace.probe_iterations);
        stats->bfce_frames.push_back(static_cast<double>(
            ctx->engine().counters().total().frames));
        stats->n_low.emplace_back(trace.n_low, spec.req);
        stats->p_o.emplace_back(spec.population->size(), trace.p_choice.p);
      }
    } else {
      {
        const auto s = tracer.span("estimators.zoe.estimate", job.id);
        r.outcome = estimators::ZoeEstimator().estimate(*ctx, spec.req);
      }
      if (stats != nullptr) {
        stats->zoe_ms.push_back(ms_since(t0));
        stats->zoe_frames.push_back(static_cast<double>(
            ctx->engine().counters().total().frames));
      }
    }
    counters += ctx->engine().counters();
    r.attempts = attempt + 1;
    r.airtime_s = r.outcome.airtime.total_seconds(cfg.timing);
    if (r.outcome.met_by_design && r.airtime_s <= spec.airtime_budget_s) break;
  }
  r.counters = counters;
  {
    const auto s = tracer.span("service.result.codec", job.id);
    util::ByteWriter w;
    service::encode_job_result(w, r);
    util::ByteReader rd(w.bytes());
    service::JobResult back;
    service::decode_job_result(rd, back);
  }
  if (stats != nullptr) {
    const rfid::ShapeCounters total = counters.total();
    stats->slots.push_back(static_cast<double>(total.slots));
    stats->tag_tx.push_back(static_cast<double>(total.tag_tx));
    if (r.outcome.n_hat != job.expected.outcome.n_hat ||
        r.attempts != job.expected.attempts ||
        r.airtime_s != job.expected.airtime_s) {
      ++stats->mismatches;
    }
  }
}

/// Median over `batches` of the time per call of `body`, ns, where each
/// batch runs `calls` calls.
template <typename F>
double ns_per_call(int batches, int calls, F&& body) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) body();
    ns.push_back(seconds_since(t0) * 1e9 / calls);
  }
  return median(std::move(ns));
}

rfid::BloomFrameConfig bloom_at(double p, util::Xoshiro256ss& rng) {
  rfid::BloomFrameConfig bloom;
  bloom.w = 8192;
  bloom.k = 3;
  bloom.set_p_numerator(static_cast<std::uint32_t>(p * 1024.0 + 0.5));
  for (auto& s : bloom.seeds) s = rng();
  return bloom;
}

}  // namespace

ReplayStats replay_jobs(const std::vector<ReplayJob>& jobs,
                        const service::ServiceConfig& cfg, Tracer& tracer) {
  ReplayStats stats;
  Tracer off(false);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (int side = 0; side < 2; ++side) {
        const bool traced = (side + pass + j) % 2 == 0;
        const std::size_t first_span = tracer.spans().size();
        const auto t0 = Clock::now();
        replay_job(jobs[j], cfg, traced ? tracer : off,
                   traced && pass == 0 ? &stats : nullptr);
        (traced ? stats.traced_wall_s : stats.untraced_wall_s) += seconds_since(t0);
        if (traced) stats.job_us.push_back(tracer.spans()[first_span].end_us -
                                           tracer.spans()[first_span].start_us);
      }
    }
  }
  return stats;
}

double population_build_ns_per_tag(const std::vector<std::size_t>& sizes,
                                   std::uint64_t seed) {
  std::size_t tags = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const rfid::TagPopulation pop = rfid::make_population(
        sizes[i], rfid::TagIdDistribution::kT1Uniform,
        util::SeedMixer(seed).absorb(std::string_view("build")).absorb(std::uint64_t{i}).value());
    tags += pop.size();
  }
  return tags == 0 ? 0.0 : seconds_since(t0) * 1e9 / static_cast<double>(tags);
}

void LayerMetrics::emit(Report& report) const {
  report.metric("service.portable.materialize_p50_ms", materialize_p50_ms, "ms");
  report.metric("service.portable.materialize_p99_ms", materialize_p99_ms, "ms");
  report.metric("rfid.population.build_ns_per_tag", population_build_ns_per_tag, "ns");
  report.metric("service.wire.connect_us", wire_connect_us, "us");
  report.metric("service.wire.overhead_p50_ms", wire_overhead_p50_ms, "ms");
  report.metric("service.wire.overhead_p99_ms", wire_overhead_p99_ms, "ms");
  report.metric("service.wire.request_bytes", wire_request_bytes, "bytes");
  report.metric("service.wire.reply_bytes", wire_reply_bytes, "bytes");
  report.metric("service.wire.metrics_frame_ms", wire_metrics_frame_ms, "ms");
  report.metric("service.queue_wait_p50_ms", queue_wait_p50_ms, "ms");
  report.metric("service.queue_wait_p99_ms", queue_wait_p99_ms, "ms");
  report.metric("service.exec_p50_ms", exec_p50_ms, "ms");
  report.metric("service.exec_p99_ms", exec_p99_ms, "ms");
  report.metric("service.attempts_per_job", attempts_per_job, "count");
  report.metric("core.bfce.estimate_p50_ms", bfce_estimate_p50_ms, "ms");
  report.metric("core.bfce.estimate_p99_ms", bfce_estimate_p99_ms, "ms");
  report.metric("core.bfce.probe_iterations", bfce_probe_iterations, "count");
  report.metric("core.bfce.frames_per_job", bfce_frames_per_job, "count");
  report.metric("rfid.frame_engine.bloom_exact_ns_per_tag", bloom_exact_ns_per_tag, "ns");
  report.metric("estimators.zoe.estimate_p50_ms", zoe_estimate_p50_ms, "ms");
  report.metric("estimators.zoe.frames_per_job", zoe_frames_per_job, "count");
  report.metric("rfid.frame_engine.single_slot_sampled_ns_per_frame",
                single_slot_sampled_ns_per_frame, "ns");
  report.metric("rfid.frame_engine.bloom_sampled_us_per_frame",
                bloom_sampled_us_per_frame, "us");
  report.metric("rfid.frame_engine.slots_per_job", slots_per_job, "count");
  report.metric("rfid.frame_engine.tag_tx_per_job", tag_tx_per_job, "count");
  report.metric("core.planner.search_p50_us", planner_search_p50_us, "us");
  report.metric("core.planner.search_p99_us", planner_search_p99_us, "us");
  report.metric("core.planner.met_ratio", planner_met_ratio, "ratio");
  report.metric("service.metrics_call_ms", metrics_call_ms, "ms");
  report.metric("service.snapshot.cut_ms", snapshot_cut_ms, "ms");
  report.metric("service.snapshot.encode_ms", snapshot_encode_ms, "ms");
  report.metric("service.snapshot.save_ms", snapshot_save_ms, "ms");
  report.metric("service.snapshot.load_ms", snapshot_load_ms, "ms");
  report.metric("service.snapshot.bytes_per_job", snapshot_bytes_per_job, "bytes");
  report.metric("util.executor.warm_dispatch_us", executor_warm_dispatch_us, "us");
  report.metric("bench.generator_late_p99_ms", generator_late_p99_ms, "ms");
  report.metric("bench.open_loop_p50_ms", open_loop_p50_ms, "ms");
  report.metric("bench.open_loop_p99_ms", open_loop_p99_ms, "ms");
  report.metric("bench.trace_overhead_pct", trace_overhead_pct, "%");
  report.metric("bench.trace_unattributed_pct", trace_unattributed_pct, "%");
}

void fill_common_layers(const std::vector<JobRecord>& records,
                        const std::vector<ReplayJob>& replay,
                        const service::ServiceConfig& cfg,
                        const rfid::TagPopulation& frame_pop,
                        const RecoveryTiming& recovery, double metrics_ms,
                        const std::string& trace_path, std::uint64_t seed,
                        LayerMetrics& layers, Report& report) {
  std::vector<double> queue_ms, exec_ms, attempts;
  for (const JobRecord& r : records) {
    queue_ms.push_back(r.result.queue_wait_s * 1e3);
    exec_ms.push_back(r.result.exec_s * 1e3);
    attempts.push_back(r.result.attempts);
  }
  layers.queue_wait_p50_ms = median(queue_ms);
  layers.queue_wait_p99_ms = quantile(queue_ms, 0.99);
  layers.exec_p50_ms = median(exec_ms);
  layers.exec_p99_ms = quantile(exec_ms, 0.99);
  layers.attempts_per_job = mean(attempts);

  Tracer tracer(true);
  const ReplayStats stats = replay_jobs(replay, cfg, tracer);
  if (stats.mismatches != 0) {
    report.problem(std::to_string(stats.mismatches) +
                   " replayed job(s) differ from the service's result");
  }
  if (!stats.materialize_ms.empty()) {
    layers.materialize_p50_ms = median(stats.materialize_ms);
    layers.materialize_p99_ms = quantile(stats.materialize_ms, 0.99);
  }
  layers.bfce_estimate_p50_ms = median(stats.bfce_ms);
  layers.bfce_estimate_p99_ms = quantile(stats.bfce_ms, 0.99);
  layers.bfce_probe_iterations = mean(stats.bfce_probe_iterations);
  layers.bfce_frames_per_job = mean(stats.bfce_frames);
  layers.zoe_estimate_p50_ms = median(stats.zoe_ms);
  layers.zoe_frames_per_job = mean(stats.zoe_frames);
  layers.slots_per_job = mean(stats.slots);
  layers.tag_tx_per_job = mean(stats.tag_tx);
  layers.trace_overhead_pct =
      stats.untraced_wall_s > 0.0
          ? (stats.traced_wall_s / stats.untraced_wall_s - 1.0) * 100.0
          : 0.0;

  const std::map<std::string, double> self = tracer.self_us();
  double job_total_us = 0.0;
  for (const double us : stats.job_us) job_total_us += us;
  const auto root = self.find("job");
  layers.trace_unattributed_pct =
      job_total_us > 0.0 && root != self.end()
          ? root->second / job_total_us * 100.0
          : 0.0;
  if (layers.trace_unattributed_pct > 5.0) {
    report.problem("named layers cover less than 95% of the traced job time");
  }
  if (!tracer.write_json(trace_path)) {
    report.problem("could not write the span file " + trace_path);
  }

  // Engine, planner and executor costs at the replay's operating points.
  // The p_o BFCE chose on the population the frames below run over.
  std::vector<double> p_frame_pop;
  for (const auto& [n, p] : stats.p_o) {
    if (n == frame_pop.size()) p_frame_pop.push_back(p);
  }
  const double p_o = p_frame_pop.empty() ? 0.5 : median(p_frame_pop);
  util::Xoshiro256ss rng(util::SeedMixer(seed).absorb(std::string_view("layers")).value());
  {
    rfid::FrameEngine exact(frame_pop, rfid::Channel(cfg.channel),
                            rfid::FrameMode::kExact);
    const rfid::FrameRequest frame = rfid::FrameRequest::bloom(bloom_at(p_o, rng));
    layers.bloom_exact_ns_per_tag =
        ns_per_call(5, 2, [&] { exact.execute(frame, rng); }) /
        static_cast<double>(frame_pop.size());
  }
  {
    rfid::FrameEngine sampled(frame_pop, rfid::Channel(cfg.channel),
                              rfid::FrameMode::kSampled);
    const rfid::FrameRequest bloom = rfid::FrameRequest::bloom(bloom_at(p_o, rng));
    layers.bloom_sampled_us_per_frame =
        ns_per_call(5, 40, [&] { sampled.execute(bloom, rng); }) / 1e3;
    const rfid::FrameRequest single = rfid::FrameRequest::single_slot(
        1.594 / static_cast<double>(frame_pop.size()), rng());
    layers.single_slot_sampled_ns_per_frame =
        ns_per_call(5, 20000, [&] { sampled.execute(single, rng); });
  }
  {
    std::vector<double> us;
    std::size_t met = 0;
    for (const auto& [n_low, req] : stats.n_low) {
      core::PersistenceChoice choice;
      us.push_back(ns_per_call(1, 20, [&] {
                     choice = core::PersistencePlanner::search(
                         n_low, 8192, 3, req.epsilon, req.delta);
                   }) /
                   1e3);
      met += choice.satisfies ? 1 : 0;
    }
    layers.planner_search_p50_us = median(us);
    layers.planner_search_p99_us = quantile(us, 0.99);
    layers.planner_met_ratio =
        us.empty() ? 0.0 : static_cast<double>(met) / static_cast<double>(us.size());
  }
  {
    const std::size_t lanes = util::default_thread_count();
    const auto noop = [](std::size_t) {};
    util::parallel_for(0, lanes, noop);  // wakes the pool
    layers.executor_warm_dispatch_us =
        ns_per_call(5, 200, [&] { util::parallel_for(0, lanes, noop); }) / 1e3;
  }

  layers.metrics_call_ms = metrics_ms;
  layers.snapshot_cut_ms = recovery.cut_ms;
  layers.snapshot_encode_ms = recovery.encode_ms;
  layers.snapshot_save_ms = recovery.save_ms;
  layers.snapshot_load_ms = recovery.load_ms;
  layers.snapshot_bytes_per_job =
      recovery.jobs == 0 ? 0.0
                         : static_cast<double>(recovery.bytes) /
                               static_cast<double>(recovery.jobs);
}

}  // namespace perfbench
