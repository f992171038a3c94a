// Tests for the estimation service: determinism across worker counts,
// planner-cache transparency, deadline/retry/cancellation semantics and
// bounded-queue backpressure.
#include "service/service.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rfid/population.hpp"
#include "service/portable.hpp"

namespace bfce::service {
namespace {

/// Manually opened gate; estimators block on it to pin a worker.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool open = false;

  void release() {
    {
      std::lock_guard lock(m);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return open; });
  }
};

/// Test double: returns a fixed estimate, optionally blocking on a gate
/// and optionally failing its design point for the first `fail_first`
/// constructions (the service builds one instance per attempt).
class StubEstimator final : public estimators::CardinalityEstimator {
 public:
  StubEstimator(std::shared_ptr<Gate> gate, bool met) : gate_(std::move(gate)), met_(met) {}

  std::string name() const override { return "stub"; }
  estimators::EstimateOutcome estimate(
      rfid::ReaderContext&, const estimators::Requirement&) override {
    if (gate_) gate_->wait();
    estimators::EstimateOutcome out;
    out.n_hat = 123.0;
    out.met_by_design = met_;
    if (!met_) out.note = "stub designed to fail";
    return out;
  }

 private:
  std::shared_ptr<Gate> gate_;
  bool met_;
};

EstimatorFactory failing_first_attempts(std::uint32_t fail_first) {
  auto built = std::make_shared<std::atomic<std::uint32_t>>(0);
  return [built, fail_first] {
    const std::uint32_t idx = built->fetch_add(1);
    return std::make_unique<StubEstimator>(nullptr, idx >= fail_first);
  };
}

const rfid::TagPopulation& small_pop() {
  static const auto pop =
      rfid::make_population(30000, rfid::TagIdDistribution::kT1Uniform, 11);
  return pop;
}

const rfid::TagPopulation& large_pop() {
  static const auto pop = rfid::make_population(
      400000, rfid::TagIdDistribution::kT2ApproxNormal, 12);
  return pop;
}

/// The mixed workload shared by the determinism/equivalence tests.
std::vector<JobSpec> mixed_jobs() {
  std::vector<JobSpec> specs;
  const estimators::Requirement reqs[] = {{0.05, 0.05}, {0.1, 0.1},
                                          {0.02, 0.05}};
  for (std::uint64_t i = 0; i < 24; ++i) {
    JobSpec spec;
    spec.population = (i % 2 == 0) ? &small_pop() : &large_pop();
    spec.estimator = (i % 5 == 4) ? "ZOE" : "BFCE";
    spec.req = reqs[i % 3];
    spec.seed = 1000 + i;
    spec.max_attempts = 2;
    specs.push_back(spec);
  }
  return specs;
}

std::vector<JobResult> run_all(EstimationService& svc,
                               const std::vector<JobSpec>& specs) {
  std::vector<JobId> ids;
  ids.reserve(specs.size());
  for (const JobSpec& spec : specs) ids.push_back(svc.submit(spec));
  std::vector<JobResult> results;
  results.reserve(ids.size());
  for (const JobId id : ids) results.push_back(svc.wait(id));
  return results;
}

void expect_same_results(const std::vector<JobResult>& a,
                         const std::vector<JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status) << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << i;
    EXPECT_DOUBLE_EQ(a[i].outcome.n_hat, b[i].outcome.n_hat) << i;
    EXPECT_DOUBLE_EQ(a[i].outcome.ci_low, b[i].outcome.ci_low) << i;
    EXPECT_DOUBLE_EQ(a[i].outcome.ci_high, b[i].outcome.ci_high) << i;
    EXPECT_DOUBLE_EQ(a[i].airtime_s, b[i].airtime_s) << i;
    EXPECT_EQ(a[i].outcome.met_by_design, b[i].outcome.met_by_design) << i;
  }
}

TEST(EstimationService, ResultsBitIdenticalAcrossWorkerCounts) {
  const auto specs = mixed_jobs();

  ServiceConfig one;
  one.workers = 1;
  EstimationService serial(one);
  const auto serial_results = run_all(serial, specs);

  ServiceConfig many;
  many.workers = 8;
  EstimationService parallel(many);
  const auto parallel_results = run_all(parallel, specs);

  expect_same_results(serial_results, parallel_results);
}

// The determinism regression the tooling PR locks in: the full worker-
// count × planner-cache matrix must reproduce one reference run bit for
// bit. This is the invariant the tsan preset and tools/lint_determinism.py
// exist to protect — if it ever breaks, suspect a nondeterminism source
// (wall clock, unseeded RNG, shared mutable state) smuggled into an
// estimator path.
TEST(EstimationService, DeterministicAcrossWorkerCountAndCacheMatrix) {
  const auto specs = mixed_jobs();

  ServiceConfig ref_cfg;
  ref_cfg.workers = 1;
  EstimationService reference(ref_cfg);
  const auto ref_results = run_all(reference, specs);

  for (const unsigned workers : {1u, 4u, 8u}) {
    for (const bool cached : {false, true}) {
      core::PersistencePlanner planner(
          core::PersistencePlanner::Options{.cache = cached});
      ServiceConfig cfg;
      cfg.workers = workers;
      cfg.planner = &planner;
      EstimationService svc(cfg);
      const auto results = run_all(svc, specs);
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " cache=" + (cached ? std::string("on") : "off"));
      expect_same_results(ref_results, results);
    }
  }
}

TEST(EstimationService, PlannerCacheOnVsOffIsEquivalent) {
  const auto specs = mixed_jobs();

  core::PersistencePlanner cache;
  ServiceConfig with;
  with.workers = 4;
  with.planner = &cache;
  EstimationService cached(with);
  const auto cached_results = run_all(cached, specs);

  ServiceConfig without;
  without.workers = 4;
  EstimationService uncached(without);
  const auto uncached_results = run_all(uncached, specs);

  expect_same_results(cached_results, uncached_results);

  // The fleet repeats (n̂_low, ε, δ) keys, so the cache must be warm.
  const core::PlannerCacheStats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  const ServiceMetrics m = cached.metrics();
  EXPECT_TRUE(m.planner_attached);
  EXPECT_EQ(m.planner.hits, stats.hits);
}

TEST(EstimationService, RetryRunsFreshAttemptsUntilSuccess) {
  ServiceConfig cfg;
  cfg.workers = 1;
  EstimationService svc(cfg);

  JobSpec spec;
  spec.population = &small_pop();
  spec.factory = failing_first_attempts(1);  // attempt 0 fails, 1 succeeds
  spec.max_attempts = 3;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kDone);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_TRUE(r.outcome.met_by_design);

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.retries, 1u);
  EXPECT_EQ(m.done, 1u);
}

TEST(EstimationService, ExhaustedRetriesStillDeliverTheEstimate) {
  ServiceConfig cfg;
  cfg.workers = 1;
  EstimationService svc(cfg);

  JobSpec spec;
  spec.population = &small_pop();
  spec.factory = failing_first_attempts(99);  // never succeeds
  spec.max_attempts = 3;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kDone);  // estimate delivered, flagged
  EXPECT_EQ(r.attempts, 3u);
  EXPECT_FALSE(r.outcome.met_by_design);
  EXPECT_EQ(svc.metrics().retries, 2u);
}

TEST(EstimationService, AirtimeBudgetMissesDeadlineDeterministically) {
  ServiceConfig cfg;
  cfg.workers = 2;
  EstimationService svc(cfg);

  JobSpec spec;
  spec.population = &small_pop();
  spec.estimator = "BFCE";
  spec.seed = 99;
  spec.airtime_budget_s = 1e-9;  // BFCE needs ~0.19 s — always over
  spec.max_attempts = 2;
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kDeadlineMissed);
  EXPECT_EQ(r.attempts, 2u);
  EXPECT_GT(r.airtime_s, spec.airtime_budget_s);

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.deadline_missed, 1u);
  EXPECT_EQ(m.retries, 1u);
}

TEST(EstimationService, WallDeadlineExpiresQueuedJobs) {
  ServiceConfig cfg;
  cfg.workers = 1;
  EstimationService svc(cfg);

  auto gate = std::make_shared<Gate>();
  JobSpec blocker;
  blocker.population = &small_pop();
  blocker.factory = [gate] {
    return std::make_unique<StubEstimator>(gate, true);
  };
  const JobId blocking = svc.submit(blocker);

  JobSpec doomed;
  doomed.population = &small_pop();
  doomed.deadline_s = 1e-6;  // expires long before the worker frees up
  const JobId late = svc.submit(doomed);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate->release();

  EXPECT_EQ(svc.wait(blocking).status, JobStatus::kDone);
  const JobResult r = svc.wait(late);
  EXPECT_EQ(r.status, JobStatus::kExpired);
  EXPECT_EQ(r.attempts, 0u);
  EXPECT_EQ(svc.metrics().expired, 1u);
}

TEST(EstimationService, BoundedQueueRejectsAndBlocks) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 1;
  EstimationService svc(cfg);

  auto gate = std::make_shared<Gate>();
  JobSpec gated;
  gated.population = &small_pop();
  gated.factory = [gate] {
    return std::make_unique<StubEstimator>(gate, true);
  };

  const JobId running = svc.submit(gated);  // occupies the worker
  // Give the worker a moment to dequeue it, then fill the queue.
  while (svc.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const JobId queued = svc.submit(gated);
  ASSERT_EQ(svc.queue_depth(), 1u);

  // Full queue: non-blocking admission bounces and is counted.
  EXPECT_FALSE(svc.try_submit(gated).has_value());
  EXPECT_EQ(svc.metrics().rejected, 1u);

  // Blocking admission parks until the worker frees a slot.
  std::atomic<bool> admitted{false};
  std::thread submitter([&] {
    svc.submit(gated);
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());

  gate->release();
  submitter.join();
  EXPECT_TRUE(admitted.load());
  svc.drain();
  EXPECT_EQ(svc.wait(running).status, JobStatus::kDone);
  EXPECT_EQ(svc.wait(queued).status, JobStatus::kDone);
  EXPECT_EQ(svc.metrics().done, 3u);
}

TEST(EstimationService, CancelWithdrawsQueuedButNotRunningJobs) {
  ServiceConfig cfg;
  cfg.workers = 1;
  EstimationService svc(cfg);

  auto gate = std::make_shared<Gate>();
  JobSpec gated;
  gated.population = &small_pop();
  gated.factory = [gate] {
    return std::make_unique<StubEstimator>(gate, true);
  };
  const JobId running = svc.submit(gated);
  while (svc.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  JobSpec plain;
  plain.population = &small_pop();
  const JobId queued = svc.submit(plain);

  EXPECT_TRUE(svc.cancel(queued));
  EXPECT_FALSE(svc.cancel(queued));   // already terminal
  EXPECT_FALSE(svc.cancel(running));  // running jobs are not torn down
  EXPECT_FALSE(svc.cancel(999999));   // unknown id

  gate->release();
  EXPECT_EQ(svc.wait(queued).status, JobStatus::kCancelled);
  EXPECT_EQ(svc.wait(running).status, JobStatus::kDone);
  EXPECT_EQ(svc.metrics().cancelled, 1u);
}

// A long-running service keeps results, not inputs: a portable job owns
// the population it materialized, and the job releases it on turning
// terminal — done, deadline-missed, expired or cancelled alike. Twenty
// finished 10^5-tag jobs must leave the heap less than one population
// above where it started. (mallinfo2 reads glibc's arenas; a sanitizer's
// allocator bypasses them, and the check then reads no growth.)
TEST(EstimationService, TerminalJobsReleaseTheirPopulations) {
  constexpr std::uint64_t kTags = 100000;
  const auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return static_cast<double>(info.uordblks + info.hblkhd);
  };
  EstimationService svc({.workers = 1});
  // Pin the worker so the queued jobs can be cancelled or expire.
  auto gate = std::make_shared<Gate>();
  JobSpec gated;
  gated.population = &small_pop();
  gated.factory = [gate] {
    return std::make_unique<StubEstimator>(gate, true);
  };
  const JobId pinned = svc.submit(gated);
  while (svc.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const double before = heap_bytes();
  std::vector<std::pair<JobId, JobStatus>> expected;
  for (std::uint64_t i = 0; i < 20; ++i) {
    PortableJobSpec spec;
    spec.req = {0.2, 0.2};
    spec.seed = i;
    spec.population.size = kTags;
    spec.population.seed = i;
    JobStatus status = JobStatus::kDone;
    if (i % 4 == 1) {
      spec.airtime_budget_s = 1e-9;
      status = JobStatus::kDeadlineMissed;
    } else if (i % 4 == 2) {
      spec.deadline_s = 1e-9;
      status = JobStatus::kExpired;
    }
    const JobId id = svc.submit_portable(spec);
    ASSERT_NE(id, kInvalidJob);
    if (i % 4 == 3) {
      ASSERT_TRUE(svc.cancel(id));
      status = JobStatus::kCancelled;
    }
    expected.emplace_back(id, status);
  }
  gate->release();
  svc.drain();
  EXPECT_EQ(svc.wait(pinned).status, JobStatus::kDone);
  for (const auto& [id, status] : expected) {
    EXPECT_EQ(svc.wait(id).status, status) << "job " << id;
  }
  const double grown = heap_bytes() - before;
  EXPECT_LT(grown, static_cast<double>(kTags * sizeof(rfid::Tag)))
      << "terminal jobs still hold " << grown << " heap bytes";
}

TEST(EstimationService, UnknownEstimatorFailsTheJob) {
  EstimationService svc({.workers = 1});
  JobSpec spec;
  spec.population = &small_pop();
  spec.estimator = "NOPE";
  const JobResult r = svc.wait(svc.submit(spec));
  EXPECT_EQ(r.status, JobStatus::kFailed);
  EXPECT_FALSE(r.outcome.note.empty());
  EXPECT_EQ(svc.metrics().failed, 1u);
}

TEST(EstimationService, MetricsSnapshotAndJsonAreConsistent) {
  core::PersistencePlanner cache;
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.planner = &cache;
  EstimationService svc(cfg);

  std::vector<JobId> ids;
  for (std::uint64_t i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.population = &small_pop();
    spec.seed = i;
    ids.push_back(svc.submit(spec));
  }
  svc.drain();

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.admitted, 12u);
  EXPECT_EQ(m.completed, 12u);
  EXPECT_EQ(m.done, 12u);
  EXPECT_EQ(m.queue_depth, 0u);
  EXPECT_EQ(m.latency.count, 12u);
  EXPECT_GT(m.latency.max_s, 0.0);
  EXPECT_GE(m.latency.p99_s, m.latency.p50_s);
  EXPECT_GT(m.throughput_jobs_per_s(), 0.0);
  EXPECT_GT(m.engine.total().frames, 0u);

  const std::string table = render_service_metrics(m);
  EXPECT_NE(table.find("admitted=12"), std::string::npos);
  EXPECT_NE(table.find("planner cache:"), std::string::npos);

  const std::string json = service_metrics_json(m);
  for (const char* key :
       {"\"admitted\"", "\"completed\"", "\"latency_s\"", "\"p99_s\"",
        "\"planner_cache\"", "\"hit_rate\"", "\"engine\"",
        "\"throughput_jobs_per_s\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }

  for (const JobId id : ids) {
    const auto polled = svc.poll(id);
    ASSERT_TRUE(polled.has_value());
    EXPECT_EQ(polled->status, JobStatus::kDone);
  }
  EXPECT_FALSE(svc.poll(123456).has_value());
}

/// Small tracking workload: three logical readers, two jobs each, with
/// distinct scenarios and seeds.
std::vector<JobSpec> tracking_jobs() {
  std::vector<JobSpec> specs;
  for (std::uint64_t i = 0; i < 6; ++i) {
    JobSpec spec;
    spec.estimator = "BFCE";  // label only for tracking jobs
    spec.req = {0.1, 0.1};
    spec.seed = 5000 + i;
    TrackingJobSpec track;
    track.reader_id = i % 3;
    track.initial_population = 4000 + 1000 * (i % 2);
    track.schedule = (i % 2 == 0)
                         ? tracking::steady_scenario(5, 0.05, 4000.0)
                         : tracking::ramp_scenario(5, 0.05, 5000.0, 1.5);
    spec.tracking = track;
    specs.push_back(spec);
  }
  return specs;
}

/// Bit-exact trajectory comparison (plain EXPECT_EQ on doubles: the
/// contract is bit-identical, not merely close).
void expect_same_trajectories(const std::vector<JobResult>& a,
                              const std::vector<JobResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].tracking.has_value()) << i;
    ASSERT_TRUE(b[i].tracking.has_value()) << i;
    const tracking::TrackResult& ta = *a[i].tracking;
    const tracking::TrackResult& tb = *b[i].tracking;
    EXPECT_EQ(ta.reader_id, tb.reader_id) << i;
    ASSERT_EQ(ta.trajectory.size(), tb.trajectory.size()) << i;
    for (std::size_t r = 0; r < ta.trajectory.size(); ++r) {
      const tracking::TrackPoint& pa = ta.trajectory[r];
      const tracking::TrackPoint& pb = tb.trajectory[r];
      EXPECT_EQ(pa.true_n, pb.true_n) << i << "/" << r;
      EXPECT_EQ(pa.raw_n_hat, pb.raw_n_hat) << i << "/" << r;
      EXPECT_EQ(pa.tracked_n, pb.tracked_n) << i << "/" << r;
      EXPECT_EQ(pa.predicted_n, pb.predicted_n) << i << "/" << r;
      EXPECT_EQ(pa.innovation, pb.innovation) << i << "/" << r;
      EXPECT_EQ(pa.variance, pb.variance) << i << "/" << r;
      EXPECT_EQ(pa.p_o, pb.p_o) << i << "/" << r;
      EXPECT_EQ(pa.airtime_s, pb.airtime_s) << i << "/" << r;
    }
    EXPECT_EQ(ta.summary.raw_rmse, tb.summary.raw_rmse) << i;
    EXPECT_EQ(ta.summary.tracked_rmse, tb.summary.tracked_rmse) << i;
    EXPECT_EQ(a[i].outcome.n_hat, b[i].outcome.n_hat) << i;
    EXPECT_EQ(a[i].outcome.ci_low, b[i].outcome.ci_low) << i;
    EXPECT_EQ(a[i].outcome.ci_high, b[i].outcome.ci_high) << i;
  }
}

TEST(EstimationService, TrackingTrajectoriesBitIdenticalAcrossWorkerCounts) {
  const auto specs = tracking_jobs();

  ServiceConfig ref_cfg;
  ref_cfg.workers = 1;
  EstimationService reference(ref_cfg);
  const auto ref_results = run_all(reference, specs);

  for (const unsigned workers : {1u, 4u, 8u}) {
    core::PersistencePlanner planner;
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.planner = &planner;
    EstimationService svc(cfg);
    const auto results = run_all(svc, specs);
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_same_trajectories(ref_results, results);
  }
}

TEST(EstimationService, TrackingJobsSurfacePerReaderMetrics) {
  ServiceConfig cfg;
  cfg.workers = 2;
  EstimationService svc(cfg);
  const auto specs = tracking_jobs();
  const auto results = run_all(svc, specs);

  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kDone);
    ASSERT_TRUE(r.tracking.has_value());
    EXPECT_EQ(r.tracking->summary.rounds, 5u);
    EXPECT_GT(r.outcome.n_hat, 0.0);
    EXPECT_LT(r.outcome.ci_low, r.outcome.n_hat);
    EXPECT_GT(r.outcome.ci_high, r.outcome.n_hat);
    EXPECT_GT(r.airtime_s, 0.0);
    EXPECT_GT(r.counters.total().frames, 0u);
  }

  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.tracking.jobs, specs.size());
  EXPECT_EQ(m.tracking.rounds, 5u * specs.size());
  EXPECT_GT(m.tracking.innovation_rms, 0.0);
  EXPECT_GT(m.tracking.residual_rms, 0.0);
  EXPECT_GT(m.tracking.raw_rmse_mean, 0.0);
  ASSERT_EQ(m.readers.size(), 3u);  // reader ids 0, 1, 2, sorted
  for (std::size_t i = 0; i < m.readers.size(); ++i) {
    EXPECT_EQ(m.readers[i].reader_id, i);
    EXPECT_EQ(m.readers[i].jobs, 2u);
    EXPECT_EQ(m.readers[i].rounds, 10u);
    EXPECT_GT(m.readers[i].state, 0.0);
    EXPECT_GT(m.readers[i].variance, 0.0);
  }

  const std::string table = render_service_metrics(m);
  EXPECT_NE(table.find("tracking:"), std::string::npos);
  EXPECT_NE(table.find("reader 0:"), std::string::npos);
  const std::string json = service_metrics_json(m);
  for (const char* key : {"\"tracking\"", "\"readers\"", "\"reader_id\"",
                          "\"innovation_rms\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

// Regression: ServiceConfig::engine_policy must reach the tracking
// path. execute_tracking forwards it into SessionConfig, the session
// into every round's ReaderContext — so a sharded service config makes
// tracking jobs produce sharded walks; and because the sharded pipeline
// is shard-count invariant, the trajectories are a pure function of the
// job seed — bit-identical across shard counts.
TEST(EstimationService, TrackingJobsHonourShardedEnginePolicy) {
  const auto specs = tracking_jobs();

  EstimationService sequential(ServiceConfig{.workers = 2});
  run_all(sequential, specs);
  EXPECT_EQ(sequential.metrics().engine.sharded_walks, 0u);

  std::vector<std::vector<JobResult>> per_shard_count;
  for (const std::uint32_t shards : {4u, 8u}) {
    ServiceConfig cfg;
    cfg.workers = 2;
    rfid::ExecutionPolicy policy = rfid::ExecutionPolicy::sharded(shards);
    policy.min_tags_per_shard = 1;
    cfg.engine_policy = policy;
    EstimationService sharded(cfg);
    per_shard_count.push_back(run_all(sharded, specs));
    EXPECT_GT(sharded.metrics().engine.sharded_walks, 0u)
        << "shards=" << shards;
    for (const JobResult& r : per_shard_count.back()) {
      EXPECT_EQ(r.status, JobStatus::kDone);
    }
  }
  expect_same_trajectories(per_shard_count[0], per_shard_count[1]);
}

TEST(EstimationService, NonTrackingMetricsStayEmpty) {
  EstimationService svc({.workers = 1});
  JobSpec spec;
  spec.population = &small_pop();
  EXPECT_EQ(svc.wait(svc.submit(spec)).status, JobStatus::kDone);
  const ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.tracking.jobs, 0u);
  EXPECT_TRUE(m.readers.empty());
  EXPECT_EQ(render_service_metrics(m).find("tracking:"), std::string::npos);
}

TEST(EstimationService, SubmitAfterShutdownIsRefused) {
  EstimationService svc({.workers = 1});
  JobSpec spec;
  spec.population = &small_pop();
  EXPECT_EQ(svc.wait(svc.submit(spec)).status, JobStatus::kDone);
  svc.shutdown();
  EXPECT_EQ(svc.submit(spec), kInvalidJob);
  EXPECT_FALSE(svc.try_submit(spec).has_value());
}

}  // namespace
}  // namespace bfce::service
