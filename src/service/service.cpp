#include "service/service.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "core/bfce.hpp"
#include "estimators/registry.hpp"
#include "math/erf.hpp"
#include "rfid/reader.hpp"
#include "tracking/session.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace bfce::service {

namespace {

/// Resolves a job's estimator. BFCE variants built here (rather than
/// through the registry) so they share the service's planner.
std::unique_ptr<estimators::CardinalityEstimator> make_job_estimator(
    const JobSpec& spec, core::PersistencePlanner* planner) {
  if (spec.factory) return spec.factory();
  if (planner != nullptr) {
    core::BfceParams params;
    params.planner = planner;
    if (spec.estimator == "BFCE") {
      return std::make_unique<core::BfceEstimator>(params);
    }
    if (spec.estimator == "BFCE-avg") {
      return std::make_unique<core::AveragedBfceEstimator>(10, params);
    }
  }
  return estimators::make_estimator(spec.estimator);
}

/// math::quantile_sorted's interpolated q-quantile of `samples`
/// (non-empty), found by selection instead of a full sort; reorders
/// `samples`.
double select_quantile(std::vector<double>& samples, double q) {
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto at = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), at, samples.end());
  if (lo + 1 >= samples.size()) return *at;
  const double next = *std::min_element(at + 1, samples.end());
  return *at + (next - *at) * (pos - static_cast<double>(lo));
}

LatencyProfile profile_of(std::vector<double> samples) {
  LatencyProfile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  p.mean_s = sum / static_cast<double>(samples.size());
  p.max_s = *std::max_element(samples.begin(), samples.end());
  p.p50_s = select_quantile(samples, 0.50);
  p.p95_s = select_quantile(samples, 0.95);
  p.p99_s = select_quantile(samples, 0.99);
  return p;
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

const char* to_cstring(JobStatus status) noexcept {
  switch (status) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kDeadlineMissed: return "deadline_missed";
    case JobStatus::kExpired: return "expired";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
  }
  return "unknown";
}

EstimationService::EstimationService(ServiceConfig config)
    : config_(config),
      workers_(config.workers != 0 ? config.workers
                                   : util::default_thread_count()),
      started_(Clock::now()) {
  pool_.reserve(workers_);
  for (unsigned t = 0; t < workers_; ++t) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

EstimationService::~EstimationService() { shutdown(); }

JobId EstimationService::admit_locked(JobSpec&& spec) {
  const JobId id = next_id_++;
  JobState& state = jobs_[id];
  state.spec = std::move(spec);
  state.result.id = id;
  state.result.status = JobStatus::kQueued;
  state.submitted = Clock::now();
  queue_.push_back(id);
  ++admitted_;
  work_ready_.notify_one();
  return id;
}

JobId EstimationService::submit(JobSpec spec) {
  std::unique_lock lock(mutex_);
  queue_space_.wait(lock, [&] {
    return stopping_ || queue_.size() < config_.queue_capacity;
  });
  if (stopping_) return kInvalidJob;
  return admit_locked(std::move(spec));
}

std::optional<JobId> EstimationService::try_submit(JobSpec spec) {
  std::unique_lock lock(mutex_);
  if (stopping_) return std::nullopt;
  if (queue_.size() >= config_.queue_capacity) {
    ++rejected_;
    return std::nullopt;
  }
  return admit_locked(std::move(spec));
}

JobId EstimationService::submit_portable(const PortableJobSpec& spec) {
  // Materialization (population synthesis) happens before the lock:
  // the admission path must never hold mutex_ across real work.
  std::optional<MaterializedJob> job = materialize(spec);
  std::unique_lock lock(mutex_);
  if (!job.has_value()) {
    ++rejected_;
    return kInvalidJob;
  }
  queue_space_.wait(lock, [&] {
    return stopping_ || queue_.size() < config_.queue_capacity;
  });
  if (stopping_) return kInvalidJob;
  const JobId id = admit_locked(std::move(job->spec));
  JobState& state = jobs_.at(id);
  state.owned_population = std::move(job->population);
  state.portable = spec;
  return id;
}

std::optional<JobId> EstimationService::try_submit_portable(
    const PortableJobSpec& spec) {
  std::optional<MaterializedJob> job = materialize(spec);
  std::unique_lock lock(mutex_);
  if (stopping_) return std::nullopt;
  if (!job.has_value() || queue_.size() >= config_.queue_capacity) {
    ++rejected_;
    return std::nullopt;
  }
  const JobId id = admit_locked(std::move(job->spec));
  JobState& state = jobs_.at(id);
  state.owned_population = std::move(job->population);
  state.portable = spec;
  return id;
}

ServiceSnapshot EstimationService::snapshot() const {
  ServiceSnapshot snap;
  snap.substrate_fingerprint =
      substrate_fingerprint(config_.mode, config_.channel, config_.timing);
  {
    std::unique_lock lock(mutex_);
    snap.next_id = next_id_;
    snap.rejected = rejected_;
    snap.non_portable_skipped = non_portable_skipped_;
    for (const auto& [id, state] : jobs_) {
      if (is_terminal(state.result.status)) {
        snap.completed.emplace_back(id, state.result);
      } else if (state.portable.has_value()) {
        snap.pending.emplace_back(id, *state.portable);
      } else {
        ++snap.non_portable_skipped;
      }
    }
  }
  // jobs_ iterates in hash order; the snapshot encoding must be
  // byte-stable, so both sections are sorted by id.
  std::sort(snap.completed.begin(), snap.completed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::sort(snap.pending.begin(), snap.pending.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Planner export takes the planner's own (leaf) lock — after mutex_ is
  // released, like every other planner call.
  if (config_.planner != nullptr) {
    snap.planner.present = true;
    snap.planner.n_low_mantissa_bits =
        config_.planner->options().n_low_mantissa_bits;
    snap.planner.entries = config_.planner->export_entries();
  }
  return snap;
}

SnapshotError EstimationService::restore(const ServiceSnapshot& snap) {
  if (snap.substrate_fingerprint !=
      substrate_fingerprint(config_.mode, config_.channel, config_.timing)) {
    return SnapshotError::kConfigMismatch;
  }

  // Validate + materialize outside the lock (population synthesis is
  // real work). decode_snapshot already vetted statuses and specs, but
  // restore() also accepts hand-built snapshots, so re-check.
  std::vector<std::pair<JobId, MaterializedJob>> pending;
  pending.reserve(snap.pending.size());
  {
    std::unordered_map<JobId, bool> seen;
    seen.reserve(snap.completed.size() + snap.pending.size());
    for (const auto& [id, result] : snap.completed) {
      if (id == kInvalidJob || !is_terminal(result.status) ||
          !seen.emplace(id, true).second) {
        return SnapshotError::kMalformed;
      }
    }
    for (const auto& [id, spec] : snap.pending) {
      if (id == kInvalidJob || !seen.emplace(id, true).second) {
        return SnapshotError::kMalformed;
      }
      std::optional<MaterializedJob> job = materialize(spec);
      if (!job.has_value()) return SnapshotError::kMalformed;
      pending.emplace_back(id, std::move(*job));
    }
  }

  // Seed the planner before any restored job can run: the planner's
  // shared_mutex is a strict leaf, so this happens outside mutex_.
  if (snap.planner.present && config_.planner != nullptr) {
    config_.planner->import_entries(snap.planner.entries);
  }

  std::unique_lock lock(mutex_);
  if (stopping_) return SnapshotError::kBadState;
  // Only a fresh service may be restored: merging two histories would
  // make id collisions and double-counted aggregates possible.
  if (admitted_ != 0 || rejected_ != 0 || !jobs_.empty()) {
    return SnapshotError::kBadState;
  }

  jobs_.reserve(snap.completed.size() + snap.pending.size());
  latency_s_.reserve(snap.completed.size());
  queue_wait_s_.reserve(snap.completed.size());
  JobId max_id = 0;
  for (const auto& [id, result] : snap.completed) {
    JobState& state = jobs_[id];
    state.result = result;
    state.result.id = id;
    state.submitted = Clock::now();
    ++admitted_;
    // Re-accounting: every aggregate (outcome counts, latency vectors,
    // engine counters, tracker rows, federation sums) is rebuilt through
    // the one accounting path, so it cannot drift from the results.
    account_terminal(state);
    max_id = std::max(max_id, id);
  }
  std::size_t pending_idx = 0;
  for (const auto& [id, spec] : snap.pending) {
    JobState& state = jobs_[id];
    MaterializedJob& job = pending[pending_idx++].second;
    state.spec = std::move(job.spec);
    state.owned_population = std::move(job.population);
    state.portable = spec;
    state.result.id = id;
    state.result.status = JobStatus::kQueued;
    // Wall-clock deadlines restart at restore time (steady_clock does
    // not survive the process; the airtime budget, which is simulated
    // time, carries over exactly).
    state.submitted = Clock::now();
    queue_.push_back(id);
    ++admitted_;
    max_id = std::max(max_id, id);
  }
  next_id_ = std::max(snap.next_id, max_id + 1);
  rejected_ = snap.rejected;
  non_portable_skipped_ = snap.non_portable_skipped;
  work_ready_.notify_all();
  job_done_.notify_all();
  return SnapshotError::kNone;
}

void EstimationService::set_wire_stats_source(
    std::function<WireStats()> source) {
  std::unique_lock lock(mutex_);
  wire_stats_source_ = std::move(source);
}

bool EstimationService::cancel(JobId id) {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  JobState& state = it->second;
  if (state.result.status != JobStatus::kQueued) return false;

  const auto pos = std::find(queue_.begin(), queue_.end(), id);
  if (pos != queue_.end()) queue_.erase(pos);
  state.result.status = JobStatus::kCancelled;
  state.result.latency_s = seconds_between(state.submitted, Clock::now());
  account_terminal(state);
  queue_space_.notify_one();
  job_done_.notify_all();
  return true;
}

JobResult EstimationService::wait(JobId id) {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    JobResult unknown;
    unknown.id = id;
    unknown.status = JobStatus::kFailed;
    unknown.outcome.note = "unknown job id";
    return unknown;
  }
  job_done_.wait(lock,
                 [&] { return is_terminal(it->second.result.status); });
  return it->second.result;
}

std::optional<JobResult> EstimationService::poll(JobId id) const {
  std::unique_lock lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.result;
}

void EstimationService::drain() {
  std::unique_lock lock(mutex_);
  job_done_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

void EstimationService::shutdown() {
  // Exactly one caller may own the join: pool_ is swapped out under the
  // lock, so a second concurrent shutdown() (or the destructor racing an
  // explicit call) sees an empty pool and parks on joined_ instead of
  // iterating a vector the owner is mutating. (Found by the TSan race
  // stress suite: the old code joined pool_ unlocked while a concurrent
  // caller cleared it.)
  std::vector<std::thread> workers;
  {
    std::unique_lock lock(mutex_);
    // Let queued work finish, then stop the pool.
    job_done_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
    stopping_ = true;
    workers.swap(pool_);
    if (workers.empty()) {
      // Another caller owns (or already finished) the join; wait it out
      // so every shutdown() returns only once the workers are gone.
      job_done_.wait(lock, [&] { return joined_; });
      return;
    }
  }
  work_ready_.notify_all();
  queue_space_.notify_all();
  for (std::thread& worker : workers) worker.join();
  {
    std::lock_guard lock(mutex_);
    joined_ = true;
  }
  job_done_.notify_all();
}

std::size_t EstimationService::queue_depth() const {
  std::unique_lock lock(mutex_);
  return queue_.size();
}

ServiceMetrics EstimationService::metrics() const {
  ServiceMetrics m;
  std::vector<double> latency;
  std::vector<double> waits;
  std::function<WireStats()> wire_source;
  {
    std::unique_lock lock(mutex_);
    wire_source = wire_stats_source_;
    m.admitted = admitted_;
    m.rejected = rejected_;
    m.completed = completed_;
    m.done = done_;
    m.deadline_missed = deadline_missed_;
    m.expired = expired_;
    m.cancelled = cancelled_;
    m.failed = failed_;
    m.retries = retries_;
    m.queue_depth = queue_.size();
    m.queue_capacity = config_.queue_capacity;
    m.running = running_;
    m.workers = workers_;
    m.elapsed_s = seconds_between(started_, Clock::now());
    m.engine = engine_;
    latency = latency_s_;
    waits = queue_wait_s_;

    m.tracking.jobs = tracking_jobs_;
    m.tracking.rounds = tracking_rounds_;
    if (tracking_jobs_ > 0) {
      const double jobs = static_cast<double>(tracking_jobs_);
      m.tracking.raw_rmse_mean = tracking_raw_rmse_sum_ / jobs;
      m.tracking.tracked_rmse_mean = tracking_tracked_rmse_sum_ / jobs;
    }
    if (tracking_rounds_ > 0) {
      const double rounds = static_cast<double>(tracking_rounds_);
      m.tracking.innovation_rms = std::sqrt(tracking_innovation_sq_ / rounds);
      m.tracking.residual_rms = std::sqrt(tracking_residual_sq_ / rounds);
    }
    m.readers.reserve(trackers_.size());
    for (const auto& [id, reader] : trackers_) m.readers.push_back(reader);

    m.federation.jobs = federation_jobs_;
    m.federation.readers = federation_readers_;
    m.federation.schedule_rounds = federation_rounds_;
    m.federation.tree_merges = federation_merges_;
    m.federation.word_ors = federation_word_ors_;
    m.federation.fleet_airtime_s = federation_airtime_s_;
    if (federation_jobs_ > 0) {
      m.federation.mean_overlap_fraction =
          federation_overlap_sum_ / static_cast<double>(federation_jobs_);
    }
  }
  std::sort(m.readers.begin(), m.readers.end(),
            [](const ReaderTrackerState& a, const ReaderTrackerState& b) {
              return a.reader_id < b.reader_id;
            });
  m.latency = profile_of(std::move(latency));
  m.queue_wait = profile_of(std::move(waits));
  if (config_.planner != nullptr) {
    m.planner_attached = true;
    m.planner = config_.planner->stats();
  }
  // Sampled with mutex_ released: the wire server's stats lock is a
  // strict leaf, same discipline as the planner.
  if (wire_source) {
    m.wire_attached = true;
    m.wire = wire_source();
  }
  return m;
}

void EstimationService::worker_loop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained

    const JobId id = queue_.front();
    queue_.pop_front();
    queue_space_.notify_one();
    JobState& state = jobs_.at(id);  // element refs are rehash-stable
    // Only cancel() removes queued entries, and it erases them from
    // queue_ in the same critical section — a dequeued id is kQueued.
    assert(state.result.status == JobStatus::kQueued);
    const double waited = seconds_between(state.submitted, Clock::now());

    if (waited > state.spec.deadline_s) {
      state.result.status = JobStatus::kExpired;
      state.result.queue_wait_s = waited;
      state.result.latency_s = waited;
      account_terminal(state);
      job_done_.notify_all();
      continue;
    }

    state.result.status = JobStatus::kRunning;
    state.result.queue_wait_s = waited;
    ++running_;
    const JobSpec spec = state.spec;
    lock.unlock();

    const auto exec_start = Clock::now();
    std::uint64_t retries = 0;
    JobResult executed = execute_job(spec, retries);
    const double exec_s = seconds_between(exec_start, Clock::now());

    lock.lock();
    state.result.status = executed.status;
    state.result.outcome = std::move(executed.outcome);
    state.result.tracking = std::move(executed.tracking);
    state.result.federation = executed.federation;
    state.result.airtime_s = executed.airtime_s;
    state.result.attempts = executed.attempts;
    state.result.counters = executed.counters;
    state.result.exec_s = exec_s;
    state.result.latency_s = seconds_between(state.submitted, Clock::now());
    retries_ += retries;
    --running_;
    account_terminal(state);
    job_done_.notify_all();
  }
}

JobResult EstimationService::execute_job(const JobSpec& spec,
                                         std::uint64_t& retries) const {
  if (spec.tracking.has_value()) return execute_tracking(spec, retries);
  if (spec.federation.has_value()) return execute_federation(spec, retries);
  JobResult r;
  if (spec.population == nullptr) {
    r.status = JobStatus::kFailed;
    r.outcome.note = "job has no population";
    return r;
  }
  const std::uint32_t budget = std::max<std::uint32_t>(1, spec.max_attempts);
  for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
    const auto estimator = make_job_estimator(spec, config_.planner);
    if (estimator == nullptr) {
      r.status = JobStatus::kFailed;
      r.outcome.note = "unknown estimator '" + spec.estimator + "'";
      return r;
    }
    rfid::ReaderContext ctx(*spec.population,
                            util::derive_seed(spec.seed, attempt),
                            config_.mode, config_.channel, config_.timing,
                            config_.engine_policy);
    r.outcome = estimator->estimate(ctx, spec.req);
    r.counters += ctx.engine().counters();
    r.attempts = attempt + 1;
    r.airtime_s = r.outcome.airtime.total_seconds(config_.timing);

    const bool over_budget = r.airtime_s > spec.airtime_budget_s;
    if (r.outcome.met_by_design && !over_budget) {
      r.status = JobStatus::kDone;
      return r;
    }
    if (attempt + 1 < budget) {
      ++retries;
    } else {
      // Out of attempts: an airtime blow-out is a missed deadline; a
      // mere design-point miss still delivers the estimate as kDone
      // (the outcome carries met_by_design = false and the note).
      r.status = over_budget ? JobStatus::kDeadlineMissed : JobStatus::kDone;
    }
  }
  return r;
}

JobResult EstimationService::execute_tracking(const JobSpec& spec,
                                              std::uint64_t& retries) const {
  JobResult r;
  const TrackingJobSpec& track = *spec.tracking;
  const std::uint32_t budget = std::max<std::uint32_t>(1, spec.max_attempts);
  for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
    tracking::SessionConfig cfg;
    cfg.initial_population = track.initial_population;
    cfg.params.planner = config_.planner;
    cfg.req = spec.req;
    cfg.mode = config_.mode;
    cfg.channel = config_.channel;
    cfg.timing = config_.timing;
    // The service-wide engine policy applies to tracking rounds exactly
    // as it does to single-estimate jobs (it is shard-count invariant,
    // so trajectories stay bit-identical across policies' shard knobs).
    cfg.policy = config_.engine_policy;
    // Same stream contract as single-estimate jobs: attempt a derives
    // its whole session (timeline + every round) from (spec.seed, a).
    cfg.seed = util::derive_seed(spec.seed, attempt);

    tracking::TrackingSession session(cfg);
    session.run(track.schedule);

    tracking::TrackResult tracked;
    tracked.reader_id = track.reader_id;
    tracked.trajectory = session.trajectory();
    tracked.summary = session.summary();

    r.counters += session.counters();
    r.attempts = attempt + 1;
    r.airtime_s = tracked.summary.airtime_s;

    // The job-level outcome is the tracker's final fused state, with a
    // (1−δ) CI from the posterior variance (Gaussian posterior, so the
    // same d = confidence_d(δ) the protocol uses internally).
    r.outcome = estimators::EstimateOutcome{};
    r.outcome.n_hat = session.tracker().state();
    const double half =
        math::confidence_d(spec.req.delta) * std::sqrt(session.tracker().variance());
    r.outcome.ci_low = std::max(0.0, r.outcome.n_hat - half);
    r.outcome.ci_high = r.outcome.n_hat + half;
    r.outcome.rounds = static_cast<std::uint32_t>(tracked.summary.rounds);
    r.outcome.met_by_design = tracked.summary.design_misses == 0;
    if (!r.outcome.met_by_design) {
      r.outcome.note = "tracking: rounds fell back from the design point";
    }
    r.tracking = std::move(tracked);

    const bool over_budget = r.airtime_s > spec.airtime_budget_s;
    if (r.outcome.met_by_design && !over_budget) {
      r.status = JobStatus::kDone;
      return r;
    }
    if (attempt + 1 < budget) {
      ++retries;
    } else {
      r.status = over_budget ? JobStatus::kDeadlineMissed : JobStatus::kDone;
    }
  }
  return r;
}

JobResult EstimationService::execute_federation(const JobSpec& spec,
                                                std::uint64_t& retries) const {
  JobResult r;
  const FederationJobSpec& fedspec = *spec.federation;
  if (fedspec.fleet == nullptr) {
    r.status = JobStatus::kFailed;
    r.outcome.note = "federation job has no fleet";
    return r;
  }
  const std::uint32_t budget = std::max<std::uint32_t>(1, spec.max_attempts);
  for (std::uint32_t attempt = 0; attempt < budget; ++attempt) {
    federation::FederationConfig cfg;
    cfg.params.planner = config_.planner;
    cfg.correlation = fedspec.correlation;
    cfg.fanout = fedspec.fanout;
    cfg.mode = config_.mode;
    cfg.channel = config_.channel;
    cfg.timing = config_.timing;
    cfg.policy = config_.engine_policy;
    // Same stream contract as every other job kind: attempt a seeds the
    // whole fleet (coordinator + derived reader streams) from
    // (spec.seed, a), and reader 0 gets exactly the derived seed a plain
    // job's context would — the degenerate 1-reader fleet is
    // bit-identical to a plain BFCE job.
    cfg.seed = util::derive_seed(spec.seed, attempt);

    const federation::FederatedBfceEstimator estimator(cfg);
    federation::FederatedOutcome fed =
        estimator.estimate(*fedspec.fleet, spec.req);

    r.outcome = std::move(fed.outcome);
    r.counters += fed.counters;
    r.attempts = attempt + 1;
    // The airtime deadline applies to the floor's wall-clock: colliding
    // readers serialise, so every interference round replays the ledger.
    r.airtime_s = fed.fleet_airtime_s;

    FederationResult summary;
    summary.readers = fed.readers;
    summary.schedule_rounds = fed.schedule_rounds;
    summary.fleet_airtime_s = fed.fleet_airtime_s;
    summary.correction_g = fed.correction_g;
    summary.overlap_fraction = fed.overlap_fraction;
    summary.merge = fed.merge;
    summary.rng_fingerprint = fed.rng_fingerprint;
    r.federation = summary;

    const bool over_budget = r.airtime_s > spec.airtime_budget_s;
    if (r.outcome.met_by_design && !over_budget) {
      r.status = JobStatus::kDone;
      return r;
    }
    if (attempt + 1 < budget) {
      ++retries;
    } else {
      r.status = over_budget ? JobStatus::kDeadlineMissed : JobStatus::kDone;
    }
  }
  return r;
}

void EstimationService::account_terminal(JobState& state) {
  const JobResult& result = state.result;
  assert(is_terminal(result.status));
  // A terminal job never runs again and snapshot() keeps only its
  // result, so the population and the value spec it was admitted from
  // go now: a long-running service holds results, not inputs.
  state.owned_population.reset();
  state.spec.population = nullptr;
  state.portable.reset();
  ++completed_;
  switch (result.status) {
    case JobStatus::kDone: ++done_; break;
    case JobStatus::kDeadlineMissed: ++deadline_missed_; break;
    case JobStatus::kExpired: ++expired_; break;
    case JobStatus::kCancelled: ++cancelled_; break;
    case JobStatus::kFailed: ++failed_; break;
    case JobStatus::kQueued:
    case JobStatus::kRunning: break;  // unreachable for terminal results
  }
  latency_s_.push_back(result.latency_s);
  if (result.attempts > 0) queue_wait_s_.push_back(result.queue_wait_s);
  engine_ += result.counters;

  if (result.tracking.has_value()) {
    const tracking::TrackResult& t = *result.tracking;
    const double rounds = static_cast<double>(t.summary.rounds);
    ++tracking_jobs_;
    tracking_rounds_ += t.summary.rounds;
    tracking_innovation_sq_ +=
        t.summary.innovation_rms * t.summary.innovation_rms * rounds;
    tracking_residual_sq_ +=
        t.summary.residual_rms * t.summary.residual_rms * rounds;
    tracking_raw_rmse_sum_ += t.summary.raw_rmse;
    tracking_tracked_rmse_sum_ += t.summary.tracked_rmse;

    ReaderTrackerState& reader = trackers_[t.reader_id];
    reader.reader_id = t.reader_id;
    ++reader.jobs;
    reader.rounds += t.summary.rounds;
    if (!t.trajectory.empty()) {
      reader.state = t.trajectory.back().tracked_n;
      reader.variance = t.trajectory.back().variance;
    }
    reader.innovation_rms = t.summary.innovation_rms;
    reader.residual_rms = t.summary.residual_rms;
  }

  if (result.federation.has_value()) {
    const FederationResult& f = *result.federation;
    ++federation_jobs_;
    federation_readers_ += f.readers;
    federation_rounds_ += f.schedule_rounds;
    federation_merges_ += f.merge.merges;
    federation_word_ors_ += f.merge.word_ors;
    federation_airtime_s_ += f.fleet_airtime_s;
    federation_overlap_sum_ += f.overlap_fraction;
  }
}

}  // namespace bfce::service
