#pragma once
// Shared pieces of the benchmark: arguments, timing and statistics, the
// result line, per-job records and the checks every workload runs on
// them, and the snapshot → save → load → restore cycle.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "service/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Heap memory this process holds in live allocations, MiB (mallinfo2:
/// arena bytes in use plus mmapped blocks). Unlike the resident set it
/// does not depend on which allocator arena a thread happened to use.
double heap_in_use_mb();

/// The run's result: metrics by name and unit, operation counts, and the
/// problems the checks found. json() is the benchmark's last output line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed check; the run then reports correct = false.
  void problem(const std::string& what);
  [[nodiscard]] bool correct() const noexcept { return problems_.empty(); }
  [[nodiscard]] const std::vector<std::string>& problems() const noexcept {
    return problems_;
  }
  [[nodiscard]] std::string json() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

/// Median wall time of `reps` calls of `setup`, seconds. Each time goes
/// to standard error too: the first one also carries the process's
/// one-time costs.
template <typename F>
double median_setup_s(int reps, F&& setup) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
    std::fprintf(stderr, "setup %d: %.4f s\n", i, times.back());
  }
  return median(std::move(times));
}

/// One job the workload ran, with what the checks need.
struct JobRecord {
  Outcome outcome;
  bfce::service::JobResult result;
  /// Latency as the workload's client sees it, seconds.
  double latency_s = 0.0;
};

/// Coverage at alpha = 1e-6 per (estimator, ε, δ) class, and BFCE airtime
/// slope ≤ 0.05 across size classes; also flags any job not kDone.
void check_records(const std::vector<JobRecord>& records, Report& report);

/// Builds a JobRecord from a finished job.
JobRecord make_record(const std::string& estimator,
                      const bfce::estimators::Requirement& req, double n_true,
                      const bfce::service::JobResult& result, double latency_s);

/// True when two results carry the same outcome bits (status, attempts,
/// estimate, interval, airtime and engine work counts).
bool same_result(const bfce::service::JobResult& a,
                 const bfce::service::JobResult& b);

/// Timings of one crash-recovery cycle of a drained service.
struct RecoveryTiming {
  double cut_ms = 0.0;
  double encode_ms = 0.0;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double restore_ms = 0.0;  ///< median over the restores
  std::size_t bytes = 0;
  std::size_t jobs = 0;
};

/// Cuts a snapshot of `svc`, encodes it, saves it to `path`, loads it back
/// and restores it `restores` times into fresh services built from `cfg`.
/// Checks that the first restored service reports the same completed
/// count and the same results for `sample` as the original.
RecoveryTiming snapshot_and_restore(
    const bfce::service::EstimationService& svc,
    const bfce::service::ServiceConfig& cfg,
    const std::vector<std::pair<bfce::service::JobId,
                                bfce::service::JobResult>>& sample,
    const std::string& path, int restores, Report& report);

/// Prints to standard error, for the p50 and the p99 of the latencies in
/// `records`, the job class ("estimator@n") ranked there and that class's
/// share of the jobs ranked within ±2% of it: a share near 1 means the
/// percentile sits inside one class, not on a boundary between two.
void print_class_position(const char* workload,
                          const std::vector<JobRecord>& records);

/// Client threads of the closed and open loops (the host's core count).
unsigned client_threads();

}  // namespace perfbench
