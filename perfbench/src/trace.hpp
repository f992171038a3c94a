#pragma once
// The traced run: spans recorded at the benchmark's own call sites into
// each layer's public functions, a replay of sampled jobs through those
// functions, and single-layer measurements. Spans are kept in memory and
// written out as JSON when the run ends. Everything here is off the
// measured (untraced) runs' path.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "rfid/population.hpp"
#include "service/portable.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;  ///< index of the enclosing span, −1 for a root
  std::uint64_t job = 0;
};

/// Single-threaded span recorder. A disabled tracer records nothing, so
/// the same replay code measures the untraced cost.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope() {
      if (index_ >= 0) tracer_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span that closes when the returned scope ends; its parent is
  /// the innermost span still open.
  [[nodiscard]] Scope span(const char* name, std::uint64_t job) {
    return Scope(this, enabled_ ? open(name, job) : -1);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time per span name, µs: each span's duration minus the part of
  /// it that its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_us() const;

  /// Writes every span as a JSON array; false when the file cannot be
  /// written.
  bool write_json(const std::string& path) const;

 private:
  int open(const char* name, std::uint64_t job);
  void close(int index);
  double now_us() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// One job to replay through the layer functions: either a portable spec
/// (codec and materialization run too) or a runnable spec over a
/// caller-owned population. `expected` is what the service returned for
/// it; the replay must reproduce the estimate bit for bit.
struct ReplayJob {
  std::uint64_t id = 0;
  const bfce::service::PortableJobSpec* portable = nullptr;
  bfce::service::JobSpec spec;
  bfce::service::JobResult expected;
};

/// What the replay saw, per job or per call.
struct ReplayStats {
  std::vector<double> job_us;  ///< root span durations (traced passes)
  std::vector<double> materialize_ms;
  std::vector<double> bfce_ms;
  std::vector<double> zoe_ms;
  std::vector<double> bfce_probe_iterations;
  std::vector<double> bfce_frames;
  std::vector<double> zoe_frames;
  std::vector<double> slots;
  std::vector<double> tag_tx;
  /// (n̂_low, requirement) of every BFCE attempt, for the planner timing.
  std::vector<std::pair<double, bfce::estimators::Requirement>> n_low;
  /// (population size, chosen p_o) of every BFCE attempt.
  std::vector<std::pair<std::size_t, double>> p_o;
  std::size_t mismatches = 0;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
};

/// Replays every job of `jobs` twice with the tracer off and twice with
/// it on, alternating which side goes first, so drift over the replay
/// cancels out of the overhead; statistics come from each job's first
/// traced run.
ReplayStats replay_jobs(const std::vector<ReplayJob>& jobs,
                        const bfce::service::ServiceConfig& cfg,
                        Tracer& tracer);

/// Every per-layer metric of BENCHMARK.json. Layers a workload does not
/// exercise stay 0.
struct LayerMetrics {
  double materialize_p50_ms = 0.0;
  double materialize_p99_ms = 0.0;
  double population_build_ns_per_tag = 0.0;
  double wire_connect_us = 0.0;
  double wire_overhead_p50_ms = 0.0;
  double wire_overhead_p99_ms = 0.0;
  double wire_request_bytes = 0.0;
  double wire_reply_bytes = 0.0;
  double wire_metrics_frame_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double exec_p50_ms = 0.0;
  double exec_p99_ms = 0.0;
  double attempts_per_job = 0.0;
  double bfce_estimate_p50_ms = 0.0;
  double bfce_estimate_p99_ms = 0.0;
  double bfce_probe_iterations = 0.0;
  double bfce_frames_per_job = 0.0;
  double bloom_exact_ns_per_tag = 0.0;
  double zoe_estimate_p50_ms = 0.0;
  double zoe_frames_per_job = 0.0;
  double single_slot_sampled_ns_per_frame = 0.0;
  double bloom_sampled_us_per_frame = 0.0;
  double slots_per_job = 0.0;
  double tag_tx_per_job = 0.0;
  double planner_search_p50_us = 0.0;
  double planner_search_p99_us = 0.0;
  double planner_met_ratio = 0.0;
  double metrics_call_ms = 0.0;
  double snapshot_cut_ms = 0.0;
  double snapshot_encode_ms = 0.0;
  double snapshot_save_ms = 0.0;
  double snapshot_load_ms = 0.0;
  double snapshot_bytes_per_job = 0.0;
  double executor_warm_dispatch_us = 0.0;
  double generator_late_p99_ms = 0.0;
  double open_loop_p50_ms = 0.0;
  double open_loop_p99_ms = 0.0;
  double trace_overhead_pct = 0.0;
  double trace_unattributed_pct = 0.0;

  void emit(Report& report) const;
};

/// Fills the layer metrics every workload shares: the service's own
/// per-job timings, the replay, the engine/planner/executor measurements
/// at the replay's operating points (frames over `frame_pop`), and the
/// recovery cycle. Checks the replay's
/// determinism and that the named layers cover the traced job time to
/// within 5%, and writes the spans to `trace_path`.
void fill_common_layers(const std::vector<JobRecord>& records,
                        const std::vector<ReplayJob>& replay,
                        const bfce::service::ServiceConfig& cfg,
                        const bfce::rfid::TagPopulation& frame_pop,
                        const RecoveryTiming& recovery, double metrics_ms,
                        const std::string& trace_path, std::uint64_t seed,
                        LayerMetrics& layers, Report& report);

/// ns per tag of rfid::make_population over `sizes`.
double population_build_ns_per_tag(const std::vector<std::size_t>& sizes,
                                   std::uint64_t seed);

}  // namespace perfbench
