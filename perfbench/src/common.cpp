#include "common.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <thread>

#include "service/snapshot.hpp"

namespace perfbench {

namespace service = bfce::service;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double heap_in_use_mb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    problem("metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::problem(const std::string& what) { problems_.push_back(what); }

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %llu, \"failed\": %llu",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  out += buf;
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  return out;
}

void check_records(const std::vector<JobRecord>& records, Report& report) {
  std::vector<Outcome> outcomes;
  outcomes.reserve(records.size());
  std::size_t not_done = 0;
  for (const JobRecord& r : records) {
    if (r.result.status != service::JobStatus::kDone) {
      ++not_done;
      continue;
    }
    outcomes.push_back(r.outcome);
  }
  if (not_done != 0) {
    report.problem(std::to_string(not_done) + " job(s) ended in a status other than done");
  }
  for (const std::string& p : check_outcomes(outcomes, 1e-6, 0.05)) {
    report.problem(p);
  }
}

JobRecord make_record(const std::string& estimator,
                      const bfce::estimators::Requirement& req, double n_true,
                      const service::JobResult& result, double latency_s) {
  JobRecord r;
  r.outcome.estimator = estimator;
  r.outcome.epsilon = req.epsilon;
  r.outcome.delta = req.delta;
  r.outcome.met_by_design = result.outcome.met_by_design;
  r.outcome.n_true = n_true;
  r.outcome.n_hat = result.outcome.n_hat;
  r.outcome.airtime_s = result.airtime_s;
  r.result = result;
  r.latency_s = latency_s;
  return r;
}

bool same_result(const service::JobResult& a, const service::JobResult& b) {
  if (a.status != b.status || a.attempts != b.attempts ||
      a.outcome.n_hat != b.outcome.n_hat ||
      a.outcome.ci_low != b.outcome.ci_low ||
      a.outcome.ci_high != b.outcome.ci_high ||
      a.outcome.met_by_design != b.outcome.met_by_design ||
      a.airtime_s != b.airtime_s) {
    return false;
  }
  for (std::size_t s = 0; s < bfce::rfid::kFrameShapeCount; ++s) {
    const auto& x = a.counters.by_shape[s];
    const auto& y = b.counters.by_shape[s];
    if (x.frames != y.frames || x.slots != y.slots || x.tag_tx != y.tag_tx) {
      return false;
    }
  }
  return true;
}

RecoveryTiming snapshot_and_restore(
    const service::EstimationService& svc, const service::ServiceConfig& cfg,
    const std::vector<std::pair<service::JobId, service::JobResult>>& sample,
    const std::string& path, int restores, Report& report) {
  RecoveryTiming t;
  auto t0 = Clock::now();
  const service::ServiceSnapshot snap = svc.snapshot();
  t.cut_ms = seconds_since(t0) * 1e3;
  t.jobs = snap.completed.size();

  t0 = Clock::now();
  const std::vector<std::uint8_t> image = service::encode_snapshot(snap);
  t.encode_ms = seconds_since(t0) * 1e3;
  t.bytes = image.size();

  t0 = Clock::now();
  const service::SnapshotError save_err = service::save_snapshot(snap, path);
  t.save_ms = seconds_since(t0) * 1e3;
  ++report.attempted;
  if (save_err != service::SnapshotError::kNone) {
    ++report.failed;
    report.problem(std::string("save_snapshot: ") + service::to_cstring(save_err));
    return t;
  }

  service::ServiceSnapshot loaded;
  t0 = Clock::now();
  const service::SnapshotError load_err = service::load_snapshot(path, loaded);
  t.load_ms = seconds_since(t0) * 1e3;
  std::remove(path.c_str());
  ++report.attempted;
  if (load_err != service::SnapshotError::kNone) {
    ++report.failed;
    report.problem(std::string("load_snapshot: ") + service::to_cstring(load_err));
    return t;
  }

  const std::uint64_t completed = svc.metrics().completed;
  std::vector<double> restore_ms;
  for (int i = 0; i < restores; ++i) {
    service::EstimationService restored(cfg);
    t0 = Clock::now();
    const service::SnapshotError err = restored.restore(loaded);
    restore_ms.push_back(seconds_since(t0) * 1e3);
    ++report.attempted;
    if (err != service::SnapshotError::kNone) {
      ++report.failed;
      report.problem(std::string("restore: ") + service::to_cstring(err));
      return t;
    }
    if (i != 0) continue;
    if (restored.metrics().completed != completed) {
      report.problem("restored service reports a different completed count");
    }
    for (const auto& [id, original] : sample) {
      const auto again = restored.poll(id);
      if (!again.has_value() || !same_result(*again, original)) {
        report.problem("restored result differs for job " + std::to_string(id));
        break;
      }
    }
  }
  t.restore_ms = median(std::move(restore_ms));
  return t;
}

void print_class_position(const char* workload,
                          const std::vector<JobRecord>& records) {
  if (records.empty()) return;
  std::vector<std::pair<double, std::string>> ranked;
  for (const JobRecord& r : records) {
    ranked.emplace_back(r.latency_s, r.outcome.estimator + "@" +
                                         std::to_string(static_cast<long long>(r.outcome.n_true)));
  }
  std::sort(ranked.begin(), ranked.end());
  const auto n = static_cast<double>(ranked.size());
  std::map<std::string, std::vector<double>> by_class;
  for (const auto& [latency, label] : ranked) by_class[label].push_back(latency);
  for (const auto& [label, v] : by_class) {
    std::fprintf(stderr, "%s: class %-22s share %5.1f%%  p50 %8.3f ms  p99 %8.3f ms\n",
                 workload, label.c_str(), 100.0 * static_cast<double>(v.size()) / n,
                 median(v) * 1e3, quantile(v, 0.99) * 1e3);
  }
  for (const double q : {0.5, 0.99}) {
    const auto at = static_cast<std::size_t>(q * (n - 1.0));
    const auto half = static_cast<std::size_t>(0.02 * n);
    const std::size_t lo = at > half ? at - half : 0;
    const std::size_t hi = std::min(ranked.size() - 1, at + half);
    std::size_t same = 0;
    for (std::size_t i = lo; i <= hi; ++i) same += ranked[i].second == ranked[at].second;
    std::fprintf(stderr, "%s: p%g %.3f ms in class %s (%.0f%% of the jobs ranked within 2%%)\n",
                 workload, q * 100.0, ranked[at].first * 1e3, ranked[at].second.c_str(),
                 100.0 * static_cast<double>(same) / static_cast<double>(hi - lo + 1));
  }
}

unsigned client_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

}  // namespace perfbench
