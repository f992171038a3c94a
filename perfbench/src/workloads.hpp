#pragma once
// The benchmark's workloads. Each sets itself up several times (the
// median is setup_s), then runs whole rounds until --seconds have passed,
// checks every outcome, and reports the end-to-end metrics, or with
// --trace 1 runs one round plus the traced replay and reports the
// per-layer metrics.

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// Portable jobs through the AF_UNIX wire front door, sampled mode:
/// closed-loop capacity phase, then an open-loop Poisson phase at half
/// that capacity. Run by hand only: it is not in BENCHMARK.json, because
/// its timings follow the host's vCPU scheduling more than the program
/// (see README.md).
void run_wire_fleet(const Args& args, Report& report);

/// One warm-up and one measured wire_fleet round, for sampled_soak's
/// traced run: fills the wire and materialization layer metrics, counts
/// the requests in `report` and checks their outcomes.
void measure_wire_layers(std::uint64_t seed, LayerMetrics& layers, Report& report);

/// In-process pointer jobs over 2·10⁵–2·10⁶-tag populations, exact mode,
/// closed loop of nproc clients.
void run_exact_bigpop(const Args& args, Report& report);

/// In-process pointer jobs, sampled mode, one submitter keeping a fixed
/// window of outstanding jobs; metrics() polled at a fixed job interval;
/// each round ends in snapshot, save, load and restore.
void run_sampled_soak(const Args& args, Report& report);

}  // namespace perfbench
