// Fig 9 — accuracy comparison of BFCE vs ZOE vs SRC on the T2
// distribution:
//   (a) vs n, (ε, δ) = (0.05, 0.05);
//   (b) vs ε, n = 500000, δ = 0.05;
//   (c) vs δ, n = 500000, ε = 0.05.
//
// Paper shape: all three usually meet the requirement, but ZOE and SRC
// show occasional violations (their accuracy depends on the luck of the
// rough-estimation phase); BFCE meets it in every run.
//
// Flags: [--trials=15] [--exact] [--shards=N] — --shards splits every
// trial's frame pipeline over N shards (results are a pure function of
// the per-point seed for any shard count).

#include <iostream>

#include "comparison_common.hpp"
#include "core/monitor.hpp"

using namespace bfce;

namespace {

void sweep(const char* title, bench::PopulationCache& pops,
           const util::Cli& cli, std::size_t trials,
           const std::vector<std::tuple<std::size_t, double, double>>& axis,
           const char* axis_name) {
  util::Table table({axis_name, "protocol", "acc_mean", "acc_max",
                     "violation_rate"});
  for (const auto& [n, eps, delta] : axis) {
    for (const std::string& proto : bench::comparison_protocols()) {
      const auto s =
          bench::comparison_point(pops, proto, n, eps, delta, cli, trials);
      std::string x;
      if (std::string(axis_name) == "n") {
        x = util::Table::num(static_cast<std::uint64_t>(n));
      } else if (std::string(axis_name) == "eps") {
        x = util::Table::num(eps, 2);
      } else {
        x = util::Table::num(delta, 2);
      }
      table.add_row({x, proto, util::Table::num(s.accuracy.mean, 4),
                     util::Table::num(s.accuracy.max, 4),
                     util::Table::num(s.violation_rate, 3)});
    }
  }
  bench::emit(cli, title, table);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"trials", "exact", "shards"});
  const auto trials = static_cast<std::size_t>(cli.get_int("trials", 15));
  bench::PopulationCache pops(cli.seed());

  std::vector<std::tuple<std::size_t, double, double>> axis_n;
  for (const std::size_t n : bench::comparison_ns()) {
    axis_n.emplace_back(n, 0.05, 0.05);
  }
  sweep("Fig 9(a): accuracy vs n on T2, (eps,delta)=(0.05,0.05)", pops, cli,
        trials, axis_n, "n");

  std::vector<std::tuple<std::size_t, double, double>> axis_eps;
  for (const double eps : bench::comparison_eps()) {
    axis_eps.emplace_back(500000, eps, 0.05);
  }
  sweep("Fig 9(b): accuracy vs eps on T2, n=500000, delta=0.05", pops, cli,
        trials, axis_eps, "eps");

  std::vector<std::tuple<std::size_t, double, double>> axis_delta;
  for (const double delta : bench::comparison_deltas()) {
    axis_delta.emplace_back(500000, 0.05, delta);
  }
  sweep("Fig 9(c): accuracy vs delta on T2, n=500000, eps=0.05", pops, cli,
        trials, axis_delta, "delta");

  std::puts("shape check (paper): BFCE violation_rate <= delta everywhere "
            "with mean accuracy well under eps; ZOE/SRC mostly comply but "
            "show occasional acc_max spikes driven by bad rough estimates "
            "(the paper's n=50000 SRC and delta=0.3 ZOE exceptions).");
  std::cout << "\n== frame-engine counters (all sweeps) ==\n"
            << core::render_engine_counters(bench::comparison_counters());
  return 0;
}
