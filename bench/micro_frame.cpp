// Micro-benchmarks (google-benchmark): frame-executor throughput — the
// simulator's hot path. Shows the exact/sampled cost gap that motivates
// the two-mode design (DESIGN.md §5) and what sharding one frame's work
// across workers buys.
//
// Two entry points:
//   * default — the usual google-benchmark driver (filters, repetitions,
//     --benchmark_* flags all work);
//   * `--baseline` — a self-timed comparison at n ∈ {1e4, 1e5, 1e6},
//     written as machine-readable JSON to BENCH_frame.json (and echoed
//     to stdout): a 16-frame exact Bloom batch, the same batch in
//     sampled mode and a 16-frame exact ALOHA batch, each through the
//     default one-shard policy (the `engine` / `sampled` / `aloha`
//     columns) and through ExecutionPolicy::sharded() (the `*_sharded`
//     columns, BFCE_THREADS shards).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "rfid/frame_engine.hpp"
#include "rfid/population.hpp"
#include "util/rng.hpp"

namespace {

using namespace bfce;

constexpr std::size_t kBatchFrames = 16;

const rfid::TagPopulation& pop_of(std::size_t n) {
  static std::map<std::size_t, rfid::TagPopulation> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache
             .emplace(n, rfid::make_population(
                             n, rfid::TagIdDistribution::kT1Uniform, n))
             .first;
  }
  return it->second;
}

rfid::BloomFrameConfig bloom_cfg() {
  rfid::BloomFrameConfig cfg;
  cfg.set_p_numerator(64);
  cfg.seeds = {1, 2, 3};
  return cfg;
}

/// The 16-frame Bloom batch of the acceptance benchmark: same (w, k, p)
/// at 16 distinct seed triples, as a probe sequence would broadcast.
std::vector<rfid::FrameRequest> bloom_batch() {
  std::vector<rfid::FrameRequest> batch;
  batch.reserve(kBatchFrames);
  for (std::size_t i = 0; i < kBatchFrames; ++i) {
    rfid::BloomFrameConfig cfg = bloom_cfg();
    cfg.seeds = {3 * i + 1, 3 * i + 2, 3 * i + 3};
    batch.push_back(rfid::FrameRequest::bloom(cfg));
  }
  return batch;
}

/// 16 exact ALOHA frames (f = 1024, p = 1) at distinct seeds — the
/// non-Bloom probe of the exact walk's two-plane ALOHA render.
std::vector<rfid::FrameRequest> aloha_batch() {
  std::vector<rfid::FrameRequest> batch;
  batch.reserve(kBatchFrames);
  for (std::size_t i = 0; i < kBatchFrames; ++i) {
    batch.push_back(rfid::FrameRequest::aloha(1024, 1.0, 100 + i));
  }
  return batch;
}

/// Runs `request` on `engine` once per benchmark iteration.
void run_frames(benchmark::State& state, rfid::FrameEngine& engine,
                const rfid::FrameRequest& request, std::uint64_t seed) {
  util::Xoshiro256ss rng(seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(request, rng));
  }
}

void BM_BloomFrameExact(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rfid::FrameEngine engine(pop_of(n), rfid::Channel{},
                           rfid::FrameMode::kExact);
  run_frames(state, engine, rfid::FrameRequest::bloom(bloom_cfg()), 1);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomFrameExact)->Arg(10000)->Arg(100000);

void BM_BloomFrameSampled(benchmark::State& state) {
  rfid::FrameEngine engine(static_cast<std::size_t>(state.range(0)),
                           rfid::Channel{});
  run_frames(state, engine, rfid::FrameRequest::bloom(bloom_cfg()), 2);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BloomFrameSampled)->Arg(10000)->Arg(100000)->Arg(1000000);

/// The 16-frame Bloom batch through one execute_batch call per
/// iteration, on `shards` shards (0 ⇒ BFCE_THREADS).
void bloom_batch16(benchmark::State& state, std::uint32_t shards) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  util::Xoshiro256ss rng(7);
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact,
                           rfid::ExecutionPolicy::sharded(shards));
  const auto batch = bloom_batch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute_batch(batch, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(kBatchFrames));
}

void BM_BloomBatch16Engine(benchmark::State& state) {
  bloom_batch16(state, 1);
}
BENCHMARK(BM_BloomBatch16Engine)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_BloomBatch16Sharded(benchmark::State& state) {
  bloom_batch16(state, 0);
}
BENCHMARK(BM_BloomBatch16Sharded)->Arg(10000)->Arg(100000)->Arg(1000000);

void BM_SingleSlotExact(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  util::Xoshiro256ss rng(3);
  const double q = 1.594 / static_cast<double>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.execute(rfid::FrameRequest::single_slot(q, ++seed), rng));
  }
}
BENCHMARK(BM_SingleSlotExact)->Arg(10000)->Arg(100000);

void BM_SingleSlotSampled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rfid::FrameEngine engine(n, rfid::Channel{});
  run_frames(state, engine,
             rfid::FrameRequest::single_slot(1.594 / static_cast<double>(n),
                                             0),
             4);
}
BENCHMARK(BM_SingleSlotSampled)->Arg(100000)->Arg(10000000);

void BM_LotteryFrameExact(benchmark::State& state) {
  const auto& pop = pop_of(static_cast<std::size_t>(state.range(0)));
  rfid::FrameEngine engine(pop, rfid::Channel{}, rfid::FrameMode::kExact);
  util::Xoshiro256ss rng(5);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.execute(rfid::FrameRequest::lottery(32, ++seed), rng));
  }
}
BENCHMARK(BM_LotteryFrameExact)->Arg(10000)->Arg(100000);

void BM_AlohaFrameSampled(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  rfid::FrameEngine engine(n, rfid::Channel{});
  run_frames(state, engine,
             rfid::FrameRequest::aloha(
                 1024, 1.594 * 1024 / static_cast<double>(n), 0),
             6);
}
BENCHMARK(BM_AlohaFrameSampled)->Arg(100000)->Arg(1000000);

// ---------------------------------------------------------------------
// --baseline: the self-timed acceptance comparison → BENCH_frame.json.

/// Best-of-reps seconds for one run of `body`; repeats until at least
/// `kMinReps` runs and `kMinTotalS` of accumulated time.
template <typename F>
double best_seconds(F&& body) {
  constexpr int kMinReps = 3;
  constexpr double kMinTotalS = 0.2;
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  double total = 0.0;
  for (int rep = 0; rep < kMinReps || total < kMinTotalS; ++rep) {
    const auto t0 = clock::now();
    body();
    const auto t1 = clock::now();
    const double s = std::chrono::duration<double>(t1 - t0).count();
    best = std::min(best, s);
    total += s;
  }
  return best;
}

/// Best-of seconds for one execute_batch of `batch` on `engine`.
double batch_seconds(rfid::FrameEngine& engine,
                     const std::vector<rfid::FrameRequest>& batch) {
  util::Xoshiro256ss rng(7);
  return best_seconds(
      [&] { benchmark::DoNotOptimize(engine.execute_batch(batch, rng)); });
}

/// One-shard and sharded seconds of `batch` on engines built by `make`.
struct PolicySeconds {
  double one, sharded;
};
template <typename Make>
PolicySeconds policy_seconds(const std::vector<rfid::FrameRequest>& batch,
                             Make&& make) {
  rfid::FrameEngine one = make();
  rfid::FrameEngine sharded = make();
  sharded.set_policy(rfid::ExecutionPolicy::sharded());
  return {batch_seconds(one, batch), batch_seconds(sharded, batch)};
}

int run_baseline() {
  const std::vector<std::size_t> ns = {10000, 100000, 1000000};
  const auto batch = bloom_batch();
  const auto exact_aloha = aloha_batch();
  const auto cfg = bloom_cfg();

  std::string json;
  char buf[2048];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"bench\": \"micro_frame\",\n"
                "  \"batch_frames\": %zu,\n"
                "  \"frame\": {\"w\": %u, \"k\": %u, \"p\": %.6f},\n"
                "  \"points\": [",
                kBatchFrames, cfg.w, cfg.k, cfg.p);
  json += buf;

  std::printf("16-frame batches through FrameEngine::execute_batch, one "
              "shard vs ExecutionPolicy::sharded():\n"
              "exact Bloom, the same Bloom batch in sampled mode, and "
              "exact ALOHA (f=1024, p=1)\n");
  std::printf("%10s %15s %15s %8s %15s %15s %8s %15s %15s %8s\n", "n",
              "engine_tags/s", "sharded_tags/s", "shard_x",
              "sampled_tags/s", "samp_shd_tags/s", "samp_x", "aloha_tags/s",
              "aloha_shd_tags/s", "aloha_x");

  bool first = true;
  for (const std::size_t n : ns) {
    const auto& pop = pop_of(n);
    const rfid::Channel ch;
    const PolicySeconds bloom = policy_seconds(batch, [&] {
      return rfid::FrameEngine(pop, ch, rfid::FrameMode::kExact);
    });
    const PolicySeconds sampled =
        policy_seconds(batch, [&] { return rfid::FrameEngine(n, ch); });
    const PolicySeconds aloha = policy_seconds(exact_aloha, [&] {
      return rfid::FrameEngine(pop, ch, rfid::FrameMode::kExact);
    });

    const double tags = static_cast<double>(n * kBatchFrames);
    std::printf(
        "%10zu %15.3e %15.3e %7.2fx %15.3e %15.3e %7.2fx %15.3e %15.3e "
        "%7.2fx\n",
        n, tags / bloom.one, tags / bloom.sharded, bloom.one / bloom.sharded,
        tags / sampled.one, tags / sampled.sharded,
        sampled.one / sampled.sharded, tags / aloha.one,
        tags / aloha.sharded, aloha.one / aloha.sharded);

    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"n\": %zu, \"engine_s\": %.6f, "
                  "\"sharded_s\": %.6f, \"engine_tags_per_s\": %.1f, "
                  "\"sharded_tags_per_s\": %.1f, "
                  "\"sharded_speedup\": %.3f,\n"
                  "     \"sampled_s\": %.6f, \"sampled_sharded_s\": %.6f, "
                  "\"sampled_tags_per_s\": %.1f, "
                  "\"sampled_sharded_tags_per_s\": %.1f, "
                  "\"sampled_sharded_speedup\": %.3f,\n"
                  "     \"aloha_s\": %.6f, \"aloha_sharded_s\": %.6f, "
                  "\"aloha_tags_per_s\": %.1f, "
                  "\"aloha_sharded_tags_per_s\": %.1f, "
                  "\"aloha_sharded_speedup\": %.3f}",
                  first ? "" : ",", n, bloom.one, bloom.sharded,
                  tags / bloom.one, tags / bloom.sharded,
                  bloom.one / bloom.sharded, sampled.one, sampled.sharded,
                  tags / sampled.one, tags / sampled.sharded,
                  sampled.one / sampled.sharded, aloha.one, aloha.sharded,
                  tags / aloha.one, tags / aloha.sharded,
                  aloha.one / aloha.sharded);
    json += buf;
    first = false;
  }
  json += "\n  ]\n}\n";

  const char* path = "BENCH_frame.json";
  if (std::FILE* f = std::fopen(path, "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", path);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--baseline") return run_baseline();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
