#pragma once
// FrameEngine — the one frame executor.
//
// Every protocol in this repository reduces to four frame shapes
// (Bloom, ALOHA, single-slot, lottery), each run in one of two modes:
// exact (every tag decides for itself) or sampled (aggregate-law
// responder counts). The engine puts all 4 × 2 behind one
// `FrameRequest` → `FrameResult` seam, with one pipeline per mode:
//
//  * exact mode — the plan/render/reduce walk: each frame is hoisted
//    into a small plan (slot geometry + a per-tag decision rule), the
//    render stage walks the population across shards with
//    counter-addressed randomness (util::splitmix_at over a per-frame
//    SeedMixer base, exactly one caller-RNG draw per stochastic frame)
//    into shard-private planes, and the reduce stage merges the planes
//    and observes through the channel in request order;
//  * sampled mode — the batched sampler: every binomial responder draw
//    on the caller's stream in request order, the response scatter
//    counter-addressed across shards, channel observation in request
//    order.
//
// `execute` is a one-request batch. Both pipelines reuse scratch
// buffers across calls and keep per-shape execution counters (frames,
// slots, tag transmissions, host wall-clock).
//
// Determinism contract (docs/SIMULATOR.md, "Determinism"): results are
// a pure function of the engine state, the request list and the RNG
// state, bit-identical for any shard count and instruction set. Frames
// whose tag-side decisions draw no RNG (kRnBits Bloom, p = 1 ALOHA,
// single-slot, lottery) keep the bits and the caller-stream position
// of the pre-engine scalar executors; stochastic-persistence exact
// frames and the sampled Bloom/ALOHA scatter keep their law but not
// their bits.

#include <array>
#include <cstddef>
#include <cstdint>
#include <variant>
#include <vector>

#include "rfid/channel.hpp"
#include "rfid/frame.hpp"
#include "rfid/population.hpp"
#include "util/bitvector.hpp"
#include "util/rng.hpp"

namespace bfce::rfid {

/// The four frame shapes. Values index EngineCounters::by_shape.
enum class FrameShape : std::uint8_t {
  kBloom = 0,
  kAloha = 1,
  kSingleSlot = 2,
  kLottery = 3,
};

inline constexpr std::size_t kFrameShapeCount = 4;

/// Short lowercase label ("bloom", "aloha", ...).
const char* to_cstring(FrameShape shape) noexcept;

/// Parameters of one slotted-ALOHA frame (1 hashed slot, persistence p).
struct AlohaFrameConfig {
  std::uint32_t f = 128;   ///< frame size in slots
  double p = 1.0;          ///< persistence probability
  std::uint64_t seed = 0;  ///< broadcast slot-hash seed
};

/// Parameters of one ZOE-style single-slot frame.
struct SingleSlotConfig {
  double q = 1.0;          ///< participation probability
  std::uint64_t seed = 0;  ///< broadcast participation-hash seed
};

/// Parameters of one geometric lottery frame.
struct LotteryFrameConfig {
  std::uint32_t f = 32;    ///< frame size in slots
  std::uint64_t seed = 0;  ///< broadcast geometric-hash seed
};

/// One frame to execute. The active alternative selects the shape; the
/// exact/sampled decision belongs to the engine's FrameMode.
struct FrameRequest {
  std::variant<BloomFrameConfig, AlohaFrameConfig, SingleSlotConfig,
               LotteryFrameConfig>
      config;

  FrameShape shape() const noexcept {
    return static_cast<FrameShape>(config.index());
  }

  static FrameRequest bloom(const BloomFrameConfig& cfg) {
    return FrameRequest{cfg};
  }
  static FrameRequest aloha(std::uint32_t f, double p, std::uint64_t seed) {
    return FrameRequest{AlohaFrameConfig{f, p, seed}};
  }
  static FrameRequest single_slot(double q, std::uint64_t seed) {
    return FrameRequest{SingleSlotConfig{q, seed}};
  }
  static FrameRequest lottery(std::uint32_t f, std::uint64_t seed) {
    return FrameRequest{LotteryFrameConfig{f, seed}};
  }
};

/// What one frame produced. Only the member matching the request's shape
/// is populated (`busy` for Bloom/lottery, `states` for ALOHA, `single`
/// for single-slot); `tx` always holds the number of individual tag
/// transmissions — the input to the tag-side energy model.
///
/// `busy` bit i is set ⇔ the reader sensed energy in slot i. The paper's
/// B has B(i) = 1 for *idle*; estimators convert.
struct FrameResult {
  FrameShape shape = FrameShape::kBloom;
  util::BitVector busy;
  std::vector<SlotState> states;
  SlotState single = SlotState::kIdle;
  std::uint64_t tx = 0;
};

/// Intra-frame parallelism: how many shards the pipeline splits a
/// frame's work across.
///
/// Exact mode: shard s owns a contiguous tag range and renders every
/// frame's decisions for its tags into private word-packed planes
/// (busy bitmaps for Bloom/lottery, a two-plane ≥1/≥2 bitmap for
/// ALOHA, responder tallies for single-slot; all cache-line padded);
/// the shards merge with word-wide ORs / sums. Sampled mode: shard s
/// owns a contiguous slice of every frame's response draws and
/// scatters them into private planes. Per-item decisions are
/// counter-addressed, so the shard count is purely a scheduling choice:
/// results are bit-identical for any value (tests assert 1/4/8).
struct ExecutionPolicy {
  /// Worker shards; 0 ⇒ util::default_thread_count() (BFCE_THREADS).
  std::uint32_t shards = 1;
  /// Work items (tags in exact mode, response draws in sampled mode)
  /// below shards·min_tags_per_shard run on fewer shards.
  std::size_t min_tags_per_shard = 4096;
  /// Gate for the AVX-512 decision/scatter kernels. Results are
  /// bit-identical with it on or off (tests flip this to compare SIMD
  /// vs scalar).
  bool allow_simd = true;

  /// One shard on the calling thread (the default).
  static constexpr ExecutionPolicy sequential() noexcept { return {}; }
  /// `count` shards; 0 ⇒ util::default_thread_count().
  static constexpr ExecutionPolicy sharded(std::uint32_t count = 0) noexcept {
    ExecutionPolicy policy;
    policy.shards = count;
    return policy;
  }
};

/// Execution counters for one frame shape.
struct ShapeCounters {
  std::uint64_t frames = 0;   ///< frames executed
  std::uint64_t slots = 0;    ///< slots simulated (w, f or 1 per frame)
  std::uint64_t tag_tx = 0;   ///< individual tag transmissions generated
  /// Host wall-clock spent executing, read once per execute() call or
  /// per execute_batch() call, never per frame inside a batch: a batch's
  /// whole wall time is charged to its first request's shape.
  double wall_us = 0.0;

  ShapeCounters& operator+=(const ShapeCounters& o) noexcept {
    frames += o.frames;
    slots += o.slots;
    tag_tx += o.tag_tx;
    wall_us += o.wall_us;
    return *this;
  }
};

/// Per-shape counters plus batch statistics. Summable across engines
/// (sim::summarize_records aggregates them over trials).
struct EngineCounters {
  std::array<ShapeCounters, kFrameShapeCount> by_shape{};
  std::uint64_t batches = 0;          ///< execute_batch calls
  std::uint64_t sharded_walks = 0;    ///< passes split over ≥ 2 shards
  std::uint64_t sampled_batches = 0;  ///< batched-sampler passes

  ShapeCounters& of(FrameShape s) noexcept {
    return by_shape[static_cast<std::size_t>(s)];
  }
  const ShapeCounters& of(FrameShape s) const noexcept {
    return by_shape[static_cast<std::size_t>(s)];
  }

  /// Sum over all shapes.
  ShapeCounters total() const noexcept {
    ShapeCounters t;
    for (const ShapeCounters& s : by_shape) t += s;
    return t;
  }

  EngineCounters& operator+=(const EngineCounters& o) noexcept {
    for (std::size_t i = 0; i < kFrameShapeCount; ++i) {
      by_shape[i] += o.by_shape[i];
    }
    batches += o.batches;
    sharded_walks += o.sharded_walks;
    sampled_batches += o.sampled_batches;
    return *this;
  }
};

/// Batched frame executor over one tag population (or, in sampled mode,
/// over an abstract cardinality). Not thread-safe; one engine per reader
/// context / per worker, exactly like the RNG streams it consumes.
class FrameEngine {
 public:
  /// Engine over a concrete population; serves both modes.
  FrameEngine(const TagPopulation& tags, Channel channel, FrameMode mode,
              ExecutionPolicy policy = {})
      : tags_(&tags),
        n_(tags.size()),
        channel_(channel),
        mode_(mode),
        policy_(policy) {}

  /// Sampled-only engine over an abstract cardinality `n` (no per-tag
  /// state exists, so kExact requests are invalid).
  FrameEngine(std::size_t n, Channel channel)
      : tags_(nullptr), n_(n), channel_(channel), mode_(FrameMode::kSampled) {}

  [[nodiscard]] FrameMode mode() const noexcept { return mode_; }
  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }
  [[nodiscard]] std::size_t population_size() const noexcept { return n_; }

  /// The intra-frame parallelism policy (see ExecutionPolicy).
  [[nodiscard]] const ExecutionPolicy& policy() const noexcept { return policy_; }
  void set_policy(ExecutionPolicy policy) noexcept { policy_ = policy; }

  /// Executes one frame in the engine's mode: a one-request batch.
  FrameResult execute(const FrameRequest& request, util::Xoshiro256ss& rng);

  /// Executes a batch of frames (any shape mix) through one pipeline
  /// pass: the plan/render/reduce walk in exact mode, the batched
  /// sampler in sampled mode. Timed once for the whole batch, the wall
  /// time charged to the first request's shape.
  std::vector<FrameResult> execute_batch(
      const std::vector<FrameRequest>& requests, util::Xoshiro256ss& rng);

  [[nodiscard]] const EngineCounters& counters() const noexcept { return counters_; }
  void reset_counters() noexcept { counters_ = EngineCounters{}; }

 private:
  /// One sampled frame's plan (see execute_sampled).
  struct SampledPlan {
    FrameShape shape = FrameShape::kBloom;
    std::uint32_t w = 1;           ///< slot count (w / f / 1)
    std::size_t offset = 0;        ///< lottery counts, into batch_counts_
    std::size_t word_offset = 0;   ///< plane one, into a shard slice
    std::size_t word_offset2 = 0;  ///< plane two (ALOHA only)
    std::uint64_t draws = 0;       ///< uniform slot-scatter draws
    std::uint64_t base = 0;        ///< counter base for the scatter
    std::uint64_t responders = 0;  ///< single-slot responder count
  };

  /// Runs requests[0..m) through the mode's pipeline into out[0..m),
  /// counting and timing the pass.
  void run(const FrameRequest* requests, std::size_t m, FrameResult* out,
           util::Xoshiro256ss& rng);

  /// The exact-mode plan/render/reduce walk.
  void execute_exact(const FrameRequest* requests, std::size_t m,
                     FrameResult* out, util::Xoshiro256ss& rng);

  /// The batched sampler: all sampled-mode frames planned in one pass
  /// (binomials on the caller's stream, request order), response draws
  /// scattered across shards, planes merged and observed in request
  /// order.
  void execute_sampled(const FrameRequest* requests, std::size_t m,
                       FrameResult* out, util::Xoshiro256ss& rng);

  /// Shard count the policy resolves to for `work` items (tags in exact
  /// mode, response draws in sampled mode).
  [[nodiscard]] std::uint32_t effective_shards(std::size_t work) const noexcept;

  const TagPopulation* tags_;
  std::size_t n_;
  Channel channel_;
  FrameMode mode_;
  ExecutionPolicy policy_;
  EngineCounters counters_;
  std::vector<SampledPlan> sampled_plans_;   ///< sampler plan scratch
  std::vector<std::uint32_t> batch_counts_;  ///< sampled lottery counts
  std::vector<std::uint64_t> shard_bits_;    ///< walk + sampler word planes
  std::vector<std::uint64_t> shard_tx_;      ///< walk tx tallies
  std::vector<std::uint16_t> lane_scratch_;  ///< walk lane ids
  std::vector<std::uint32_t> slot_scratch_;  ///< sampler scatter slot ids
};

}  // namespace bfce::rfid
