#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>

#include "util/rng.hpp"
#include "util/serial.hpp"

namespace bfce::service {

namespace {

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kMaxNoteBytes = 1 << 12;
/// Plausibility caps applied before any reservation during decode: the
/// CRC already rejects accidental corruption, these bound what a
/// deliberately crafted file can make the decoder allocate.
constexpr std::uint64_t kMaxSectionCount = std::uint64_t{1} << 24;

void encode_outcome(util::ByteWriter& w,
                    const estimators::EstimateOutcome& o) {
  w.f64(o.n_hat);
  w.f64(o.ci_low);
  w.f64(o.ci_high);
  w.u64(o.airtime.reader_bits);
  w.u64(o.airtime.tag_bits);
  w.u64(o.airtime.intervals);
  w.u64(o.airtime.tag_tx_bits);
  w.f64(o.time_us);
  w.u32(o.rounds);
  w.u8(o.met_by_design ? 1 : 0);
  w.str(o.note);
}

void decode_outcome(util::ByteReader& r, estimators::EstimateOutcome& o) {
  o.n_hat = r.f64();
  o.ci_low = r.f64();
  o.ci_high = r.f64();
  o.airtime.reader_bits = r.u64();
  o.airtime.tag_bits = r.u64();
  o.airtime.intervals = r.u64();
  o.airtime.tag_tx_bits = r.u64();
  o.time_us = r.f64();
  o.rounds = r.u32();
  o.met_by_design = r.u8() != 0;
  o.note = r.str(kMaxNoteBytes);
}

void encode_counters(util::ByteWriter& w, const rfid::EngineCounters& c) {
  w.u32(static_cast<std::uint32_t>(rfid::kFrameShapeCount));
  for (const rfid::ShapeCounters& s : c.by_shape) {
    w.u64(s.frames);
    w.u64(s.slots);
    w.u64(s.tag_tx);
    w.f64(s.wall_us);
  }
  w.u64(c.batches);
  w.u64(c.sharded_walks);
  w.u64(c.sampled_batches);
}

void decode_counters(util::ByteReader& r, rfid::EngineCounters& c) {
  // The shape count is structural: a snapshot from a build with a
  // different shape set is a different format (the version policy says
  // such a change must bump kSnapshotVersion, and this check backstops
  // a missed bump).
  if (r.u32() != rfid::kFrameShapeCount) {
    r.fail();
    return;
  }
  for (rfid::ShapeCounters& s : c.by_shape) {
    s.frames = r.u64();
    s.slots = r.u64();
    s.tag_tx = r.u64();
    s.wall_us = r.f64();
  }
  c.batches = r.u64();
  c.sharded_walks = r.u64();
  c.sampled_batches = r.u64();
}

void encode_track_result(util::ByteWriter& w,
                         const tracking::TrackResult& t) {
  w.u64(t.reader_id);
  w.u64(t.trajectory.size());
  for (const tracking::TrackPoint& p : t.trajectory) {
    w.u64(p.round);
    w.u64(p.true_n);
    w.f64(p.raw_n_hat);
    w.f64(p.tracked_n);
    w.f64(p.predicted_n);
    w.f64(p.innovation);
    w.f64(p.residual);
    w.f64(p.gain);
    w.f64(p.variance);
    w.f64(p.measurement_sd);
    w.f64(p.p_o);
    w.u8(p.met_by_design ? 1 : 0);
    w.f64(p.airtime_s);
  }
  w.u64(t.summary.rounds);
  w.f64(t.summary.raw_rmse);
  w.f64(t.summary.tracked_rmse);
  w.f64(t.summary.raw_rel_rmse);
  w.f64(t.summary.tracked_rel_rmse);
  w.f64(t.summary.innovation_rms);
  w.f64(t.summary.residual_rms);
  w.f64(t.summary.airtime_s);
  w.u64(t.summary.design_misses);
}

void decode_track_result(util::ByteReader& r, tracking::TrackResult& t) {
  t.reader_id = r.u64();
  const std::uint64_t points = r.u64();
  if (points > kMaxSectionCount || !r.fits(points, 97)) {
    r.fail();
    return;
  }
  t.trajectory.reserve(static_cast<std::size_t>(points));
  for (std::uint64_t i = 0; i < points; ++i) {
    tracking::TrackPoint p;
    p.round = static_cast<std::size_t>(r.u64());
    p.true_n = static_cast<std::size_t>(r.u64());
    p.raw_n_hat = r.f64();
    p.tracked_n = r.f64();
    p.predicted_n = r.f64();
    p.innovation = r.f64();
    p.residual = r.f64();
    p.gain = r.f64();
    p.variance = r.f64();
    p.measurement_sd = r.f64();
    p.p_o = r.f64();
    p.met_by_design = r.u8() != 0;
    p.airtime_s = r.f64();
    if (!r.ok()) return;
    t.trajectory.push_back(p);
  }
  t.summary.rounds = static_cast<std::size_t>(r.u64());
  t.summary.raw_rmse = r.f64();
  t.summary.tracked_rmse = r.f64();
  t.summary.raw_rel_rmse = r.f64();
  t.summary.tracked_rel_rmse = r.f64();
  t.summary.innovation_rms = r.f64();
  t.summary.residual_rms = r.f64();
  t.summary.airtime_s = r.f64();
  t.summary.design_misses = static_cast<std::size_t>(r.u64());
}

void encode_federation_result(util::ByteWriter& w,
                              const FederationResult& f) {
  w.u64(f.readers);
  w.u32(f.schedule_rounds);
  w.f64(f.fleet_airtime_s);
  w.f64(f.correction_g);
  w.f64(f.overlap_fraction);
  w.u64(f.merge.merges);
  w.u64(f.merge.word_ors);
  w.u32(f.merge.levels);
  w.u64(f.rng_fingerprint);
}

void decode_federation_result(util::ByteReader& r, FederationResult& f) {
  f.readers = static_cast<std::size_t>(r.u64());
  f.schedule_rounds = r.u32();
  f.fleet_airtime_s = r.f64();
  f.correction_g = r.f64();
  f.overlap_fraction = r.f64();
  f.merge.merges = r.u64();
  f.merge.word_ors = r.u64();
  f.merge.levels = r.u32();
  f.rng_fingerprint = r.u64();
}

}  // namespace

void encode_job_result(util::ByteWriter& w, const JobResult& result) {
  w.u8(static_cast<std::uint8_t>(result.status));
  encode_outcome(w, result.outcome);
  w.f64(result.airtime_s);
  w.u32(result.attempts);
  w.f64(result.queue_wait_s);
  w.f64(result.exec_s);
  w.f64(result.latency_s);
  encode_counters(w, result.counters);
  w.u8(result.tracking.has_value() ? 1 : 0);
  if (result.tracking.has_value()) encode_track_result(w, *result.tracking);
  w.u8(result.federation.has_value() ? 1 : 0);
  if (result.federation.has_value()) {
    encode_federation_result(w, *result.federation);
  }
}

void decode_job_result(util::ByteReader& r, JobResult& result) {
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(JobStatus::kFailed)) {
    r.fail();
    return;
  }
  result.status = static_cast<JobStatus>(status);
  decode_outcome(r, result.outcome);
  result.airtime_s = r.f64();
  result.attempts = r.u32();
  result.queue_wait_s = r.f64();
  result.exec_s = r.f64();
  result.latency_s = r.f64();
  decode_counters(r, result.counters);
  const std::uint8_t has_tracking = r.u8();
  if (has_tracking > 1) {
    r.fail();
    return;
  }
  if (has_tracking == 1) {
    tracking::TrackResult t;
    decode_track_result(r, t);
    result.tracking = std::move(t);
  }
  const std::uint8_t has_federation = r.u8();
  if (has_federation > 1) {
    r.fail();
    return;
  }
  if (has_federation == 1) {
    FederationResult f;
    decode_federation_result(r, f);
    result.federation = f;
  }
}

namespace {

std::vector<std::uint8_t> encode_payload(const ServiceSnapshot& snap) {
  util::ByteWriter w;
  w.u64(snap.substrate_fingerprint);
  w.u64(snap.next_id);
  w.u64(snap.rejected);
  w.u64(snap.non_portable_skipped);

  w.u8(snap.planner.present ? 1 : 0);
  if (snap.planner.present) {
    w.u32(snap.planner.n_low_mantissa_bits);
    w.u64(snap.planner.entries.size());
    for (const core::PlannerEntry& e : snap.planner.entries) {
      w.u64(e.n_low_bits);
      w.u32(e.w);
      w.u32(e.k);
      w.u64(e.eps_bits);
      w.u64(e.delta_bits);
      w.u32(e.choice.p_n);
      w.f64(e.choice.p);
      w.u8(e.choice.satisfies ? 1 : 0);
      w.f64(e.choice.margin);
    }
  }

  w.u64(snap.completed.size());
  for (const auto& [id, result] : snap.completed) {
    w.u64(id);
    encode_job_result(w, result);
  }

  w.u64(snap.pending.size());
  for (const auto& [id, spec] : snap.pending) {
    w.u64(id);
    encode_portable_job(w, spec);
  }
  return w.take();
}

SnapshotError decode_payload(const std::uint8_t* data, std::size_t size,
                             ServiceSnapshot& out) {
  util::ByteReader r(data, size);
  out.substrate_fingerprint = r.u64();
  out.next_id = r.u64();
  out.rejected = r.u64();
  out.non_portable_skipped = r.u64();

  const std::uint8_t planner_present = r.u8();
  if (!r.ok() || planner_present > 1) return SnapshotError::kMalformed;
  out.planner.present = planner_present == 1;
  if (out.planner.present) {
    out.planner.n_low_mantissa_bits = r.u32();
    const std::uint64_t entries = r.u64();
    if (entries > kMaxSectionCount || !r.fits(entries, 49)) {
      return SnapshotError::kMalformed;
    }
    out.planner.entries.reserve(static_cast<std::size_t>(entries));
    for (std::uint64_t i = 0; i < entries; ++i) {
      core::PlannerEntry e;
      e.n_low_bits = r.u64();
      e.w = r.u32();
      e.k = r.u32();
      e.eps_bits = r.u64();
      e.delta_bits = r.u64();
      e.choice.p_n = r.u32();
      e.choice.p = r.f64();
      e.choice.satisfies = r.u8() != 0;
      e.choice.margin = r.f64();
      if (!r.ok()) return SnapshotError::kMalformed;
      out.planner.entries.push_back(e);
    }
  }

  const std::uint64_t completed = r.u64();
  if (completed > kMaxSectionCount || !r.fits(completed, 8)) {
    return SnapshotError::kMalformed;
  }
  out.completed.reserve(static_cast<std::size_t>(completed));
  for (std::uint64_t i = 0; i < completed; ++i) {
    const JobId id = r.u64();
    JobResult result;
    decode_job_result(r, result);
    if (!r.ok()) return SnapshotError::kMalformed;
    if (!is_terminal(result.status)) return SnapshotError::kMalformed;
    result.id = id;
    out.completed.emplace_back(id, std::move(result));
  }

  const std::uint64_t pending = r.u64();
  if (pending > kMaxSectionCount || !r.fits(pending, 8)) {
    return SnapshotError::kMalformed;
  }
  out.pending.reserve(static_cast<std::size_t>(pending));
  for (std::uint64_t i = 0; i < pending; ++i) {
    const JobId id = r.u64();
    PortableJobSpec spec = decode_portable_job(r);
    if (!r.ok()) return SnapshotError::kMalformed;
    if (validate_portable_job(spec) != nullptr) {
      return SnapshotError::kMalformed;
    }
    out.pending.emplace_back(id, std::move(spec));
  }

  if (!r.exhausted()) return SnapshotError::kMalformed;
  return SnapshotError::kNone;
}

}  // namespace

const char* to_cstring(SnapshotError error) noexcept {
  switch (error) {
    case SnapshotError::kNone: return "ok";
    case SnapshotError::kIoError: return "io_error";
    case SnapshotError::kTruncated: return "truncated";
    case SnapshotError::kBadMagic: return "bad_magic";
    case SnapshotError::kBadVersion: return "bad_version";
    case SnapshotError::kChecksumMismatch: return "checksum_mismatch";
    case SnapshotError::kMalformed: return "malformed";
    case SnapshotError::kConfigMismatch: return "config_mismatch";
    case SnapshotError::kBadState: return "bad_state";
  }
  return "unknown";
}

std::uint64_t substrate_fingerprint(rfid::FrameMode mode,
                                    const rfid::ChannelModel& channel,
                                    const rfid::TimingModel& timing) noexcept {
  return util::SeedMixer(0x424653532D737562ULL)  // "BFSS-sub"
      .absorb(static_cast<std::uint64_t>(mode))
      .absorb(channel.false_busy_rate)
      .absorb(channel.false_idle_rate)
      .absorb(timing.reader_bit_us)
      .absorb(timing.tag_bit_us)
      .absorb(timing.interval_us)
      .value();
}

std::vector<std::uint8_t> encode_snapshot(const ServiceSnapshot& snap) {
  const std::vector<std::uint8_t> payload = encode_payload(snap);
  util::ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(kSnapshotVersion);
  w.u64(payload.size());
  w.u64(util::crc64(payload.data(), payload.size()));
  w.raw(payload.data(), payload.size());
  return w.take();
}

SnapshotError decode_snapshot(const std::uint8_t* data, std::size_t size,
                              ServiceSnapshot& out) {
  if (size < kHeaderBytes) return SnapshotError::kTruncated;
  util::ByteReader header(data, kHeaderBytes);
  const std::uint32_t magic = header.u32();
  if (magic != kSnapshotMagic) return SnapshotError::kBadMagic;
  const std::uint32_t version = header.u32();
  if (version != kSnapshotVersion) return SnapshotError::kBadVersion;
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t crc = header.u64();
  if (payload_size > size - kHeaderBytes) return SnapshotError::kTruncated;
  if (payload_size < size - kHeaderBytes) return SnapshotError::kMalformed;
  const std::uint8_t* payload = data + kHeaderBytes;
  if (util::crc64(payload, static_cast<std::size_t>(payload_size)) != crc) {
    return SnapshotError::kChecksumMismatch;
  }
  return decode_payload(payload, static_cast<std::size_t>(payload_size), out);
}

SnapshotError decode_snapshot(const std::vector<std::uint8_t>& bytes,
                              ServiceSnapshot& out) {
  return decode_snapshot(bytes.data(), bytes.size(), out);
}

SnapshotError save_snapshot(const ServiceSnapshot& snap,
                            const std::string& path) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(snap);

  char tmp_path[4096];
  std::snprintf(tmp_path, sizeof(tmp_path), "%s.tmp.%ld", path.c_str(),
                static_cast<long>(::getpid()));

  const int fd = ::open(tmp_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return SnapshotError::kIoError;

  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp_path);
      return SnapshotError::kIoError;
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: the atomic-replace guarantee is only as good
  // as the data being durable before the name flips over.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp_path);
    return SnapshotError::kIoError;
  }
  if (::rename(tmp_path, path.c_str()) != 0) {
    ::unlink(tmp_path);
    return SnapshotError::kIoError;
  }

  // Best-effort directory fsync so the rename itself is durable; some
  // filesystems refuse O_RDONLY directory fsync — not a data-loss path.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return SnapshotError::kNone;
}

SnapshotError load_snapshot(const std::string& path, ServiceSnapshot& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return SnapshotError::kIoError;

  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return SnapshotError::kIoError;
  }
  if (st.st_size < 0 ||
      static_cast<std::uint64_t>(st.st_size) > kMaxSnapshotBytes) {
    ::close(fd);
    return SnapshotError::kMalformed;
  }

  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return SnapshotError::kIoError;
    }
    if (n == 0) break;  // shrank underneath us; decode reports truncation
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  bytes.resize(got);
  return decode_snapshot(bytes, out);
}

}  // namespace bfce::service
