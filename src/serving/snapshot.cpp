#include "serving/snapshot.h"

#include <cmath>
#include <cstring>

#include "util/atomic_file.h"
#include "util/bytes.h"
#include "util/check.h"

namespace hs::serving {

namespace {

constexpr char kMagic[8] = {'H', 'S', 'S', 'N', 'A', 'P', '1', '\0'};
constexpr uint32_t kVersion = 1;
// magic + version + machine_count + 5×u64 + f64 + 4×u64 RNG state.
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 5 * 8 + 8 + 4 * 8;
constexpr size_t kHealthRecordBytes = 4 + 4 + 8 + 8 + 8 + 8;
// Snapshots describe a live cluster, not arbitrary data — a machine
// count beyond this is a corrupt header, not a big deployment.
constexpr uint32_t kMaxMachines = 1u << 24;
constexpr uint32_t kMaxPolicyName = 4096;

}  // namespace

void save_snapshot_binary(const std::string& path,
                          const ServingSnapshot& snapshot) {
  const size_t machines = snapshot.machine_count();
  HS_CHECK(machines >= 1 && machines <= kMaxMachines,
           "snapshot must cover at least one machine");
  HS_CHECK(snapshot.health.empty() || snapshot.health.size() == machines,
           "snapshot health section must be empty or one record per "
           "machine, got "
               << snapshot.health.size() << " for " << machines
               << " machines");
  HS_CHECK(snapshot.policy.size() <= kMaxPolicyName,
           "snapshot policy name too long: " << snapshot.policy.size());

  util::ByteWriter out;
  out.reserve(kHeaderBytes + snapshot.policy.size() +
              8 + 8 * snapshot.policy_state.size() + 4 * machines +
              kHealthRecordBytes * snapshot.health.size() + 16);
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(kVersion);
  out.u32(static_cast<uint32_t>(machines));
  out.u64(snapshot.seed);
  out.u64(snapshot.captured_unix_nanos);
  out.u64(snapshot.acquired);
  out.u64(snapshot.released);
  out.u64(snapshot.timeouts);
  out.f64(snapshot.session_time);
  for (uint64_t word : snapshot.rng_state) {
    out.u64(word);
  }

  // Variable sections, each length-prefixed.
  out.u64(snapshot.sheds);
  out.u32(static_cast<uint32_t>(snapshot.policy.size()));
  out.bytes(snapshot.policy.data(), snapshot.policy.size());
  out.u64(snapshot.policy_state.size());
  for (double v : snapshot.policy_state) {
    out.f64(v);
  }
  for (uint32_t count : snapshot.outstanding) {
    out.u32(count);
  }
  out.u32(snapshot.health.empty() ? 0u : 1u);
  for (const MachineHealthRecord& rec : snapshot.health) {
    out.u32(rec.state);
    out.u32(rec.consecutive_failures);
    out.f64(rec.suspected_at);
    out.f64(rec.last_heartbeat);
    out.f64(rec.heartbeat_mean);
    out.u64(rec.heartbeats);
  }

  // Atomic publish (temp + fsync + rename), same discipline as the
  // HSTRACE1 writer: a crash mid-save never leaves a torn snapshot.
  const std::vector<uint8_t> bytes = out.take();
  util::write_file_atomic(path, bytes.data(), bytes.size());
}

ServingSnapshot load_snapshot_binary(const std::string& path) {
  const std::vector<uint8_t> bytes = util::read_file(path);
  HS_CHECK(bytes.size() >= kHeaderBytes,
           "snapshot file too short (" << bytes.size() << " bytes): "
                                       << path);
  util::ByteReader in(bytes, path);
  HS_CHECK(std::memcmp(in.bytes(sizeof(kMagic)).data(), kMagic,
                       sizeof(kMagic)) == 0,
           "bad magic — not a hetsched snapshot file: " << path);
  const uint32_t version = in.u32();
  HS_CHECK(version == kVersion, "unsupported snapshot format version "
                                    << version << " in " << path);
  const uint32_t machines = in.u32();
  HS_CHECK(machines >= 1 && machines <= kMaxMachines,
           "snapshot machine count out of range: " << machines << " in "
                                                   << path);

  ServingSnapshot snap;
  snap.seed = in.u64();
  snap.captured_unix_nanos = in.u64();
  snap.acquired = in.u64();
  snap.released = in.u64();
  snap.timeouts = in.u64();
  snap.session_time = in.f64();
  HS_CHECK(std::isfinite(snap.session_time) && snap.session_time >= 0.0,
           "snapshot session time corrupt: " << snap.session_time << " in "
                                             << path);
  HS_CHECK(snap.released <= snap.acquired,
           "snapshot counters violate conservation: released "
               << snap.released << " > acquired " << snap.acquired << " in "
               << path);
  for (uint64_t& word : snap.rng_state) {
    word = in.u64();
  }

  snap.sheds = in.u64();
  const uint32_t name_len = in.u32();
  HS_CHECK(name_len <= kMaxPolicyName,
           "snapshot policy name length corrupt: " << name_len << " in "
                                                   << path);
  const std::span<const uint8_t> name = in.bytes(name_len);
  snap.policy.assign(name.begin(), name.end());

  const uint64_t state_len = in.u64();
  // Each value is 8 bytes, so the remaining byte count bounds the
  // plausible length — reject before reserving memory for a lie.
  HS_CHECK(state_len <= in.remaining() / 8,
           "snapshot policy state length corrupt: " << state_len << " in "
                                                    << path);
  snap.policy_state.reserve(state_len);
  for (uint64_t i = 0; i < state_len; ++i) {
    const double v = in.f64();
    HS_CHECK(!std::isnan(v),
             "snapshot policy state holds NaN at index " << i << ": "
                                                         << path);
    snap.policy_state.push_back(v);
  }

  snap.outstanding.reserve(machines);
  uint64_t outstanding_total = 0;
  for (uint32_t m = 0; m < machines; ++m) {
    const uint32_t count = in.u32();
    outstanding_total += count;
    snap.outstanding.push_back(count);
  }
  const uint64_t in_flight = snap.acquired - snap.released;
  HS_CHECK(outstanding_total == in_flight,
           "snapshot per-machine outstanding sums to "
               << outstanding_total << " but counters say " << in_flight
               << " in flight: " << path);

  const uint32_t has_health = in.u32();
  HS_CHECK(has_health <= 1,
           "snapshot health flag corrupt: " << has_health << " in " << path);
  if (has_health == 1) {
    snap.health.reserve(machines);
    for (uint32_t m = 0; m < machines; ++m) {
      MachineHealthRecord rec;
      rec.state = in.u32();
      rec.consecutive_failures = in.u32();
      rec.suspected_at = in.f64();
      rec.last_heartbeat = in.f64();
      rec.heartbeat_mean = in.f64();
      rec.heartbeats = in.u64();
      HS_CHECK(rec.state <= 1, "snapshot health state corrupt for machine "
                                   << m << ": " << rec.state << " in "
                                   << path);
      HS_CHECK(std::isfinite(rec.suspected_at) &&
                   std::isfinite(rec.last_heartbeat) &&
                   std::isfinite(rec.heartbeat_mean) &&
                   rec.heartbeat_mean >= 0.0,
               "snapshot health record corrupt for machine " << m << ": "
                                                             << path);
      snap.health.push_back(rec);
    }
  }
  HS_CHECK(in.remaining() == 0, "snapshot has " << in.remaining()
                                                << " trailing bytes: "
                                                << path);
  return snap;
}

}  // namespace hs::serving
