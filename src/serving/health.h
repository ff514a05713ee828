// Real-time backend health detection for the serving runtime.
//
// The simulator's robustness layers (PR 1/4/6) learn about failures
// from events the harness injects; a live load balancer has to *infer*
// them from what it can observe on its own clock. HealthTracker derives
// a per-backend Healthy/Suspect state machine from three such signals:
//
//  * Release deadlines — every acquire() arms a wall-clock deadline
//    `release_deadline` seconds out; a release that does not arrive in
//    time counts as a timeout, and `timeout_threshold` consecutive
//    timeouts make the backend Suspect. Because every deadline is
//    armed as now + release_deadline with `now` monotone under the
//    dispatch lock, the armed deadlines are FIFO-ordered by expiry —
//    so a preallocated ring buffer IS a deadline queue, and both
//    arming and expiry are O(1) with zero allocation (no wheel or
//    heap needed).
//  * Explicit outcomes — report_result(rejected) feeds the same
//    consecutive-failure counter; report_result(accepted) and any
//    in-time release reset it (and recover a Suspect backend).
//  * Heartbeats — backends that emit report_heartbeat() get the
//    simulator's phi-accrual detector (cluster::PhiDetector) re-driven
//    by wall time: an EWMA of heartbeat interarrivals per backend,
//    armed at its first heartbeat, suspicion once the silence exceeds
//    φ*·mean·ln 10 (cluster::HeartbeatConfig::timeout). This catches
//    idle backends that time out nothing because nothing was sent.
//
// Timeouts never un-arm a request: a release that arrives after its
// deadline still counts as a success signal (the backend is slow, not
// dead) and recovers the Suspect state. Releases are matched to armed
// deadlines FIFO per machine — acquire() returns no ticket, so the
// oldest outstanding arm is the canonical (conservative) match.
//
// The tracker is passive: it never reads a clock and never locks.
// ServingDispatcher drives it under the dispatch lock — on_acquire /
// on_release / on_result / on_heartbeat from the hot path, tick() from
// acquire() (deadline ring only, O(expired)) and from an explicit
// ServingDispatcher::tick() a watchdog thread calls (adds the O(n)
// heartbeat scan). State transitions are buffered and consumed by the
// dispatcher, which forwards them to the policy stack's existing
// on_machine_state_report channel — the same signal the simulator's
// fault layer delivers, so FaultAware/CircuitBreaker stacks route
// around a suspected backend with zero new plumbing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/netfaults.h"
#include "obs/trace.h"

namespace hs::serving {

struct HealthConfig {
  /// Seconds after acquire() within which release() is expected;
  /// 0 disables deadline tracking.
  double release_deadline = 0.0;
  /// Consecutive timeouts (or rejected results) that make a backend
  /// Suspect.
  size_t timeout_threshold = 3;
  /// Armed-deadline ring capacity. When more requests than this are in
  /// flight, the excess acquires are not deadline-tracked (counted in
  /// arm_drops()) — detection degrades gracefully instead of allocating.
  size_t max_tracked = size_t{1} << 16;
  /// Phi-accrual heartbeat detection (interval 0 = off). `interval` is
  /// only the EWMA seed hint in serving mode — the observed interarrival
  /// mean drives the timeout.
  cluster::HeartbeatConfig heartbeat;

  [[nodiscard]] bool enabled() const {
    return release_deadline > 0.0 || heartbeat.enabled();
  }
  /// Throws util::CheckError on out-of-range fields.
  void validate() const;
};

enum class MachineHealth : uint8_t { kHealthy, kSuspect };

/// One Healthy <-> Suspect flip, buffered for the dispatcher to forward
/// to the policy stack (up == false: suspected; true: recovered).
struct HealthTransition {
  uint32_t machine = 0;
  bool up = false;
  double time = 0.0;
  /// Suspicion: silence seconds (heartbeat) or consecutive failures
  /// (deadline/result path). Recovery: 0.
  double aux = 0.0;
};

/// Per-machine state as captured into / restored from an HSSNAP1
/// snapshot (serving/snapshot.h). In-flight deadline arms are *not*
/// part of it: requests owned by a crashed process are moot after a
/// restore.
struct MachineHealthRecord {
  uint32_t state = 0;  // MachineHealth code
  uint32_t consecutive_failures = 0;
  double suspected_at = 0.0;     // session time of the last suspicion
  double last_heartbeat = 0.0;   // session time of the last heartbeat
  double heartbeat_mean = 0.0;   // EWMA interarrival estimate
  uint64_t heartbeats = 0;       // heartbeats observed
};

class HealthTracker {
 public:
  /// Preallocates everything (the ring, per-machine arrays, the
  /// transition buffer); no method below allocates.
  HealthTracker(size_t machines, const HealthConfig& config);

  // ---- Signals (driven under the dispatch lock; `now` monotone) ----

  /// A request was routed to `machine`: arm its release deadline.
  void on_acquire(size_t machine, double now);
  /// A release arrived — success signal; absorbs the oldest armed
  /// deadline for `machine` (FIFO matching).
  void on_release(size_t machine, double now);
  /// An explicit dispatch outcome (report_result channel).
  void on_result(size_t machine, bool accepted, double now);
  /// A liveness heartbeat from `machine`.
  void on_heartbeat(size_t machine, double now);

  // ---- Advancing ----

  /// True when at least one armed deadline has expired by `now` — the
  /// one-compare gate the acquire hot path uses to skip tick() work.
  [[nodiscard]] bool deadline_pending(double now) const {
    return ring_count_ > 0 && ring_[ring_head_].deadline <= now;
  }

  /// Process expired deadlines (O(expired)); with `scan_heartbeats`,
  /// also run the O(n) phi-accrual silence scan. Appends Healthy <->
  /// Suspect flips to transitions(). Records kTimeout per expired
  /// deadline on the attached trace sink.
  void tick(double now, bool scan_heartbeats);

  /// Transitions accumulated since the last clear_transitions() —
  /// consume and forward to the policy stack, then clear.
  [[nodiscard]] std::span<const HealthTransition> transitions() const {
    return {transitions_.data(), transition_count_};
  }
  void clear_transitions() { transition_count_ = 0; }

  // ---- State queries ----

  [[nodiscard]] size_t machine_count() const { return state_.size(); }
  [[nodiscard]] MachineHealth state(size_t machine) const {
    return state_[machine];
  }
  [[nodiscard]] size_t healthy_count() const { return healthy_count_; }
  /// Deadline expiries observed (monotone).
  [[nodiscard]] uint64_t timeouts() const { return timeouts_; }
  /// Acquires that could not be deadline-tracked (ring full).
  [[nodiscard]] uint64_t arm_drops() const { return arm_drops_; }
  /// With every machine Suspect: the one suspected longest ago — the
  /// most likely to have quietly recovered (never-empty routing).
  [[nodiscard]] size_t least_recently_suspected() const;

  /// Trace kTimeout records here (nullptr = off).
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  // ---- Snapshot plumbing (serving/snapshot.h) ----

  [[nodiscard]] MachineHealthRecord record(size_t machine) const;
  /// Restore one machine's state from a snapshot record. Returns false
  /// (leaving the machine unchanged) on an invalid record. Deadline
  /// arms are dropped — see MachineHealthRecord.
  bool restore(size_t machine, const MachineHealthRecord& rec);

 private:
  struct Arm {
    double deadline = 0.0;
    uint32_t machine = 0;
  };

  void success(size_t machine, double now);
  void failure(size_t machine, double now, double aux);
  void push_transition(size_t machine, bool up, double now, double aux);

  HealthConfig config_;
  obs::TraceSink* trace_ = nullptr;

  // Armed-deadline FIFO ring (deadline-sorted by monotonicity of now).
  std::vector<Arm> ring_;
  size_t ring_head_ = 0;
  size_t ring_count_ = 0;

  // Per-machine state, indexed by machine.
  std::vector<MachineHealth> state_;
  std::vector<uint32_t> consecutive_failures_;
  std::vector<uint32_t> armed_;   // deadlines outstanding in the ring
  std::vector<uint32_t> absorb_;  // releases waiting to cancel an arm
  std::vector<double> suspected_at_;
  std::vector<cluster::PhiDetector> phi_;
  // Apart from phi_: the watchdog's silence scan reads every count.
  std::vector<uint64_t> heartbeats_;

  std::vector<HealthTransition> transitions_;  // capacity 2n, see .cpp
  size_t transition_count_ = 0;
  size_t healthy_count_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t arm_drops_ = 0;
  uint64_t transition_drops_ = 0;
};

}  // namespace hs::serving
