// Fault injection: machine crash/recovery processes and job retry policy.
//
// The paper's static policies compute their allocation once from nominal
// speeds; what happens when a machine actually dies is out of scope for
// the paper but central to the deployments it motivates (DNS round-robin,
// replicated web front-ends). This module defines an opt-in fault model
// for the cluster simulation:
//
//  * Each machine alternates up/down either stochastically (exponential
//    mean-time-between-failures / mean-time-to-repair) or on an explicit
//    scripted schedule. Both forms are expanded *up front* into one
//    deterministic event timeline derived from the run's seed, so fault
//    runs replicate bit-identically.
//  * A crash loses every job resident on the machine (in service and
//    queued); the scheduler learns of each loss only after the §4.2
//    detection-interval + message-delay model, then retries the job under
//    a bounded-attempts / exponential-backoff / deadline policy.
//
// Failure-aware routing on top of this model lives in
// dispatch/fault_aware.h; docs/FAULT_MODEL.md has the full semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hs::cluster {

class ChoiceHook;

/// How the scheduler retries a job whose dispatch attempt was lost to a
/// machine crash. A job is dispatched up to `max_attempts` times in
/// total; re-dispatch k (1-based) waits backoff_initial·backoff_factor^(k−1)
/// seconds after the loss is detected. When `job_timeout` > 0, a job is
/// dropped instead of retried if the retry would start more than
/// `job_timeout` seconds after its original arrival.
struct RetryPolicy {
  uint32_t max_attempts = 3;     // total dispatch attempts per job, 1..65536
  double backoff_initial = 1.0;  // seconds before the first re-dispatch
  double backoff_factor = 2.0;   // multiplier per further attempt, >= 1
  double job_timeout = 0.0;      // seconds since arrival; 0 = no deadline

  void validate() const;
};

/// Opt-in fault model for one simulation run. Default-constructed, it is
/// disabled and the simulation behaves exactly as without it (no extra
/// RNG draws, no extra events).
struct FaultConfig {
  /// Stochastic crash/recovery for one machine: up-times ~ Exp(mean mtbf),
  /// down-times ~ Exp(mean mttr). mtbf == 0 disables the process.
  struct MachineProcess {
    double mtbf = 0.0;  // mean up-time between crashes, seconds
    double mttr = 0.0;  // mean downtime until recovery, seconds
  };
  /// Either empty (no stochastic faults) or one entry per machine.
  std::vector<MachineProcess> processes;

  /// A scripted outage: `machine` is down during [start, start+duration).
  /// Outages may overlap each other and the stochastic process; the
  /// timeline builder merges overlapping down-intervals.
  struct Outage {
    double start = 0.0;
    double duration = 0.0;
    size_t machine = 0;
  };
  std::vector<Outage> outages;

  RetryPolicy retry;

  /// Test-only planted bug for the explorer harness (src/explore): when
  /// set, a job dropped on its third-or-later attempt is silently leaked
  /// from the whole-run drop counter, breaking the conservation identity
  /// total_arrivals = completed + shed + dropped + in_flight. Exists so
  /// the explorer's find → shrink → replay pipeline has a real, reachable
  /// defect to regress against; never set outside tests.
  bool test_only_drop_leak = false;

  /// True if any crash can occur (stochastic or scripted).
  [[nodiscard]] bool enabled() const;
  void validate(size_t machine_count, double sim_time) const;
};

/// One edge of a machine's availability timeline.
struct FaultEvent {
  double time = 0.0;
  size_t machine = 0;
  bool up = false;  // false = crash, true = recovery
};

/// Expand the fault config into a merged, time-sorted crash/recovery
/// timeline over [0, horizon]. Stochastic draws come from per-machine
/// streams derived from `seed`, so the timeline is a pure function of
/// (config, machine_count, horizon, seed). Per machine, events strictly
/// alternate crash → recovery; a trailing crash with recovery beyond the
/// horizon is kept (the machine stays down through the end of the run)
/// but the recovery itself is dropped.
///
/// `hook`, when non-null, observes/overrides each up-time and down-time
/// draw (ChoiceKind::kFaultUptime / kFaultDowntime, entity = machine);
/// the draw itself still happens so stream positions never shift.
/// Overridden durations are clamped to a small positive epsilon so a
/// zero override cannot stall the timeline loop.
[[nodiscard]] std::vector<FaultEvent> build_fault_timeline(
    const FaultConfig& config, size_t machine_count, double horizon,
    uint64_t seed, ChoiceHook* hook = nullptr);

/// Per-machine total downtime within [0, horizon] implied by `timeline`
/// (a machine down at the last event stays down until the horizon).
[[nodiscard]] std::vector<double> downtime_from_timeline(
    const std::vector<FaultEvent>& timeline, size_t machine_count,
    double horizon);

}  // namespace hs::cluster
