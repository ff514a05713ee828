// Network fault model: lossy, slow, duplicating, partitionable links
// between the dispatcher and its machines.
//
// The paper's dispatcher talks to machines over an implicitly perfect
// network — the only communication artifact in the base model is the
// §4.2 detection-interval + message-delay pair on Least-Load feedback
// reports. This module makes the network a first-class, opt-in fault
// domain:
//
//  * LinkFaults — per-direction message loss, extra exponential delay
//    with a heavy-tail knob (hyperexponential: with probability
//    tail_prob the delay mean is multiplied by tail_factor), and
//    duplication. Independent i.i.d. delays reorder messages naturally.
//  * Partition — a timed window during which the dispatcher is cut off
//    from a subset of machines: dispatch messages, reports and
//    heartbeats to/from those machines are dropped at send time. The
//    machines keep running; a partition loses messages, not jobs.
//  * HeartbeatConfig — a phi-accrual-style failure detector replacing
//    PR 1's fixed detection delay: machines emit heartbeats every
//    `interval` seconds over the report link, and the dispatcher
//    suspects a machine once the time since the last heartbeat exceeds
//    phi_threshold · mean-interarrival · ln 10 (the exponential
//    approximation of the accrual score φ(t) = elapsed/(mean·ln 10)).
//    Suspicion and recovery feed FaultAwareDispatcher and the circuit
//    breaker through the same on_machine_state_report channel as crash
//    reports — a false suspicion during a partition trips breakers and
//    reroutes, it does not evict jobs.
//
// Request hedging (the tail-tolerance counterpart) is configured on the
// dispatcher side — see dispatch/hedged.h; it rides the same
// asynchronous dispatch path this module turns on.
//
// All randomness is drawn from the dedicated rng::Stream::kNetwork
// stream and partitions are pre-expanded into a deterministic timeline
// (like faults.h), so runs stay bit-identical and replayable.
// Default-constructed, everything is off: the simulation takes no
// network branches, draws no network RNG, and replays bit-identically
// to pre-network builds. docs/FAULT_MODEL.md §8 specifies the
// semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/rng.h"

namespace hs::cluster {

/// Fault model of one link direction (dispatcher→machine or
/// machine→dispatcher). Applied per message copy.
struct LinkFaults {
  /// Probability a message copy is silently lost in transit.
  double loss = 0.0;
  /// Mean of the extra exponential transit delay (0 = no extra delay;
  /// the §4.2 base feedback delay still applies to reports).
  double delay_mean = 0.0;
  /// Probability a delay draw comes from the heavy tail instead of the
  /// body (hyperexponential two-phase mixture).
  double tail_prob = 0.0;
  /// Tail mean multiplier: tail draws use mean delay_mean · tail_factor.
  double tail_factor = 1.0;
  /// Probability a delivered message arrives twice (the duplicate takes
  /// an independent delay draw; receivers dedup by job id).
  double duplicate = 0.0;

  [[nodiscard]] bool enabled() const {
    return loss > 0.0 || delay_mean > 0.0 || duplicate > 0.0;
  }

  /// One extra-transit-delay draw. Zero (and zero RNG draws) when
  /// delay_mean is 0, so loss-only links perturb no delay stream.
  [[nodiscard]] double sample_delay(rng::Xoshiro256& gen) const;

  /// Throws util::CheckError on out-of-range fields; `link` names the
  /// offending field in messages ("network dispatch_link: ...").
  void validate(const char* link) const;
};

/// A timed partition window: during [start, start + duration) the
/// dispatcher cannot exchange messages with any machine in `machines`.
struct Partition {
  double start = 0.0;
  double duration = 0.0;
  std::vector<size_t> machines;
};

/// Heartbeat-based failure detection (phi-accrual style, exponential
/// approximation). Off when interval == 0; when on, it replaces the
/// out-of-band crash/recovery state reports of PR 1 as the fault signal
/// feeding fault-aware dispatchers and circuit breakers.
struct HeartbeatConfig {
  /// Seconds between heartbeats from each machine (0 = detector off).
  double interval = 0.0;
  /// Suspicion threshold φ*: suspect once φ(t) = elapsed/(mean·ln 10)
  /// reaches this value, i.e. after threshold·mean·ln 10 of silence.
  /// φ* = k means "the accrual score says the miss probability is
  /// 10⁻ᵏ assuming exponential interarrivals".
  double phi_threshold = 8.0;
  /// EWMA weight of the newest heartbeat interarrival in the mean
  /// estimate (higher adapts faster, suspects more eagerly after
  /// jitter).
  double ewma_alpha = 0.1;

  [[nodiscard]] bool enabled() const { return interval > 0.0; }
  void validate() const;

  /// Silence duration at which φ reaches phi_threshold for a given
  /// mean interarrival estimate.
  [[nodiscard]] double timeout(double mean_interarrival) const;
};

/// One machine's φ-accrual detector: its last heartbeat and the EWMA of
/// heartbeat interarrivals; HeartbeatConfig::timeout(mean) bounds the
/// silence. The owner arms it as {start, interval}: the simulator at
/// t = 0 for every machine, serving at a backend's first heartbeat.
struct PhiDetector {
  double last = 0.0;
  double mean = 0.0;

  /// Fold in a heartbeat seen at `now`; a negative gap (a clock that
  /// stepped back) changes nothing.
  void beat(double now, double alpha) {
    const double gap = now - last;
    if (gap >= 0.0) {
      mean = (1.0 - alpha) * mean + alpha * gap;
      last = now;
    }
  }
};

/// Everything the network layer may inject into one run. Plain data,
/// safe to copy across the experiment runner's worker threads.
struct NetworkConfig {
  /// §4.2 feedback model (moved here from SimulationConfig so report
  /// delay and dispatch delay come from one place): a feedback message
  /// is seen U(0, detection_interval) + Exp(message_delay_mean) after
  /// the event it reports. The defaults preserve the paper's values
  /// bit-for-bit.
  double detection_interval = 1.0;
  double message_delay_mean = 0.05;

  /// dispatcher → machine link (dispatch messages, hedge copies).
  LinkFaults dispatch_link;
  /// machine → dispatcher link (departure reports, heartbeats).
  LinkFaults report_link;
  /// Timed partitions isolating the dispatcher from machine subsets.
  std::vector<Partition> partitions;
  /// Heartbeat failure detection.
  HeartbeatConfig heartbeat;

  /// True if any network feature is on. When false the simulation takes
  /// no network branches, draws no network RNG, and replays
  /// bit-identically to pre-network builds (pinned by the golden
  /// determinism tests).
  [[nodiscard]] bool enabled() const {
    return dispatch_link.enabled() || report_link.enabled() ||
           !partitions.empty() || heartbeat.enabled();
  }

  /// Throws util::CheckError on out-of-range fields, machine indices
  /// >= machine_count, or overlapping partition windows on the same
  /// machine.
  void validate(size_t machine_count, double sim_time) const;
};

/// One edge of the pre-derived partition timeline.
struct PartitionEvent {
  double time = 0.0;
  size_t machine = 0;
  bool isolated = false;  // true = window opens, false = it closes
};

/// Expand the partition windows into a flat per-machine edge timeline,
/// sorted by (time, machine, close-before-open). A pure function of the
/// config, so the timeline is deterministic and replayable; windows may
/// extend past the horizon (the drain still fires their close edges).
[[nodiscard]] std::vector<PartitionEvent> build_partition_timeline(
    const std::vector<Partition>& partitions);

}  // namespace hs::cluster
