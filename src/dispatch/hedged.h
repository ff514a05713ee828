// Hedged-dispatch decorator: tail-tolerant duplicate requests.
//
// Wraps any Dispatcher and marks the stream for request hedging: when a
// job dispatched through this decorator has not completed
// `HedgingConfig::delay` seconds after its primary dispatch, the cluster
// harness asks pick_hedge() for a second-choice machine and sends a
// duplicate copy there. The first copy to complete wins; the harness
// evicts the losing copy and dedups duplicate completions, so the
// arrivals = completed + shed + dropped + in-flight identity still
// balances exactly-once (docs/FAULT_MODEL.md §8).
//
// The decorator itself is deliberately thin — the timers, the in-flight
// copy table, and the eviction live in the cluster harness, which is the
// only place that can observe completions and cancel work. What lives
// here is the hedging configuration and the hedge counters surfaced in
// SimulationResult. The second machine comes from the wrapped policy's
// own pick_hedge (Least-Load picks the second-least-loaded and bumps its
// estimate). Hedging only changes behavior when the network layer is on:
// the synchronous dispatch path never leaves a job in flight long enough
// to hedge.
//
// Composes in any order with FaultAwareDispatcher and
// CircuitBreakerDispatcher. It overrides only name() and reset() (which
// zeroes the counters, then resets the wrapped policy); every other
// hook, including set_available_mask, rebuild_fractions and the
// checkpoint pair, is dispatch::Decorator's verbatim forward — so a
// decorator outside that re-weights a static policy over the survivors
// reaches the policy through this layer, and a snapshot of the stack
// holds the policy's state. The hedge counters are run statistics, not
// routing state, and are not checkpointed.
//
// Threading: caller-serialized (dispatch/dispatcher.h) — the decorator
// adds only counters, but picks and counter updates forward into the
// wrapped policy's mutable state.
#pragma once

#include <memory>

#include "dispatch/decorator.h"

namespace hs::dispatch {

/// Tail-tolerant request hedging. Configured on the dispatcher (not in
/// cluster::NetworkConfig) because the wrapped policy owns the
/// second-choice decision; the cluster harness reads it through the
/// decorator. Hedging activates the asynchronous network dispatch path
/// even when no link faults are configured.
struct HedgingConfig {
  /// Seconds after the primary dispatch before the hedge copy is issued
  /// (0 = hedging off). Pick a high percentile of the no-fault response
  /// time so only stragglers are hedged.
  double delay = 0.0;

  [[nodiscard]] bool enabled() const { return delay > 0.0; }
  /// Throws util::CheckError on out-of-range fields.
  void validate() const;
};

class HedgedDispatcher final : public Decorator {
 public:
  HedgedDispatcher(std::unique_ptr<Dispatcher> inner,
                   HedgingConfig config);

  /// Zeroes the hedge counters, then resets the wrapped policy.
  void reset() override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] const HedgingConfig& config() const { return config_; }

  /// Harness callbacks — the cluster simulation drives the hedge
  /// lifecycle and records it here so the counters survive in one place.
  void record_issued() { ++issued_; }
  void record_won() { ++won_; }
  void record_cancelled() { ++cancelled_; }

  /// Hedge copies actually sent (timer fired and a distinct second
  /// machine existed).
  [[nodiscard]] uint64_t issued() const { return issued_; }
  /// Hedge copies that completed before their primary.
  [[nodiscard]] uint64_t won() const { return won_; }
  /// Copies cancelled because the sibling finished first (evictions plus
  /// late arrivals deduped after a win).
  [[nodiscard]] uint64_t cancelled() const { return cancelled_; }

 private:
  HedgingConfig config_;
  uint64_t issued_ = 0;
  uint64_t won_ = 0;
  uint64_t cancelled_ = 0;
};

}  // namespace hs::dispatch
