// Circuit-breaking dispatching decorator.
//
// Sibling of dispatch::FaultAwareDispatcher: where that decorator
// consumes the fault layer's explicit crash/recovery reports, this one
// infers machine health from dispatch *outcomes*. A machine that keeps
// rejecting (bounded queue full) or losing (crashed but not yet
// reported) jobs trips its breaker Open after `trip_threshold`
// consecutive failures and is routed around, using the survivor mask
// both decorators share (dispatch::MaskingDecorator) — native masking
// for Least-Load-style dispatchers, an in-place survivor Reweighter for
// the static paper policies. After `cooldown` simulated seconds an Open
// breaker Half-Opens: the machine rejoins the routing set, and
// `probe_successes` consecutive accepted jobs close the breaker while a
// single failure re-opens it (restarting the cooldown).
//
//            trip_threshold consecutive failures
//   CLOSED ────────────────────────────────────────► OPEN
//     ▲                                                │ cooldown elapsed
//     │ probe_successes consecutive accepts            ▼
//     └──────────────────────────────────────────── HALF-OPEN
//                         (one failure: back to OPEN, cooldown restarts)
//
// When every breaker is open the decorator keeps the previous routing —
// jobs fail fast and feed the half-open probes (mirrors the fault
// decorator's all-down behavior).
//
// Arrivals, dispatch outcomes and crash reports also reach the layer
// below (arrivals after the cooldown check, the other two before the
// breaker acts), so a governed adaptive dispatcher underneath still
// undoes a bounced dispatch's busy time. Apart from those three, name,
// reset, the mask pair (MaskingDecorator) and the checkpoint pair, every
// hook is dispatch::Decorator's verbatim forward.
// core::make_circuit_breaker_dispatcher wires the reweighter for the
// paper's policies; docs/FAULT_MODEL.md §6 discusses the semantics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "dispatch/decorator.h"
#include "obs/trace.h"

namespace hs::overload {

struct CircuitBreakerConfig {
  /// Consecutive rejections/losses on one machine that trip it Open.
  size_t trip_threshold = 5;
  /// Simulated seconds an Open breaker waits before Half-Opening.
  double cooldown = 30.0;
  /// Consecutive Half-Open accepts that Close the breaker.
  size_t probe_successes = 3;

  /// Throws util::CheckError on out-of-range fields.
  void validate() const;
};

enum class BreakerState : uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* breaker_state_name(BreakerState state);

class CircuitBreakerDispatcher final : public dispatch::MaskingDecorator {
 public:
  /// Native masking when `inner` accepts set_available_mask; otherwise
  /// `reweighter` is required (same contract as FaultAwareDispatcher)
  /// and trips and closes re-weight `inner` in place.
  CircuitBreakerDispatcher(std::unique_ptr<dispatch::Dispatcher> inner,
                           const CircuitBreakerConfig& config,
                           dispatch::Reweighter reweighter = {});

  void reset() override;
  [[nodiscard]] std::string name() const override;

  /// Half-Opens every breaker whose cooldown has expired, then forwards.
  void on_arrival(double now) override;

  /// Forwards the outcome (a layer below may consume it too), then
  /// counts it against the machine's breaker.
  void on_dispatch_result(size_t machine, bool accepted, double now) override;
  [[nodiscard]] bool uses_overload_feedback() const override { return true; }

  /// Forwards the report, then treats a crash report as an instant trip
  /// (a crashed machine should not wait for trip_threshold rejected
  /// probes) and a recovery report as an instant Half-Open (skip the
  /// remaining cooldown; the probe jobs confirm the recovery).
  void on_machine_state_report(size_t machine, bool up) override;

  /// Attach a trace sink for kBreakerOpen/kBreakerHalfOpen/kBreakerClose
  /// records (null detaches).
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Checkpoint: per-machine breaker records (state, failure/probe
  /// counters, reopen deadline) plus the reopen schedule, then the inner
  /// dispatcher's state — a stack serializes outside-in.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  [[nodiscard]] BreakerState state(size_t machine) const;
  [[nodiscard]] size_t open_count() const;
  /// Breaker trips (Closed/Half-Open → Open) since construction/reset.
  [[nodiscard]] uint64_t trips() const { return trips_; }

 private:
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    size_t consecutive_failures = 0;
    size_t probe_successes = 0;
    double reopen_at = 0.0;  // when an Open breaker may Half-Open
  };

  void trip(size_t machine, double now);
  void transition(size_t machine, BreakerState to, double now);
  void maybe_half_open(double now);

  CircuitBreakerConfig config_;
  std::vector<Breaker> breakers_;
  obs::TraceSink* trace_ = nullptr;
  // Earliest reopen_at over Open breakers (+inf when none are open):
  // lets on_arrival() skip the scan in the common all-closed case.
  double next_reopen_time_ = 0.0;
  double last_now_ = 0.0;  // most recent time seen through any hook
  uint64_t trips_ = 0;
};

}  // namespace hs::overload
