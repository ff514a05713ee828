// Failure-aware dispatching decorator.
//
// Wraps any Dispatcher and consumes the fault layer's delayed machine
// crash/recovery reports (cluster/faults.h): machines reported down are
// blacklisted, and routing is restricted to the survivors until the
// recovery report arrives. Two composition modes, picked automatically:
//
//  * Native masking — the inner dispatcher handles blacklists itself
//    (Least-Load, AdaptiveORR expose set_available_mask). The decorator
//    just forwards the mask; inner state (queue estimates, the ρ̂
//    estimator) survives across fault transitions.
//  * Survivor reallocation — static allocation-based dispatchers
//    (WRAN/ORAN/WRR/ORR) have no mask concept, so the caller supplies a
//    Reweighter that computes the fractions over the available machines
//    (e.g. the Algorithm-1 optimized allocation recomputed over the
//    survivors — graceful ORR degradation). Every fault transition
//    re-weights the inner dispatcher in place via rebuild_fractions().
//
// Either way the decorator owns one inner dispatcher for its whole life.
// core::make_fault_aware_dispatcher() wires both modes for the paper's
// policies; docs/FAULT_MODEL.md discusses the semantics.
//
// Threading: caller-serialized (dispatch/dispatcher.h) — picks forward
// to the inner dispatcher, and fault reports re-weight it, so no call
// may overlap another.
#pragma once

#include <memory>

#include "dispatch/dispatcher.h"

namespace hs::dispatch {

class FaultAwareDispatcher final : public Dispatcher {
 public:
  /// Native masking when `inner` accepts set_available_mask; otherwise
  /// `reweighter` is required and fault transitions re-weight `inner` in
  /// place. When every machine is down the decorator keeps the previous
  /// routing (the jobs are lost either way, and the fault layer retries
  /// them).
  explicit FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner,
                                Reweighter reweighter = {});

  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  [[nodiscard]] size_t pick_sized(rng::Xoshiro256& gen,
                                  double size) override;
  [[nodiscard]] size_t pick_hedge(rng::Xoshiro256& gen, double size,
                                  size_t exclude) override;
  [[nodiscard]] bool uses_size() const override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] size_t machine_count() const override;

  void on_arrival(double now) override;
  void on_departure_report(size_t machine) override;
  void on_departure_report(size_t machine, double now) override;
  void on_departure_report(size_t machine, double now, double work) override;
  void on_load_report(size_t machine, uint64_t queue_length) override;
  [[nodiscard]] bool uses_feedback() const override;

  void on_machine_state_report(size_t machine, bool up) override;
  [[nodiscard]] bool uses_fault_feedback() const override { return true; }

  /// Dispatch outcomes are not this decorator's signal (it acts on
  /// crash/suspicion reports), but a circuit breaker stacked *inside*
  /// needs them — forward verbatim so the three robustness decorators
  /// compose in any order.
  void on_dispatch_result(size_t machine, bool accepted, double now) override;
  [[nodiscard]] bool uses_overload_feedback() const override {
    return inner_->uses_overload_feedback();
  }

  /// Native masking on behalf of an *outer* decorator (a circuit breaker
  /// or another fault layer stacked on top): the outer mask is ANDed
  /// with this decorator's own crash blacklist before being pushed down,
  /// so Hedged/FaultAware/CircuitBreaker compose in any order. Always
  /// returns true — the decorator absorbs the mask even when the inner
  /// dispatcher is re-weighted instead.
  bool set_available_mask(const std::vector<bool>& available) override;

  /// Checkpoint: this layer's crash blacklist (n flags), then the inner
  /// dispatcher's state — a stack serializes outside-in. The outer mask
  /// is not saved: whoever imposed it re-imposes it on its own restore.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  /// Current availability as last reported (true = believed up).
  [[nodiscard]] const std::vector<bool>& available() const {
    return available_;
  }
  [[nodiscard]] size_t down_count() const;
  /// Inner-dispatcher re-weights since construction/reset (survivor
  /// reallocation only; native masking never re-weights).
  [[nodiscard]] uint64_t rebuilds() const { return rebuilds_; }
  [[nodiscard]] const Dispatcher& inner() const { return *inner_; }
  /// Mutable access for decorator-aware wiring (e.g. handing a trace
  /// sink to a wrapped adaptive dispatcher).
  [[nodiscard]] Dispatcher& inner() { return *inner_; }

 private:
  void apply_mask();
  /// Survivor fractions for `mask` into the inner dispatcher, in place.
  void reweight(const std::vector<bool>& mask);

  std::unique_ptr<Dispatcher> inner_;
  Reweighter reweighter_;
  std::vector<bool> available_;
  std::vector<bool> outer_mask_;  // restriction imposed from above
  std::vector<bool> effective_;   // scratch: available_ AND outer_mask_
  std::vector<double> fractions_scratch_;  // reweighter output buffer
  bool native_mask_ = false;
  uint64_t rebuilds_ = 0;
};

}  // namespace hs::dispatch
