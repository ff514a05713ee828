// Failure-aware dispatching decorator.
//
// Wraps any Dispatcher and consumes the fault layer's delayed machine
// crash/recovery reports (cluster/faults.h): machines reported down are
// blacklisted, and routing is restricted to the survivors until the
// recovery report arrives. The blacklist reaches the inner dispatcher
// through dispatch::MaskingDecorator: natively when the policy masks
// (Least-Load, AdaptiveORR — queue estimates and the ρ̂ estimator
// survive fault transitions), otherwise by re-weighting a static policy
// (WRAN/ORAN/WRR/ORR) in place over the survivors with a caller-supplied
// Reweighter (e.g. Algorithm 1 recomputed over the survivors — graceful
// ORR degradation).
//
// The crash reports stop here: on_machine_state_report is consumed, not
// forwarded, and uses_fault_feedback() is true. Apart from name, reset,
// the mask pair (MaskingDecorator) and the checkpoint pair, every other
// hook is dispatch::Decorator's verbatim forward. make_fault_aware_dispatcher()
// (core/policy.h) wires both modes for the paper's policies;
// docs/FAULT_MODEL.md discusses the semantics.
//
// Threading: caller-serialized (dispatch/dispatcher.h) — picks forward
// to the inner dispatcher, and fault reports re-weight it, so no call
// may overlap another.
#pragma once

#include <memory>

#include "dispatch/decorator.h"

namespace hs::dispatch {

class FaultAwareDispatcher final : public MaskingDecorator {
 public:
  /// Native masking when `inner` accepts set_available_mask; otherwise
  /// `reweighter` is required and fault transitions re-weight `inner` in
  /// place. When every machine is down the decorator keeps the previous
  /// routing (the jobs are lost either way, and the fault layer retries
  /// them).
  explicit FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner,
                                Reweighter reweighter = {});

  [[nodiscard]] std::string name() const override;

  /// Blacklist (up == false) or restore (up == true) `machine`. Consumed
  /// here: the inner dispatcher sees the result as a mask, not the report.
  void on_machine_state_report(size_t machine, bool up) override;
  [[nodiscard]] bool uses_fault_feedback() const override { return true; }

  /// Checkpoint: this layer's crash blacklist (n flags), then the inner
  /// dispatcher's state — a stack serializes outside-in. The outer mask
  /// is not saved: whoever imposed it re-imposes it on its own restore.
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  /// Current availability as last reported (true = believed up).
  [[nodiscard]] const std::vector<bool>& available() const {
    return own_mask();
  }
  [[nodiscard]] size_t down_count() const;
};

}  // namespace hs::dispatch
