// Decorator base for dispatchers that wrap one inner dispatcher.
//
// The robustness layers — HedgedDispatcher, FaultAwareDispatcher and
// overload::CircuitBreakerDispatcher — each wrap one policy or layer and
// change a few of its hooks. Decorator owns the inner dispatcher and
// forwards every Dispatcher virtual to it, so a layer overrides only the
// hooks it changes and every other hook reaches the layer below
// verbatim. MaskingDecorator adds the survivor mask that the fault and
// breaker layers share; find_layer() locates a layer by type through any
// Decorator, pass-through wrappers included.
//
// Threading: caller-serialized (dispatch/dispatcher.h).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dispatch/dispatcher.h"

namespace hs::dispatch {

class Decorator : public Dispatcher {
 public:
  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override {
    return inner_->pick(gen);
  }
  [[nodiscard]] size_t pick_sized(rng::Xoshiro256& gen,
                                  double size) override {
    return inner_->pick_sized(gen, size);
  }
  [[nodiscard]] size_t pick_hedge(rng::Xoshiro256& gen, double size,
                                  size_t exclude) override {
    return inner_->pick_hedge(gen, size, exclude);
  }
  [[nodiscard]] bool uses_size() const override { return inner_->uses_size(); }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] size_t machine_count() const override {
    return inner_->machine_count();
  }

  void on_arrival(double now) override { inner_->on_arrival(now); }
  void on_departure_report(size_t machine) override {
    inner_->on_departure_report(machine);
  }
  void on_departure_report(size_t machine, double now) override {
    inner_->on_departure_report(machine, now);
  }
  void on_departure_report(size_t machine, double now, double work) override {
    inner_->on_departure_report(machine, now, work);
  }
  void on_load_report(size_t machine, uint64_t queue_length) override {
    inner_->on_load_report(machine, queue_length);
  }
  [[nodiscard]] bool uses_feedback() const override {
    return inner_->uses_feedback();
  }

  bool rebuild_fractions(std::span<const double> fractions) override {
    return inner_->rebuild_fractions(fractions);
  }
  bool set_available_mask(const std::vector<bool>& available) override {
    return inner_->set_available_mask(available);
  }
  void on_dispatch_result(size_t machine, bool accepted, double now) override {
    inner_->on_dispatch_result(machine, accepted, now);
  }
  [[nodiscard]] bool uses_overload_feedback() const override {
    return inner_->uses_overload_feedback();
  }
  void on_machine_state_report(size_t machine, bool up) override {
    inner_->on_machine_state_report(machine, up);
  }
  [[nodiscard]] bool uses_fault_feedback() const override {
    return inner_->uses_fault_feedback();
  }
  size_t save_state(std::vector<double>& out) const override {
    return inner_->save_state(out);
  }
  size_t restore_state(std::span<const double> state) override {
    return inner_->restore_state(state);
  }

  /// The wrapped dispatcher (stable for the decorator's life).
  [[nodiscard]] Dispatcher& inner() { return *inner_; }
  [[nodiscard]] const Dispatcher& inner() const { return *inner_; }

 protected:
  /// Throws util::CheckError when `inner` is null.
  explicit Decorator(std::unique_ptr<Dispatcher> inner);

 private:
  std::unique_ptr<Dispatcher> inner_;
};

/// A decorator that restricts routing to a set of machines of its own —
/// FaultAwareDispatcher's believed-up set, CircuitBreakerDispatcher's
/// non-open breakers. It ANDs that set with any mask an outer decorator
/// imposes and pushes the result down in one of two modes, picked at
/// construction:
///
///  * Native masking — the inner dispatcher accepts set_available_mask
///    (Least-Load, the adaptive ORRs, or another masking decorator), so
///    the mask is forwarded and inner state survives every transition.
///  * Survivor reallocation — static allocation-based policies
///    (WRAN/ORAN/WRR/ORR) have no mask concept, so a Reweighter computes
///    the fractions over the routable machines and rebuild_fractions()
///    re-weights the inner dispatcher in place.
///
/// When nothing is routable, survivor reallocation keeps the previous
/// routing (there is nothing useful to re-weight over): jobs are lost or
/// fail fast, and the fault layer's retries or the breaker's half-open
/// probes carry on until something recovers.
class MaskingDecorator : public Decorator {
 public:
  /// Take the mask an outer decorator imposes; it is ANDed with this
  /// layer's own set. Always returns true — the layer absorbs the mask
  /// even when the inner dispatcher is re-weighted instead.
  bool set_available_mask(const std::vector<bool>& available) override;
  /// Declines and leaves routing unchanged: this layer owns the inner
  /// dispatcher's routable set, and a re-weight from outside would route
  /// onto machines it has masked out.
  bool rebuild_fractions(std::span<const double> /*fractions*/) override {
    return false;
  }
  /// Every machine routable and no outer restriction, zero re-weights;
  /// then reset the inner dispatcher and hand it the full set.
  void reset() override;

  /// Inner-dispatcher re-weights since construction/reset (survivor
  /// reallocation only; native masking never re-weights).
  [[nodiscard]] uint64_t rebuilds() const { return rebuilds_; }

 protected:
  /// Native masking when `inner` accepts set_available_mask; otherwise
  /// `reweighter` is required. Throws util::CheckError when neither.
  MaskingDecorator(std::unique_ptr<Dispatcher> inner, Reweighter reweighter);

  /// This layer's own routable set (true = may route). After changing
  /// it, call apply_mask() to push the result down.
  [[nodiscard]] std::vector<bool>& own_mask() { return own_; }
  [[nodiscard]] const std::vector<bool>& own_mask() const { return own_; }

  /// Push own ∧ outer to the inner dispatcher (counts a re-weight).
  void apply_mask();

 private:
  /// Survivor fractions for `mask` into the inner dispatcher, in place.
  void reweight(const std::vector<bool>& mask);

  Reweighter reweighter_;
  std::vector<bool> own_;
  std::vector<bool> outer_;      // restriction imposed from above
  std::vector<bool> effective_;  // scratch: own_ AND outer_
  std::vector<double> fractions_scratch_;  // reweighter output buffer
  bool native_mask_ = false;
  uint64_t rebuilds_ = 0;
};

/// The outermost layer of type T in the stack rooted at `dispatcher`
/// (possibly `dispatcher` itself), walking Decorator::inner(); null when
/// the walk reaches a dispatcher that is neither a T nor a Decorator.
template <typename T>
[[nodiscard]] T* find_layer(Dispatcher& dispatcher) {
  Dispatcher* layer = &dispatcher;
  while (layer != nullptr) {
    if (auto* match = dynamic_cast<T*>(layer)) {
      return match;
    }
    auto* decorator = dynamic_cast<Decorator*>(layer);
    layer = decorator != nullptr ? &decorator->inner() : nullptr;
  }
  return nullptr;
}

}  // namespace hs::dispatch
