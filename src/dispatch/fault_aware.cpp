#include "dispatch/fault_aware.h"

#include <algorithm>

#include "util/check.h"

namespace hs::dispatch {

FaultAwareDispatcher::FaultAwareDispatcher(std::unique_ptr<Dispatcher> inner,
                                           Reweighter reweighter)
    : inner_(std::move(inner)), reweighter_(std::move(reweighter)) {
  HS_CHECK(inner_ != nullptr, "fault-aware decorator needs a dispatcher");
  available_.assign(inner_->machine_count(), true);
  outer_mask_.assign(inner_->machine_count(), true);
  native_mask_ = inner_->set_available_mask(available_);
  HS_CHECK(native_mask_ || reweighter_,
           "inner dispatcher \""
               << inner_->name()
               << "\" does not support masking and no reweighter was given");
}

size_t FaultAwareDispatcher::pick(rng::Xoshiro256& gen) {
  return inner_->pick(gen);
}

size_t FaultAwareDispatcher::pick_sized(rng::Xoshiro256& gen, double size) {
  return inner_->pick_sized(gen, size);
}

size_t FaultAwareDispatcher::pick_hedge(rng::Xoshiro256& gen, double size,
                                        size_t exclude) {
  return inner_->pick_hedge(gen, size, exclude);
}

bool FaultAwareDispatcher::uses_size() const { return inner_->uses_size(); }

void FaultAwareDispatcher::reset() {
  available_.assign(available_.size(), true);
  outer_mask_.assign(outer_mask_.size(), true);
  rebuilds_ = 0;
  inner_->reset();
  if (native_mask_) {
    inner_->set_available_mask(available_);
  } else {
    reweight(available_);  // full-availability fractions
  }
}

std::string FaultAwareDispatcher::name() const {
  return "fault-aware(" + inner_->name() + ")";
}

size_t FaultAwareDispatcher::machine_count() const {
  return available_.size();
}

void FaultAwareDispatcher::on_arrival(double now) { inner_->on_arrival(now); }

void FaultAwareDispatcher::on_departure_report(size_t machine) {
  inner_->on_departure_report(machine);
}

void FaultAwareDispatcher::on_departure_report(size_t machine, double now) {
  inner_->on_departure_report(machine, now);
}

void FaultAwareDispatcher::on_departure_report(size_t machine, double now,
                                               double work) {
  inner_->on_departure_report(machine, now, work);
}

void FaultAwareDispatcher::on_load_report(size_t machine,
                                          uint64_t queue_length) {
  inner_->on_load_report(machine, queue_length);
}

bool FaultAwareDispatcher::uses_feedback() const {
  return inner_->uses_feedback();
}

void FaultAwareDispatcher::on_dispatch_result(size_t machine, bool accepted,
                                              double now) {
  inner_->on_dispatch_result(machine, accepted, now);
}

size_t FaultAwareDispatcher::down_count() const {
  return static_cast<size_t>(
      std::count(available_.begin(), available_.end(), false));
}

void FaultAwareDispatcher::on_machine_state_report(size_t machine, bool up) {
  HS_CHECK(machine < available_.size(),
           "machine index out of range: " << machine);
  if (available_[machine] == up) {
    return;  // duplicate report — already in the believed state
  }
  available_[machine] = up;
  apply_mask();
}

bool FaultAwareDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  HS_CHECK(available.size() == available_.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << available_.size());
  outer_mask_ = available;
  apply_mask();
  return true;
}

void FaultAwareDispatcher::apply_mask() {
  effective_.assign(available_.size(), false);
  size_t routable = 0;
  for (size_t i = 0; i < available_.size(); ++i) {
    effective_[i] = available_[i] && outer_mask_[i];
    routable += effective_[i] ? 1 : 0;
  }
  if (native_mask_) {
    inner_->set_available_mask(effective_);
    return;
  }
  if (routable == 0) {
    // Every machine is believed down or masked from above: nothing
    // useful to re-weight over. Keep the previous routing; dispatched
    // jobs are lost and retried by the fault layer until a recovery
    // report arrives.
    return;
  }
  reweight(effective_);
  ++rebuilds_;
}

void FaultAwareDispatcher::reweight(const std::vector<bool>& mask) {
  reweighter_(mask, fractions_scratch_);
  const bool accepted = inner_->rebuild_fractions(fractions_scratch_);
  HS_CHECK(accepted, "inner dispatcher \"" << inner_->name()
                                           << "\" declined rebuild_fractions");
}

size_t FaultAwareDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = available_.size();
  out.reserve(out.size() + n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(available_[i] ? 1.0 : 0.0);
  }
  return n + inner_->save_state(out);
}

size_t FaultAwareDispatcher::restore_state(std::span<const double> state) {
  const size_t n = available_.size();
  if (state.size() < n) {
    return 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(state[i] == 0.0 || state[i] == 1.0)) {
      return 0;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    available_[i] = state[i] == 1.0;
  }
  // Re-derive the effective mask *before* restoring inner state: a
  // re-weight resets the inner routing state, so the restored state must
  // land after it.
  apply_mask();
  return n + inner_->restore_state(state.subspan(n));
}

}  // namespace hs::dispatch
