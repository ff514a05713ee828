#include "dispatch/hedged.h"

#include <cmath>

#include "util/check.h"

namespace hs::dispatch {

void HedgingConfig::validate() const {
  HS_CHECK(std::isfinite(delay) && delay >= 0.0,
           "hedging delay must be finite and >= 0, got " << delay);
}

HedgedDispatcher::HedgedDispatcher(std::unique_ptr<Dispatcher> inner,
                                   HedgingConfig config)
    : inner_(std::move(inner)), config_(config) {
  HS_CHECK(inner_ != nullptr, "hedged decorator needs a dispatcher");
  config_.validate();
}

size_t HedgedDispatcher::pick(rng::Xoshiro256& gen) {
  return inner_->pick(gen);
}

size_t HedgedDispatcher::pick_sized(rng::Xoshiro256& gen, double size) {
  return inner_->pick_sized(gen, size);
}

size_t HedgedDispatcher::pick_hedge(rng::Xoshiro256& gen, double size,
                                    size_t exclude) {
  return inner_->pick_hedge(gen, size, exclude);
}

bool HedgedDispatcher::uses_size() const { return inner_->uses_size(); }

void HedgedDispatcher::reset() {
  issued_ = 0;
  won_ = 0;
  cancelled_ = 0;
  inner_->reset();
}

std::string HedgedDispatcher::name() const {
  return "hedged(" + inner_->name() + ")";
}

size_t HedgedDispatcher::machine_count() const {
  return inner_->machine_count();
}

void HedgedDispatcher::on_arrival(double now) { inner_->on_arrival(now); }

void HedgedDispatcher::on_departure_report(size_t machine) {
  inner_->on_departure_report(machine);
}

void HedgedDispatcher::on_departure_report(size_t machine, double now) {
  inner_->on_departure_report(machine, now);
}

void HedgedDispatcher::on_departure_report(size_t machine, double now,
                                           double work) {
  inner_->on_departure_report(machine, now, work);
}

void HedgedDispatcher::on_load_report(size_t machine,
                                      uint64_t queue_length) {
  inner_->on_load_report(machine, queue_length);
}

bool HedgedDispatcher::uses_feedback() const {
  return inner_->uses_feedback();
}

bool HedgedDispatcher::rebuild_fractions(std::span<const double> fractions) {
  return inner_->rebuild_fractions(fractions);
}

bool HedgedDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  return inner_->set_available_mask(available);
}

void HedgedDispatcher::on_dispatch_result(size_t machine, bool accepted,
                                          double now) {
  inner_->on_dispatch_result(machine, accepted, now);
}

bool HedgedDispatcher::uses_overload_feedback() const {
  return inner_->uses_overload_feedback();
}

void HedgedDispatcher::on_machine_state_report(size_t machine, bool up) {
  inner_->on_machine_state_report(machine, up);
}

bool HedgedDispatcher::uses_fault_feedback() const {
  return inner_->uses_fault_feedback();
}

size_t HedgedDispatcher::save_state(std::vector<double>& out) const {
  return inner_->save_state(out);
}

size_t HedgedDispatcher::restore_state(std::span<const double> state) {
  return inner_->restore_state(state);
}

}  // namespace hs::dispatch
