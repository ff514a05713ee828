#include "dispatch/decorator.h"

#include "util/check.h"

namespace hs::dispatch {

Decorator::Decorator(std::unique_ptr<Dispatcher> inner)
    : inner_(std::move(inner)) {
  HS_CHECK(inner_ != nullptr, "decorator needs an inner dispatcher");
}

MaskingDecorator::MaskingDecorator(std::unique_ptr<Dispatcher> wrapped,
                                   Reweighter reweighter)
    : Decorator(std::move(wrapped)), reweighter_(std::move(reweighter)) {
  own_.assign(inner().machine_count(), true);
  outer_.assign(own_.size(), true);
  native_mask_ = inner().set_available_mask(own_);
  HS_CHECK(native_mask_ || reweighter_,
           "inner dispatcher \""
               << inner().name()
               << "\" does not support masking and no reweighter was given");
}

bool MaskingDecorator::set_available_mask(
    const std::vector<bool>& available) {
  HS_CHECK(available.size() == own_.size(),
           "availability mask size " << available.size()
                                     << " != machine count " << own_.size());
  outer_ = available;
  apply_mask();
  return true;
}

void MaskingDecorator::apply_mask() {
  effective_.assign(own_.size(), false);
  size_t routable = 0;
  for (size_t i = 0; i < own_.size(); ++i) {
    effective_[i] = own_[i] && outer_[i];
    routable += effective_[i] ? 1 : 0;
  }
  if (native_mask_) {
    inner().set_available_mask(effective_);
    return;
  }
  if (routable == 0) {
    return;  // keep the previous routing (see the class comment)
  }
  reweight(effective_);
  ++rebuilds_;
}

void MaskingDecorator::reset() {
  own_.assign(own_.size(), true);
  outer_.assign(outer_.size(), true);
  rebuilds_ = 0;
  inner().reset();
  if (native_mask_) {
    inner().set_available_mask(own_);
  } else {
    reweight(own_);  // full-availability fractions
  }
}

void MaskingDecorator::reweight(const std::vector<bool>& mask) {
  reweighter_(mask, fractions_scratch_);
  const bool accepted = inner().rebuild_fractions(fractions_scratch_);
  HS_CHECK(accepted, "inner dispatcher \"" << inner().name()
                                           << "\" declined rebuild_fractions");
}

}  // namespace hs::dispatch
