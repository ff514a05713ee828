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
    : Decorator(std::move(inner)), config_(config) {
  config_.validate();
}

void HedgedDispatcher::reset() {
  issued_ = 0;
  won_ = 0;
  cancelled_ = 0;
  Decorator::reset();
}

std::string HedgedDispatcher::name() const {
  return "hedged(" + inner().name() + ")";
}

}  // namespace hs::dispatch
