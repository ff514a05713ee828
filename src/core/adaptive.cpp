#include "core/adaptive.h"

#include <algorithm>

#include "alloc/optimized.h"
#include "util/check.h"
#include "util/math_util.h"

namespace hs::core {

AdaptiveOrrDispatcher::AdaptiveOrrDispatcher(std::vector<double> speeds,
                                             AdaptiveOrrOptions options)
    : speeds_(std::move(speeds)),
      total_speed_(util::kahan_sum(speeds_)),
      options_(options),
      estimator_(options.time_constant),
      assumed_rho_(options.initial_rho) {
  HS_CHECK(!speeds_.empty(), "adaptive ORR needs at least one machine");
  HS_CHECK(options.mean_job_size > 0.0,
           "mean job size must be positive: " << options.mean_job_size);
  HS_CHECK(options.safety_factor > 0.0,
           "safety factor must be positive: " << options.safety_factor);
  HS_CHECK(options.recompute_every >= 1, "recompute interval must be >= 1");
  HS_CHECK(options.initial_rho > 0.0 && options.initial_rho < 1.0,
           "initial rho out of (0,1): " << options.initial_rho);
  available_.assign(speeds_.size(), true);
  rebuild(options_.initial_rho);
  recomputations_ = 0;  // the initial build does not count
}

double AdaptiveOrrDispatcher::estimated_rho(double fallback) const {
  const double rate = estimator_.rate();
  if (rate <= 0.0) {
    return fallback;
  }
  return rate * options_.mean_job_size / total_speed_;
}

bool AdaptiveOrrDispatcher::mask_active() const {
  bool any_down = false;
  bool any_up = false;
  for (const bool up : available_) {
    any_down = any_down || !up;
    any_up = any_up || up;
  }
  return any_down && any_up;
}

void AdaptiveOrrDispatcher::rebuild(double rho_estimate) {
  const double assumed =
      std::clamp(rho_estimate * options_.safety_factor, options_.min_rho,
                 options_.max_rho);
  assumed_rho_ = assumed;
  if (mask_active()) {
    // Recompute Algorithm 1 over the survivors: they absorb the whole
    // arrival stream, so their effective utilization is the system-level
    // assumed ρ scaled by total/survivor capacity (clamped — past
    // max_rho the optimized scheme approaches the weighted one anyway).
    std::vector<double> survivor_speeds;
    survivor_speeds.reserve(speeds_.size());
    for (size_t i = 0; i < speeds_.size(); ++i) {
      if (available_[i]) {
        survivor_speeds.push_back(speeds_[i]);
      }
    }
    const double survivor_total = util::kahan_sum(survivor_speeds);
    const double effective =
        std::clamp(assumed * total_speed_ / survivor_total, options_.min_rho,
                   options_.max_rho);
    const alloc::Allocation survivor_alloc =
        alloc::OptimizedAllocation().compute(survivor_speeds, effective);
    std::vector<double> fractions(speeds_.size(), 0.0);
    size_t next_survivor = 0;
    for (size_t i = 0; i < speeds_.size(); ++i) {
      if (available_[i]) {
        fractions[i] = survivor_alloc[next_survivor++];
      }
    }
    allocation_ = std::make_unique<alloc::Allocation>(std::move(fractions));
  } else {
    allocation_ = std::make_unique<alloc::Allocation>(
        alloc::OptimizedAllocation().compute(speeds_, assumed));
  }
  inner_ =
      std::make_unique<dispatch::SmoothRoundRobinDispatcher>(*allocation_);
  ++recomputations_;
}

bool AdaptiveOrrDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  HS_CHECK(available.size() == speeds_.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << speeds_.size());
  if (available == available_) {
    return true;
  }
  available_ = available;
  // Re-optimize immediately from the current estimate; the ρ̂ estimator
  // itself is untouched (it observes arrivals, which a crash does not
  // change).
  rebuild(estimated_rho(options_.initial_rho));
  return true;
}

void AdaptiveOrrDispatcher::on_arrival(double now) {
  HS_CHECK(now >= estimator_.last_event(),
           "arrival times must be non-decreasing: "
               << now << " < " << estimator_.last_event());
  estimator_.observe(now);
  if (++arrivals_since_recompute_ >= options_.recompute_every &&
      estimator_.rate() > 0.0) {
    arrivals_since_recompute_ = 0;
    rebuild(estimated_rho(options_.initial_rho));
  }
}

size_t AdaptiveOrrDispatcher::pick(rng::Xoshiro256& gen) {
  return inner_->pick(gen);
}

void AdaptiveOrrDispatcher::reset() {
  estimator_.reset();
  arrivals_since_recompute_ = 0;
  available_.assign(speeds_.size(), true);
  rebuild(options_.initial_rho);
  recomputations_ = 0;
}

const alloc::Allocation& AdaptiveOrrDispatcher::allocation() const {
  return *allocation_;
}

}  // namespace hs::core
