#include "uncertainty/estimators.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hs::uncertainty {

RateEstimator::RateEstimator(double time_constant, uint64_t warmup_events)
    : time_constant_(time_constant), warmup_(warmup_events) {
  HS_CHECK(std::isfinite(time_constant) && time_constant > 0.0,
           "rate estimator time_constant must be finite and > 0, got "
               << time_constant);
}

void RateEstimator::observe(double now) {
  if (count_ > 0) {
    const double gap = std::max(0.0, now - last_event_);
    const double decay = std::exp(-gap / time_constant_);
    discounted_count_ = discounted_count_ * decay + 1.0;
    discounted_time_ = discounted_time_ * decay + gap;
  } else {
    discounted_count_ = 1.0;
  }
  last_event_ = now;
  ++count_;
}

double RateEstimator::rate(double fallback) const {
  if (!warmed_up() || discounted_time_ <= 0.0) {
    return fallback;
  }
  return discounted_count_ / discounted_time_;
}

void RateEstimator::reset() {
  discounted_count_ = 0.0;
  discounted_time_ = 0.0;
  last_event_ = 0.0;
  count_ = 0;
}

ServiceRateEstimator::ServiceRateEstimator(uint64_t warmup_departures)
    : warmup_(warmup_departures) {}

void ServiceRateEstimator::advance(double now) {
  const double gap = std::max(0.0, now - last_update_);
  if (gap > 0.0) {
    if (outstanding_ > 0) {
      busy_ += gap;
    }
    last_update_ = now;
  }
}

void ServiceRateEstimator::observe_dispatch(double now) {
  advance(now);
  ++outstanding_;
}

void ServiceRateEstimator::observe_departure(double now, double work) {
  advance(now);
  work_ += std::max(0.0, work);
  if (outstanding_ > 0) {
    --outstanding_;
  }
  ++departures_;
}

void ServiceRateEstimator::forget_outstanding(uint64_t attempts) {
  outstanding_ -= std::min(outstanding_, attempts);
}

double ServiceRateEstimator::speed(double fallback) const {
  if (!warmed_up() || busy_ <= 0.0) {
    return fallback;
  }
  return work_ / busy_;
}

void ServiceRateEstimator::reset() {
  work_ = 0.0;
  busy_ = 0.0;
  last_update_ = 0.0;
  outstanding_ = 0;
  departures_ = 0;
}

EstimatorBank::EstimatorBank(size_t machines, double mean_job_size,
                             double time_constant)
    : mean_job_size_(mean_job_size), arrival_rate_(time_constant) {
  service_.reserve(machines);
  for (size_t i = 0; i < machines; ++i) {
    service_.emplace_back();
  }
}

void EstimatorBank::observe_dispatch(size_t machine, double now) {
  service_[machine].observe_dispatch(now);
}

void EstimatorBank::observe_departure(size_t machine, double now,
                                      double work) {
  service_[machine].observe_departure(now, work);
}

void EstimatorBank::forget_dispatch(size_t machine) {
  service_[machine].forget_outstanding(1);
}

void EstimatorBank::forget_all_outstanding(size_t machine) {
  service_[machine].forget_outstanding(service_[machine].outstanding());
}

double EstimatorBank::speed_hat(size_t machine, double fallback) const {
  return service_[machine].speed(fallback);
}

void EstimatorBank::speeds_hat_into(const std::vector<double>& fallbacks,
                                    std::vector<double>& out) const {
  out.resize(service_.size());
  for (size_t i = 0; i < service_.size(); ++i) {
    out[i] = service_[i].speed(fallbacks[i]);
  }
}

double EstimatorBank::rho_hat(const std::vector<double>& speed_fallbacks,
                              double rho_fallback) const {
  if (!warmed_up()) {
    return rho_fallback;
  }
  double total = 0.0;
  for (size_t i = 0; i < service_.size(); ++i) {
    total += service_[i].speed(speed_fallbacks[i]);
  }
  if (total <= 0.0) {
    return rho_fallback;
  }
  return arrival_rate_.rate(0.0) * mean_job_size_ / total;
}

void EstimatorBank::reset() {
  arrival_rate_.reset();
  for (auto& estimator : service_) {
    estimator.reset();
  }
}

namespace {

/// True when `v` round-trips through a double as an exact non-negative
/// integer (counts are < 2^53 in any feasible session).
bool is_count(double v) {
  return v >= 0.0 && v <= 0x1p53 && v == std::floor(v);
}

}  // namespace

size_t RateEstimator::save_state(std::vector<double>& out) const {
  out.push_back(discounted_count_);
  out.push_back(discounted_time_);
  out.push_back(last_event_);
  out.push_back(static_cast<double>(count_));
  return 4;
}

size_t RateEstimator::restore_state(std::span<const double> state) {
  if (state.size() < 4 || !std::isfinite(state[0]) || state[0] < 0.0 ||
      !std::isfinite(state[1]) || state[1] < 0.0 ||
      !std::isfinite(state[2]) || !is_count(state[3])) {
    return 0;
  }
  discounted_count_ = state[0];
  discounted_time_ = state[1];
  last_event_ = state[2];
  count_ = static_cast<uint64_t>(state[3]);
  return 4;
}

size_t ServiceRateEstimator::save_state(std::vector<double>& out) const {
  out.push_back(work_);
  out.push_back(busy_);
  out.push_back(last_update_);
  out.push_back(static_cast<double>(outstanding_));
  out.push_back(static_cast<double>(departures_));
  return 5;
}

size_t ServiceRateEstimator::restore_state(std::span<const double> state) {
  if (state.size() < 5 || !std::isfinite(state[0]) || state[0] < 0.0 ||
      !std::isfinite(state[1]) || state[1] < 0.0 ||
      !std::isfinite(state[2]) || !is_count(state[3]) ||
      !is_count(state[4])) {
    return 0;
  }
  work_ = state[0];
  busy_ = state[1];
  last_update_ = state[2];
  outstanding_ = static_cast<uint64_t>(state[3]);
  departures_ = static_cast<uint64_t>(state[4]);
  return 5;
}

size_t EstimatorBank::save_state(std::vector<double>& out) const {
  size_t written = arrival_rate_.save_state(out);
  for (const auto& estimator : service_) {
    written += estimator.save_state(out);
  }
  return written;
}

size_t EstimatorBank::restore_state(std::span<const double> state) {
  const size_t need = 4 + 5 * service_.size();
  if (state.size() < need) {
    return 0;
  }
  // Two-phase: validate everything on scratch copies first so a corrupt
  // payload cannot leave the bank half-restored.
  RateEstimator arrival = arrival_rate_;
  if (arrival.restore_state(state.first(4)) != 4) {
    return 0;
  }
  std::vector<ServiceRateEstimator> service = service_;
  size_t offset = 4;
  for (auto& estimator : service) {
    if (estimator.restore_state(state.subspan(offset, 5)) != 5) {
      return 0;
    }
    offset += 5;
  }
  arrival_rate_ = arrival;
  service_ = std::move(service);
  return need;
}

}  // namespace hs::uncertainty
