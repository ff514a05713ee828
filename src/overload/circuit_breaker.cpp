#include "overload/circuit_breaker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace hs::overload {

namespace {
constexpr double kNoReopen = std::numeric_limits<double>::infinity();
}  // namespace

void CircuitBreakerConfig::validate() const {
  HS_CHECK(trip_threshold >= 1,
           "breaker trip_threshold must be >= 1, got " << trip_threshold);
  HS_CHECK(std::isfinite(cooldown) && cooldown > 0.0,
           "breaker cooldown must be finite and > 0, got " << cooldown);
  HS_CHECK(probe_successes >= 1,
           "breaker probe_successes must be >= 1, got " << probe_successes);
}

const char* breaker_state_name(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:   return "closed";
    case BreakerState::kOpen:     return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

CircuitBreakerDispatcher::CircuitBreakerDispatcher(
    std::unique_ptr<dispatch::Dispatcher> inner,
    const CircuitBreakerConfig& config, dispatch::Reweighter reweighter)
    : MaskingDecorator(std::move(inner), std::move(reweighter)),
      config_(config) {
  config_.validate();
  breakers_.assign(own_mask().size(), Breaker{});
  next_reopen_time_ = kNoReopen;
}

void CircuitBreakerDispatcher::reset() {
  breakers_.assign(breakers_.size(), Breaker{});
  next_reopen_time_ = kNoReopen;
  last_now_ = 0.0;
  trips_ = 0;
  MaskingDecorator::reset();
}

std::string CircuitBreakerDispatcher::name() const {
  return "circuit-breaker(" + inner().name() + ")";
}

void CircuitBreakerDispatcher::on_arrival(double now) {
  last_now_ = now;
  // Cooldown expiry check: one compare in the common no-open-breaker
  // case, a scan only when some breaker is actually due.
  if (now >= next_reopen_time_) {
    maybe_half_open(now);
  }
  MaskingDecorator::on_arrival(now);
}

void CircuitBreakerDispatcher::maybe_half_open(double now) {
  next_reopen_time_ = kNoReopen;
  bool changed = false;
  for (size_t i = 0; i < breakers_.size(); ++i) {
    Breaker& b = breakers_[i];
    if (b.state != BreakerState::kOpen) {
      continue;
    }
    if (now >= b.reopen_at) {
      transition(i, BreakerState::kHalfOpen, now);
      changed = true;
    } else {
      next_reopen_time_ = std::min(next_reopen_time_, b.reopen_at);
    }
  }
  if (changed) {
    apply_mask();
  }
}

void CircuitBreakerDispatcher::on_dispatch_result(size_t machine,
                                                  bool accepted, double now) {
  HS_CHECK(machine < breakers_.size(),
           "machine index out of range: " << machine);
  MaskingDecorator::on_dispatch_result(machine, accepted, now);
  last_now_ = now;
  Breaker& b = breakers_[machine];
  if (accepted) {
    b.consecutive_failures = 0;
    if (b.state == BreakerState::kHalfOpen) {
      if (++b.probe_successes >= config_.probe_successes) {
        transition(machine, BreakerState::kClosed, now);
        apply_mask();
      }
    }
    return;
  }
  switch (b.state) {
    case BreakerState::kClosed:
      if (++b.consecutive_failures >= config_.trip_threshold) {
        trip(machine, now);
      }
      break;
    case BreakerState::kHalfOpen:
      // One failed probe re-opens immediately (cooldown restarts).
      trip(machine, now);
      break;
    case BreakerState::kOpen:
      // A straggler outcome from before the trip — already open.
      break;
  }
}

void CircuitBreakerDispatcher::on_machine_state_report(size_t machine,
                                                       bool up) {
  // Forward first: a layer below (a fault decorator, Least-Load) may
  // consume crash reports too.
  MaskingDecorator::on_machine_state_report(machine, up);
  HS_CHECK(machine < breakers_.size(),
           "machine index out of range: " << machine);
  if (!up && breakers_[machine].state == BreakerState::kClosed) {
    // The report interface carries no timestamp; the last time observed
    // through on_arrival/on_dispatch_result is current enough (reports
    // are delivered between arrivals, never before the first one).
    trip(machine, last_now_);
  } else if (up && breakers_[machine].state == BreakerState::kOpen) {
    // An explicit recovery report is as authoritative as the crash
    // report that tripped the breaker: skip the remaining cooldown and
    // Half-Open immediately — the machine rejoins routing and the probe
    // jobs confirm (or refute) the recovery. Keeps the routing mask
    // identical whichever side of a FaultAwareDispatcher this decorator
    // sits on.
    transition(machine, BreakerState::kHalfOpen, last_now_);
    apply_mask();
  }
}

void CircuitBreakerDispatcher::trip(size_t machine, double now) {
  transition(machine, BreakerState::kOpen, now);
  ++trips_;
  apply_mask();
}

void CircuitBreakerDispatcher::transition(size_t machine, BreakerState to,
                                          double now) {
  Breaker& b = breakers_[machine];
  b.state = to;
  b.consecutive_failures = 0;
  b.probe_successes = 0;
  own_mask()[machine] = to != BreakerState::kOpen;  // routable unless Open
  switch (to) {
    case BreakerState::kOpen:
      b.reopen_at = now + config_.cooldown;
      next_reopen_time_ = std::min(next_reopen_time_, b.reopen_at);
      if (trace_ != nullptr) [[unlikely]] {
        trace_->record(now, obs::TraceEventKind::kBreakerOpen,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      break;
    case BreakerState::kHalfOpen:
      if (trace_ != nullptr) [[unlikely]] {
        trace_->record(now, obs::TraceEventKind::kBreakerHalfOpen,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      break;
    case BreakerState::kClosed:
      if (trace_ != nullptr) [[unlikely]] {
        trace_->record(now, obs::TraceEventKind::kBreakerClose,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      break;
  }
}

BreakerState CircuitBreakerDispatcher::state(size_t machine) const {
  HS_CHECK(machine < breakers_.size(),
           "machine index out of range: " << machine);
  return breakers_[machine].state;
}

size_t CircuitBreakerDispatcher::open_count() const {
  return static_cast<size_t>(
      std::count_if(breakers_.begin(), breakers_.end(), [](const Breaker& b) {
        return b.state == BreakerState::kOpen;
      }));
}

size_t CircuitBreakerDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = breakers_.size();
  out.reserve(out.size() + 4 * n + 2);
  for (const Breaker& b : breakers_) {
    out.push_back(static_cast<double>(b.state));
    out.push_back(static_cast<double>(b.consecutive_failures));
    out.push_back(static_cast<double>(b.probe_successes));
    out.push_back(b.reopen_at);  // +inf while not Open — round-trips fine
  }
  out.push_back(next_reopen_time_);
  out.push_back(last_now_);
  return 4 * n + 2 + inner().save_state(out);
}

size_t CircuitBreakerDispatcher::restore_state(std::span<const double> state) {
  const size_t n = breakers_.size();
  const size_t own = 4 * n + 2;
  if (state.size() < own) {
    return 0;
  }
  // Validate before mutating: counters are exact small integers, states
  // are enum codes, deadlines are non-NaN (infinity is the idle value).
  for (size_t i = 0; i < n; ++i) {
    const double s = state[4 * i];
    const double cf = state[4 * i + 1];
    const double ps = state[4 * i + 2];
    const double at = state[4 * i + 3];
    if (!(s == 0.0 || s == 1.0 || s == 2.0) ||
        !(cf >= 0.0 && cf <= 0x1p53) || cf != std::floor(cf) ||
        !(ps >= 0.0 && ps <= 0x1p53) || ps != std::floor(ps) ||
        std::isnan(at)) {
      return 0;
    }
  }
  if (std::isnan(state[4 * n]) || !std::isfinite(state[4 * n + 1])) {
    return 0;
  }
  for (size_t i = 0; i < n; ++i) {
    Breaker& b = breakers_[i];
    b.state = static_cast<BreakerState>(
        static_cast<uint8_t>(state[4 * i]));
    b.consecutive_failures = static_cast<size_t>(state[4 * i + 1]);
    b.probe_successes = static_cast<size_t>(state[4 * i + 2]);
    b.reopen_at = state[4 * i + 3];
    own_mask()[i] = b.state != BreakerState::kOpen;
  }
  next_reopen_time_ = state[4 * n];
  last_now_ = state[4 * n + 1];
  // Re-derive the routing mask *before* restoring inner state: a
  // re-weight resets the inner routing state, so the restored state must
  // land after it.
  apply_mask();
  return own + inner().restore_state(state.subspan(own));
}

}  // namespace hs::overload
