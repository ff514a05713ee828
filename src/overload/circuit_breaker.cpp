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
    : inner_(std::move(inner)),
      config_(config),
      reweighter_(std::move(reweighter)) {
  config_.validate();
  HS_CHECK(inner_ != nullptr, "circuit breaker needs a dispatcher");
  breakers_.assign(inner_->machine_count(), Breaker{});
  routable_.assign(inner_->machine_count(), true);
  outer_mask_.assign(inner_->machine_count(), true);
  next_reopen_time_ = kNoReopen;
  native_mask_ = inner_->set_available_mask(routable_);
  HS_CHECK(native_mask_ || reweighter_,
           "inner dispatcher \""
               << inner_->name()
               << "\" does not support masking and no reweighter was given");
}

size_t CircuitBreakerDispatcher::pick(rng::Xoshiro256& gen) {
  return inner_->pick(gen);
}

size_t CircuitBreakerDispatcher::pick_sized(rng::Xoshiro256& gen,
                                            double size) {
  return inner_->pick_sized(gen, size);
}

size_t CircuitBreakerDispatcher::pick_hedge(rng::Xoshiro256& gen, double size,
                                            size_t exclude) {
  return inner_->pick_hedge(gen, size, exclude);
}

bool CircuitBreakerDispatcher::uses_size() const {
  return inner_->uses_size();
}

void CircuitBreakerDispatcher::reset() {
  breakers_.assign(breakers_.size(), Breaker{});
  routable_.assign(routable_.size(), true);
  outer_mask_.assign(outer_mask_.size(), true);
  next_reopen_time_ = kNoReopen;
  last_now_ = 0.0;
  trips_ = 0;
  rebuilds_ = 0;
  inner_->reset();
  if (native_mask_) {
    inner_->set_available_mask(routable_);
  } else {
    reweight(routable_);  // full-availability fractions
  }
}

std::string CircuitBreakerDispatcher::name() const {
  return "circuit-breaker(" + inner_->name() + ")";
}

size_t CircuitBreakerDispatcher::machine_count() const {
  return breakers_.size();
}

void CircuitBreakerDispatcher::on_arrival(double now) {
  last_now_ = now;
  // Cooldown expiry check: one compare in the common no-open-breaker
  // case, a scan only when some breaker is actually due.
  if (now >= next_reopen_time_) {
    maybe_half_open(now);
  }
  inner_->on_arrival(now);
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

void CircuitBreakerDispatcher::on_departure_report(size_t machine) {
  inner_->on_departure_report(machine);
}

void CircuitBreakerDispatcher::on_departure_report(size_t machine,
                                                   double now) {
  inner_->on_departure_report(machine, now);
}

void CircuitBreakerDispatcher::on_departure_report(size_t machine, double now,
                                                   double work) {
  inner_->on_departure_report(machine, now, work);
}

void CircuitBreakerDispatcher::on_load_report(size_t machine,
                                              uint64_t queue_length) {
  inner_->on_load_report(machine, queue_length);
}

bool CircuitBreakerDispatcher::uses_feedback() const {
  return inner_->uses_feedback();
}

void CircuitBreakerDispatcher::on_dispatch_result(size_t machine,
                                                  bool accepted, double now) {
  HS_CHECK(machine < breakers_.size(),
           "machine index out of range: " << machine);
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
  // Forward to the inner dispatcher (Least-Load under a breaker may
  // still want crash reports); an explicit crash report also trips the
  // breaker instantly — no need to burn trip_threshold probe jobs on a
  // machine known to be down.
  inner_->on_machine_state_report(machine, up);
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
  switch (to) {
    case BreakerState::kOpen:
      b.reopen_at = now + config_.cooldown;
      routable_[machine] = false;
      next_reopen_time_ = std::min(next_reopen_time_, b.reopen_at);
      if (trace_ != nullptr) [[unlikely]] {
        trace_->record(now, obs::TraceEventKind::kBreakerOpen,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      break;
    case BreakerState::kHalfOpen:
      routable_[machine] = true;
      if (trace_ != nullptr) [[unlikely]] {
        trace_->record(now, obs::TraceEventKind::kBreakerHalfOpen,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      break;
    case BreakerState::kClosed:
      routable_[machine] = true;
      if (trace_ != nullptr) [[unlikely]] {
        trace_->record(now, obs::TraceEventKind::kBreakerClose,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      break;
  }
}

bool CircuitBreakerDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  HS_CHECK(available.size() == routable_.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << routable_.size());
  outer_mask_ = available;
  apply_mask();
  return true;
}

void CircuitBreakerDispatcher::apply_mask() {
  effective_.assign(routable_.size(), false);
  size_t usable = 0;
  for (size_t i = 0; i < routable_.size(); ++i) {
    effective_[i] = routable_[i] && outer_mask_[i];
    usable += effective_[i] ? 1 : 0;
  }
  if (native_mask_) {
    inner_->set_available_mask(effective_);
    return;
  }
  if (usable == 0) {
    // Every breaker is open (or masked from above): nothing useful to
    // re-weight over. Keep the previous routing — jobs fail fast and
    // their outcomes drive the half-open probes (mirrors
    // FaultAwareDispatcher's all-down case).
    return;
  }
  reweight(effective_);
  ++rebuilds_;
}

void CircuitBreakerDispatcher::reweight(const std::vector<bool>& mask) {
  reweighter_(mask, fractions_scratch_);
  const bool accepted = inner_->rebuild_fractions(fractions_scratch_);
  HS_CHECK(accepted, "inner dispatcher \"" << inner_->name()
                                           << "\" declined rebuild_fractions");
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
  return 4 * n + 2 + inner_->save_state(out);
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
    routable_[i] = b.state != BreakerState::kOpen;
  }
  next_reopen_time_ = state[4 * n];
  last_now_ = state[4 * n + 1];
  // Re-derive the routing mask *before* restoring inner state: a
  // re-weight resets the inner routing state, so the restored state must
  // land after it.
  apply_mask();
  return own + inner_->restore_state(state.subspan(own));
}

}  // namespace hs::overload
