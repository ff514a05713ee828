#include "serving/health.h"

#include <cmath>

#include "util/check.h"

namespace hs::serving {

void HealthConfig::validate() const {
  HS_CHECK(std::isfinite(release_deadline) && release_deadline >= 0.0,
           "health: release_deadline must be finite and >= 0, got "
               << release_deadline);
  HS_CHECK(timeout_threshold >= 1,
           "health: timeout_threshold must be >= 1, got "
               << timeout_threshold);
  HS_CHECK(max_tracked >= 1,
           "health: max_tracked must be >= 1, got " << max_tracked);
  heartbeat.validate();
}

HealthTracker::HealthTracker(size_t machines, const HealthConfig& config)
    : config_(config) {
  HS_CHECK(machines >= 1, "health tracker needs at least one machine");
  config_.validate();
  ring_.resize(config_.max_tracked);
  state_.assign(machines, MachineHealth::kHealthy);
  consecutive_failures_.assign(machines, 0);
  armed_.assign(machines, 0);
  absorb_.assign(machines, 0);
  suspected_at_.assign(machines, 0.0);
  phi_.assign(machines, cluster::PhiDetector{});
  heartbeats_.assign(machines, 0);
  // 2n flips can accumulate between consume points only if every
  // machine is suspected *and* recovered without the dispatcher
  // draining — it drains after every mutation, so this never fills in
  // practice; overflow is counted, not UB.
  transitions_.resize(2 * machines);
  healthy_count_ = machines;
}

void HealthTracker::push_transition(size_t machine, bool up, double now,
                                    double aux) {
  if (transition_count_ == transitions_.size()) {
    ++transition_drops_;
    return;
  }
  transitions_[transition_count_++] =
      HealthTransition{static_cast<uint32_t>(machine), up, now, aux};
}

void HealthTracker::success(size_t machine, double now) {
  consecutive_failures_[machine] = 0;
  if (state_[machine] == MachineHealth::kSuspect) {
    state_[machine] = MachineHealth::kHealthy;
    ++healthy_count_;
    push_transition(machine, /*up=*/true, now, 0.0);
  }
}

void HealthTracker::failure(size_t machine, double now, double aux) {
  const uint32_t failures = ++consecutive_failures_[machine];
  if (state_[machine] == MachineHealth::kHealthy &&
      failures >= config_.timeout_threshold) {
    state_[machine] = MachineHealth::kSuspect;
    --healthy_count_;
    suspected_at_[machine] = now;
    push_transition(machine, /*up=*/false, now, aux);
  }
}

void HealthTracker::on_acquire(size_t machine, double now) {
  if (config_.release_deadline <= 0.0) {
    return;
  }
  if (ring_count_ == ring_.size()) {
    ++arm_drops_;  // saturated: this request goes untracked
    return;
  }
  size_t slot = ring_head_ + ring_count_;
  if (slot >= ring_.size()) {
    slot -= ring_.size();
  }
  ring_[slot] = Arm{now + config_.release_deadline,
                    static_cast<uint32_t>(machine)};
  ++ring_count_;
  ++armed_[machine];
}

void HealthTracker::on_release(size_t machine, double now) {
  if (armed_[machine] > 0) {
    // FIFO match: this release satisfies the machine's oldest armed
    // deadline; tick() will skip that entry when it expires.
    --armed_[machine];
    ++absorb_[machine];
  }
  success(machine, now);
}

void HealthTracker::on_result(size_t machine, bool accepted, double now) {
  if (accepted) {
    success(machine, now);
  } else {
    failure(machine, now,
            static_cast<double>(consecutive_failures_[machine] + 1));
  }
}

void HealthTracker::on_heartbeat(size_t machine, double now) {
  if (heartbeats_[machine] == 0) {
    // Arm at the first heartbeat, seeding the mean with the configured
    // interval so the first silence window already has a timeout.
    phi_[machine] = {now, config_.heartbeat.interval};
  } else {
    phi_[machine].beat(now, config_.heartbeat.ewma_alpha);
  }
  ++heartbeats_[machine];
  // A heartbeat is a liveness proof: it recovers a Suspect backend and
  // resets the failure streak.
  success(machine, now);
}

void HealthTracker::tick(double now, bool scan_heartbeats) {
  // Deadline expiry: pop the FIFO head while expired. Each pop is a
  // satisfied arm (skip) or a timeout (failure signal).
  while (ring_count_ > 0 && ring_[ring_head_].deadline <= now) {
    const Arm arm = ring_[ring_head_];
    ring_head_ = ring_head_ + 1 == ring_.size() ? 0 : ring_head_ + 1;
    --ring_count_;
    if (absorb_[arm.machine] > 0) {
      --absorb_[arm.machine];  // released in time — not a timeout
      continue;
    }
    --armed_[arm.machine];
    ++timeouts_;
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceEventKind::kTimeout,
                     obs::TraceSink::kNoJob,
                     static_cast<int32_t>(arm.machine), 0, arm.deadline);
    }
    failure(arm.machine, now,
            static_cast<double>(consecutive_failures_[arm.machine] + 1));
  }

  if (!scan_heartbeats || !config_.heartbeat.enabled()) {
    return;
  }
  // Phi-accrual silence scan — O(n), so only the explicit watchdog tick
  // runs it (detection latency for idle backends is therefore bounded
  // by the watchdog cadence plus the phi timeout).
  for (size_t m = 0; m < state_.size(); ++m) {
    if (state_[m] != MachineHealth::kHealthy || heartbeats_[m] < 2) {
      continue;  // never emitted enough to establish a cadence
    }
    const double silence = now - phi_[m].last;
    if (silence > config_.heartbeat.timeout(phi_[m].mean)) {
      // Suspect regardless of the failure streak: silence is its own
      // threshold (φ* encodes the confidence).
      consecutive_failures_[m] =
          static_cast<uint32_t>(config_.timeout_threshold);
      state_[m] = MachineHealth::kSuspect;
      --healthy_count_;
      suspected_at_[m] = now;
      push_transition(m, /*up=*/false, now, silence);
    }
  }
}

size_t HealthTracker::least_recently_suspected() const {
  size_t best = 0;
  for (size_t m = 1; m < suspected_at_.size(); ++m) {
    if (suspected_at_[m] < suspected_at_[best]) {
      best = m;
    }
  }
  return best;
}

MachineHealthRecord HealthTracker::record(size_t machine) const {
  MachineHealthRecord rec;
  rec.state = static_cast<uint32_t>(state_[machine]);
  rec.consecutive_failures = consecutive_failures_[machine];
  rec.suspected_at = suspected_at_[machine];
  rec.last_heartbeat = phi_[machine].last;
  rec.heartbeat_mean = phi_[machine].mean;
  rec.heartbeats = heartbeats_[machine];
  return rec;
}

bool HealthTracker::restore(size_t machine, const MachineHealthRecord& rec) {
  if (rec.state > 1 || !std::isfinite(rec.suspected_at) ||
      !std::isfinite(rec.last_heartbeat) ||
      !std::isfinite(rec.heartbeat_mean) || rec.heartbeat_mean < 0.0) {
    return false;
  }
  const MachineHealth new_state = static_cast<MachineHealth>(rec.state);
  if (state_[machine] == MachineHealth::kHealthy &&
      new_state == MachineHealth::kSuspect) {
    --healthy_count_;
  } else if (state_[machine] == MachineHealth::kSuspect &&
             new_state == MachineHealth::kHealthy) {
    ++healthy_count_;
  }
  state_[machine] = new_state;
  consecutive_failures_[machine] = rec.consecutive_failures;
  suspected_at_[machine] = rec.suspected_at;
  phi_[machine] = {rec.last_heartbeat, rec.heartbeat_mean};
  heartbeats_[machine] = rec.heartbeats;
  return true;
}

}  // namespace hs::serving
