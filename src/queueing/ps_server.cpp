#include "queueing/ps_server.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hs::queueing {

PsServer::PsServer(sim::Simulator& simulator, double speed, int machine_index)
    : Server(simulator, speed, machine_index) {}

void PsServer::advance_clock() {
  const double now = simulator_.now();
  const double dt = now - last_update_;
  if (dt > 0.0 && !active_.empty()) {
    virtual_work_ += speed_ * dt / static_cast<double>(active_.size());
    busy_accum_ += dt;
  }
  last_update_ = now;
}

double PsServer::busy_time() const {
  double busy = busy_accum_;
  if (!active_.empty()) {
    busy += simulator_.now() - last_update_;
  }
  return busy;
}

bool PsServer::arrive(const Job& job) {
  HS_CHECK(job.size > 0.0, "job size must be positive, got " << job.size);
  if (at_capacity()) [[unlikely]] {
    return false;
  }
  advance_clock();
  // Under PS every resident job is in service, so residency == service.
  trace(obs::TraceEventKind::kServiceStart, job.id,
        static_cast<uint16_t>(job.attempt), job.size);
  active_.push_back(ActiveJob{virtual_work_ + job.size, job});
  std::push_heap(active_.begin(), active_.end(), std::greater<>{});
  reschedule_departure();
  return true;
}

void PsServer::set_speed(double new_speed) {
  HS_CHECK(new_speed >= 0.0, "speed must be >= 0, got " << new_speed);
  advance_clock();
  // PS preempts and resumes whole machines, not single jobs: a stop
  // (speed -> 0) freezes every resident job, recovery restarts them.
  if (!active_.empty()) {
    if (speed_ > 0.0 && new_speed <= 0.0) {
      trace(obs::TraceEventKind::kPreempt, obs::TraceSink::kNoJob);
    } else if (speed_ <= 0.0 && new_speed > 0.0) {
      trace(obs::TraceEventKind::kResume, obs::TraceSink::kNoJob);
    }
  }
  speed_ = new_speed;
  reschedule_departure();
}

void PsServer::evict_all(std::vector<Job>& out) {
  advance_clock();
  simulator_.cancel(pending_departure_);
  pending_departure_ = sim::EventHandle{};
  out.clear();
  while (!active_.empty()) {
    out.push_back(active_.front().job);
    pop_leader();
  }
}

bool PsServer::evict(uint64_t job_id) {
  const auto it =
      std::find_if(active_.begin(), active_.end(),
                   [job_id](const ActiveJob& a) { return a.job.id == job_id; });
  if (it == active_.end()) {
    return false;
  }
  advance_clock();
  const auto hole = static_cast<size_t>(it - active_.begin());
  *it = active_.back();
  active_.pop_back();
  if (hole < active_.size()) {
    reseat(hole);
  }
  reschedule_departure();
  return true;
}

uint64_t PsServer::resident_id(size_t i) const {
  HS_CHECK(i < active_.size(), "heap position " << i << " out of range, "
                                   << active_.size() << " resident");
  return active_[i].job.id;
}

void PsServer::reseat(size_t i) {
  const ActiveJob moved = active_[i];
  while (i > 0 && active_[(i - 1) / 2] > moved) {
    active_[i] = active_[(i - 1) / 2];
    i = (i - 1) / 2;
  }
  const size_t n = active_.size();
  for (size_t child = 2 * i + 1; child < n; child = 2 * i + 1) {
    if (child + 1 < n && active_[child] > active_[child + 1]) {
      ++child;
    }
    if (!(moved > active_[child])) {
      break;
    }
    active_[i] = active_[child];
    i = child;
  }
  active_[i] = moved;
}

void PsServer::reschedule_departure() {
  if (active_.empty() || speed_ <= 0.0) {
    // A stopped machine holds its jobs until speed recovers.
    simulator_.cancel(pending_departure_);
    pending_departure_ = sim::EventHandle{};
    return;
  }
  const double min_tag = active_.front().finish_tag;
  // Remaining virtual work for the leader divided by its share rate.
  const double remaining = min_tag - virtual_work_;
  const double dt = std::fmax(remaining, 0.0) *
                    static_cast<double>(active_.size()) / speed_;
  if (!simulator_.reschedule_in(pending_departure_, dt)) {
    pending_departure_ = simulator_.schedule_in(dt, *this, 0);
  }
}

void PsServer::on_event(uint32_t /*kind*/, const sim::EventArgs& /*args*/) {
  on_departure_event();
}

void PsServer::on_departure_event() {
  pending_departure_ = sim::EventHandle{};
  advance_clock();
  HS_CHECK(!active_.empty(), "departure event on idle PS server");
  // The scheduled leader departs now. Absorb any rounding drift so the
  // virtual clock never runs behind the departing job's tag.
  const ActiveJob leader = active_.front();
  pop_leader();
  virtual_work_ = std::fmax(virtual_work_, leader.finish_tag);
  emit_completion(leader.job, simulator_.now());
  // Jobs whose tags coincide (equal finish tags happen with deterministic
  // sizes) depart at the same instant.
  while (!active_.empty() &&
         active_.front().finish_tag <= virtual_work_ * (1.0 + 1e-15)) {
    const ActiveJob next = active_.front();
    pop_leader();
    virtual_work_ = std::fmax(virtual_work_, next.finish_tag);
    emit_completion(next.job, simulator_.now());
  }
  reschedule_departure();
}

}  // namespace hs::queueing
