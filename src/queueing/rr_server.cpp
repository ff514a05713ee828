#include "queueing/rr_server.h"

#include <algorithm>

#include "util/check.h"

namespace hs::queueing {

RrServer::RrServer(sim::Simulator& simulator, double speed, int machine_index,
                   double quantum)
    : Server(simulator, speed, machine_index), quantum_(quantum) {
  HS_CHECK(quantum > 0.0, "quantum must be positive, got " << quantum);
}

size_t RrServer::queue_length() const { return ready_.size(); }

double RrServer::busy_time() const {
  double busy = busy_accum_;
  if (running_) {
    busy += simulator_.now() - busy_since_;
  }
  return busy;
}

bool RrServer::arrive(const Job& job) {
  HS_CHECK(job.size > 0.0, "job size must be positive, got " << job.size);
  if (at_capacity()) [[unlikely]] {
    return false;
  }
  ready_.push_back(PendingJob{job, job.size});
  if (!running_) {
    busy_since_ = simulator_.now();
    running_ = true;
    trace(obs::TraceEventKind::kServiceStart, job.id,
          static_cast<uint16_t>(job.attempt), job.size);
    start_slice();
  }
  return true;
}

void RrServer::start_slice() {
  HS_CHECK(!ready_.empty(), "slice with empty ready queue");
  slice_start_ = simulator_.now();
  if (speed_ <= 0.0) {
    // Stopped: hold the head job until the speed recovers.
    slice_work_ = 0.0;
    simulator_.cancel(slice_event_);
    slice_event_ = sim::EventHandle{};
    return;
  }
  slice_work_ = std::min(ready_.front().remaining, quantum_ * speed_);
  const double dt = slice_work_ / speed_;
  if (!simulator_.reschedule_in(slice_event_, dt)) {
    slice_event_ = simulator_.schedule_in(dt, *this, 0);
  }
}

void RrServer::on_event(uint32_t /*kind*/, const sim::EventArgs& /*args*/) {
  on_slice_end();
}

void RrServer::set_speed(double new_speed) {
  HS_CHECK(new_speed >= 0.0, "speed must be >= 0, got " << new_speed);
  if (running_ && !ready_.empty()) {
    // Bank the work done in the interrupted slice, then restart it at
    // the new rate (the head keeps the CPU: a speed change is not a
    // scheduling event).
    const double done = (simulator_.now() - slice_start_) * speed_;
    PendingJob& head = ready_.front();
    head.remaining = std::max(head.remaining - done, 0.0);
    if (speed_ > 0.0 && new_speed <= 0.0) {
      trace(obs::TraceEventKind::kPreempt, head.job.id,
            static_cast<uint16_t>(head.job.attempt));
    } else if (speed_ <= 0.0 && new_speed > 0.0) {
      trace(obs::TraceEventKind::kResume, head.job.id,
            static_cast<uint16_t>(head.job.attempt));
    }
    speed_ = new_speed;
    start_slice();  // reschedules the pending slice-end event in place
  } else {
    speed_ = new_speed;
  }
}

void RrServer::evict_all(std::vector<Job>& out) {
  out.clear();
  if (running_) {
    simulator_.cancel(slice_event_);
    slice_event_ = sim::EventHandle{};
    running_ = false;
    busy_accum_ += simulator_.now() - busy_since_;
  }
  for (const PendingJob& pending : ready_) {
    out.push_back(pending.job);
  }
  ready_.clear();
}

bool RrServer::evict(uint64_t job_id) {
  if (ready_.empty()) {
    return false;
  }
  if (running_ && ready_.front().job.id == job_id) {
    simulator_.cancel(slice_event_);
    slice_event_ = sim::EventHandle{};
    ready_.pop_front();
    if (!ready_.empty()) {
      // The next head takes the CPU; the busy period continues.
      start_slice();
    } else {
      running_ = false;
      busy_accum_ += simulator_.now() - busy_since_;
    }
    return true;
  }
  const auto it = std::find_if(
      ready_.begin(), ready_.end(),
      [job_id](const PendingJob& p) { return p.job.id == job_id; });
  if (it == ready_.end()) {
    return false;
  }
  ready_.erase(it);
  return true;
}

void RrServer::on_slice_end() {
  slice_event_ = sim::EventHandle{};
  HS_CHECK(!ready_.empty(), "slice end with empty ready queue");
  PendingJob head = ready_.front();
  ready_.pop_front();
  // The slice ran to completion at a constant speed (set_speed cancels
  // and restarts the slice), so exactly slice_work_ was delivered. Do
  // NOT derive the work from elapsed time: a tiny final slice at a
  // large simulation timestamp can underflow the clock's resolution
  // (now + duration == now), which would read as zero work done and
  // respawn the same slice forever.
  head.remaining = std::max(head.remaining - slice_work_, 0.0);
  if (head.remaining <= 1e-12) {
    emit_completion(head.job, simulator_.now());
  } else {
    trace(obs::TraceEventKind::kPreempt, head.job.id,
          static_cast<uint16_t>(head.job.attempt), head.remaining);
    ready_.push_back(head);
  }
  if (!ready_.empty()) {
    // The next head takes the CPU: its very first slice is a service
    // start, every later one a resume after preemption.
    const PendingJob& next = ready_.front();
    trace(next.remaining == next.job.size
              ? obs::TraceEventKind::kServiceStart
              : obs::TraceEventKind::kResume,
          next.job.id, static_cast<uint16_t>(next.job.attempt),
          next.remaining);
    start_slice();
  } else {
    running_ = false;
    busy_accum_ += simulator_.now() - busy_since_;
  }
}

}  // namespace hs::queueing
