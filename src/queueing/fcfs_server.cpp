#include "queueing/fcfs_server.h"

#include <algorithm>

#include "util/check.h"

namespace hs::queueing {

FcfsServer::FcfsServer(sim::Simulator& simulator, double speed,
                       int machine_index)
    : Server(simulator, speed, machine_index) {}

size_t FcfsServer::queue_length() const {
  return waiting_.size() + (in_service_ ? 1 : 0);
}

double FcfsServer::busy_time() const {
  double busy = busy_accum_;
  if (in_service_) {
    busy += simulator_.now() - busy_since_;
  }
  return busy;
}

bool FcfsServer::arrive(const Job& job) {
  HS_CHECK(job.size > 0.0, "job size must be positive, got " << job.size);
  if (at_capacity()) [[unlikely]] {
    return false;
  }
  waiting_.push_back(job);
  if (!in_service_) {
    busy_since_ = simulator_.now();
    start_service();
  }
  return true;
}

void FcfsServer::start_service() {
  HS_CHECK(!waiting_.empty(), "start_service with empty queue");
  current_ = waiting_.front();
  waiting_.pop_front();
  in_service_ = true;
  remaining_work_ = current_.size;
  trace(obs::TraceEventKind::kServiceStart, current_.id,
        static_cast<uint16_t>(current_.attempt), current_.size);
  schedule_completion();
}

void FcfsServer::schedule_completion() {
  service_since_ = simulator_.now();
  if (speed_ <= 0.0) {
    // Stopped: the job is held until the speed recovers.
    simulator_.cancel(completion_event_);
    completion_event_ = sim::EventHandle{};
    return;
  }
  const double dt = remaining_work_ / speed_;
  if (!simulator_.reschedule_in(completion_event_, dt)) {
    completion_event_ = simulator_.schedule_in(dt, *this, 0);
  }
}

void FcfsServer::on_event(uint32_t /*kind*/, const sim::EventArgs& /*args*/) {
  on_service_complete();
}

void FcfsServer::set_speed(double new_speed) {
  HS_CHECK(new_speed >= 0.0, "speed must be >= 0, got " << new_speed);
  if (in_service_) {
    // Bank the work completed at the old rate, then restart the
    // completion timer at the new one.
    remaining_work_ -= (simulator_.now() - service_since_) * speed_;
    remaining_work_ = std::max(remaining_work_, 0.0);
    if (speed_ > 0.0 && new_speed <= 0.0) {
      trace(obs::TraceEventKind::kPreempt, current_.id,
            static_cast<uint16_t>(current_.attempt));
    } else if (speed_ <= 0.0 && new_speed > 0.0) {
      trace(obs::TraceEventKind::kResume, current_.id,
            static_cast<uint16_t>(current_.attempt));
    }
    speed_ = new_speed;
    schedule_completion();
  } else {
    speed_ = new_speed;
  }
}

void FcfsServer::evict_all(std::vector<Job>& out) {
  out.clear();
  if (in_service_) {
    simulator_.cancel(completion_event_);
    completion_event_ = sim::EventHandle{};
    in_service_ = false;
    busy_accum_ += simulator_.now() - busy_since_;
    out.push_back(current_);
  }
  out.insert(out.end(), waiting_.begin(), waiting_.end());
  waiting_.clear();
}

bool FcfsServer::evict(uint64_t job_id) {
  if (in_service_ && current_.id == job_id) {
    simulator_.cancel(completion_event_);
    completion_event_ = sim::EventHandle{};
    in_service_ = false;
    if (!waiting_.empty()) {
      // The next waiter starts immediately; the busy period continues.
      start_service();
    } else {
      busy_accum_ += simulator_.now() - busy_since_;
    }
    return true;
  }
  const auto it = std::find_if(
      waiting_.begin(), waiting_.end(),
      [job_id](const Job& job) { return job.id == job_id; });
  if (it == waiting_.end()) {
    return false;
  }
  waiting_.erase(it);
  return true;
}

void FcfsServer::on_service_complete() {
  completion_event_ = sim::EventHandle{};
  in_service_ = false;
  emit_completion(current_, simulator_.now());
  if (!waiting_.empty()) {
    start_service();
  } else {
    busy_accum_ += simulator_.now() - busy_since_;
  }
}

}  // namespace hs::queueing
