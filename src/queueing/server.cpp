#include "queueing/server.h"

#include "util/check.h"

namespace hs::queueing {

Server::Server(sim::Simulator& simulator, double speed, int machine_index)
    : simulator_(simulator), speed_(speed), machine_index_(machine_index) {
  HS_CHECK(speed > 0.0, "machine speed must be positive, got " << speed);
}

void Server::set_speed(double /*new_speed*/) {
  HS_CHECK(false, "set_speed is not supported by this service discipline");
}

void Server::evict_all(std::vector<Job>& /*out*/) {
  HS_CHECK(false, "evict_all is not supported by this service discipline");
}

bool Server::evict(uint64_t /*job_id*/) {
  HS_CHECK(false, "evict is not supported by this service discipline");
  return false;
}

double Server::utilization() const {
  const double now = simulator_.now();
  if (now <= 0.0) {
    return 0.0;
  }
  return busy_time() / now;
}

void Server::trace_record(obs::TraceEventKind kind, uint64_t job,
                          uint16_t attempt, double aux) {
  trace_->record(simulator_.now(), kind, job, machine_index_, attempt, aux);
}

void Server::emit_completion(const Job& job, double departure_time) {
  ++completed_jobs_;
  work_done_ += job.size;
  if (completion_callback_) {
    Completion completion;
    completion.job = job;
    completion.departure_time = departure_time;
    completion.machine = machine_index_;
    completion_callback_(completion);
  }
}

}  // namespace hs::queueing
