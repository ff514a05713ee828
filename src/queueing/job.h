// The unit of work flowing through the simulated system.
#pragma once

#include <cstdint>

namespace hs::queueing {

/// A job, as defined in §2.3 of the paper: `size` is the completion time
/// of the job on an idle machine of relative speed 1 (i.e. seconds of
/// base-line work). A machine with speed s processes it in size/s seconds
/// when alone.
struct Job {
  uint64_t id = 0;
  double arrival_time = 0.0;  // arrival at the central scheduler
  double size = 0.0;          // service demand in base-speed seconds
  /// 0-based index of the current dispatch attempt. 0 for every job on
  /// its first dispatch; incremented by the fault-injection retry path
  /// each time a crash loses the job and the scheduler re-dispatches it.
  /// `arrival_time` always refers to the original arrival, so response
  /// times of retried jobs include all detection and backoff delays.
  /// 16 bits, like obs::TraceRecord's copy (RetryPolicy caps
  /// max_attempts at 65536).
  uint16_t attempt = 0;
  /// Index of the scheduler that dispatched this attempt, so a departure
  /// report goes back to its sender (cluster::run_simulation_multi caps
  /// the scheduler count at 65535). Only cluster/sim.cpp sets or reads
  /// it.
  uint16_t scheduler = 0;
  /// Slot of the job's flight on the cluster simulation's asynchronous
  /// dispatch path. Only cluster/sim.cpp sets or reads it; off that path
  /// it stays 0. No persisted format stores it or `scheduler`.
  uint32_t flight = 0;
};
// 32 bytes, so a network message (a Job plus routing fields and the
// flight's generation) still fits an event's inline arguments.
static_assert(sizeof(Job) == 32);

/// Completion record emitted by a server when a job departs.
struct Completion {
  Job job;
  double departure_time = 0.0;
  int machine = -1;  // index of the machine that ran the job

  /// Response time: total time in system (§2.3 "mean response time").
  [[nodiscard]] double response_time() const {
    return departure_time - job.arrival_time;
  }
  /// Response ratio: response time divided by job size (§2.3).
  [[nodiscard]] double response_ratio() const {
    return response_time() / job.size;
  }
};

}  // namespace hs::queueing
