// First-come-first-served server.
//
// Not used by the paper's model (which is PS), but essential substrate:
// M/M/1-FCFS and M/G/1-FCFS have classical closed forms, so this server
// anchors the simulator's correctness tests, and it serves as an ablation
// discipline in the benches.
#pragma once

#include <deque>

#include "queueing/server.h"

namespace hs::queueing {

class FcfsServer final : public Server, private sim::EventTarget {
 public:
  FcfsServer(sim::Simulator& simulator, double speed, int machine_index);

  bool arrive(const Job& job) override;
  [[nodiscard]] size_t queue_length() const override;
  [[nodiscard]] double busy_time() const override;

  /// Piecewise-constant speed changes (speed 0 = stopped; the job in
  /// service is held with its attained service preserved).
  void set_speed(double new_speed) override;

  /// Crash support: drains the job in service (first) and the waiting
  /// queue, cancelling the pending completion.
  void evict_all(std::vector<Job>& out) override;

  /// Hedge-cancellation support: removes one job by id — from service
  /// (the next waiter starts immediately) or from the waiting queue.
  bool evict(uint64_t job_id) override;

 private:
  void start_service();
  /// (Re)schedule the completion of the job in service. Reschedules the
  /// pending event in place when one exists (speed changes mid-service).
  void schedule_completion();
  void on_service_complete();
  /// Typed-event entry point (single kind: the pending completion).
  void on_event(uint32_t kind, const sim::EventArgs& args) override;

  std::deque<Job> waiting_;
  bool in_service_ = false;
  Job current_;
  double remaining_work_ = 0.0;   // base-speed seconds left on current_
  double service_since_ = 0.0;    // when the current rate segment began
  sim::EventHandle completion_event_;
  double busy_accum_ = 0.0;
  double busy_since_ = 0.0;
};

}  // namespace hs::queueing
