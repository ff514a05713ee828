// Preemptive round-robin server with a finite quantum.
//
// The paper idealizes preemptive round-robin CPU scheduling as processor
// sharing. This server keeps the quantum finite so the idealization can
// be ablated (bench/ablation_service_discipline): as the quantum shrinks,
// metrics converge to the PS server's.
#pragma once

#include <deque>

#include "queueing/server.h"

namespace hs::queueing {

class RrServer final : public Server, private sim::EventTarget {
 public:
  /// `quantum` is wall-clock seconds per time slice on this machine
  /// (i.e. speed·quantum base-speed seconds of work per slice).
  RrServer(sim::Simulator& simulator, double speed, int machine_index,
           double quantum);

  bool arrive(const Job& job) override;
  [[nodiscard]] size_t queue_length() const override;
  [[nodiscard]] double busy_time() const override;

  /// Piecewise-constant speed changes (speed 0 = stopped mid-slice; the
  /// running job's attained service is preserved).
  void set_speed(double new_speed) override;

  /// Crash support: drains the ready queue (running job first) and
  /// cancels the pending slice-end event.
  void evict_all(std::vector<Job>& out) override;

  /// Hedge-cancellation support: removes one job by id — the running job
  /// (the next head takes the CPU immediately) or a queued one.
  bool evict(uint64_t job_id) override;

  [[nodiscard]] double quantum() const { return quantum_; }

 private:
  struct PendingJob {
    Job job;
    double remaining;  // base-speed seconds of work left
  };

  /// (Re)schedule the end of the head job's slice. Reschedules the
  /// pending event in place when one exists (speed changes mid-slice).
  void start_slice();
  void on_slice_end();
  /// Typed-event entry point (single kind: the pending slice end).
  void on_event(uint32_t kind, const sim::EventArgs& args) override;

  double quantum_;
  std::deque<PendingJob> ready_;  // front = currently running
  bool running_ = false;
  double slice_start_ = 0.0;
  double slice_work_ = 0.0;  // base-speed work the current slice delivers
  sim::EventHandle slice_event_;
  double busy_accum_ = 0.0;
  double busy_since_ = 0.0;
};

}  // namespace hs::queueing
