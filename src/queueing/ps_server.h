// Exact processor-sharing server.
//
// The paper models each computer as an M/M/1 queue with the
// processor-sharing (PS) discipline (§2.3) and simulates computers that
// "apply preemptive round-robin processor scheduling" (§4.1) — whose
// quantum→0 limit is PS. This implementation is event-driven and exact:
// it uses the classic virtual-work formulation. Define V(t) with
// dV/dt = s/n(t) while n(t) > 0 jobs are present on a machine of speed s.
// A job of size x arriving at time t departs when V reaches V(t) + x.
// Between arrivals/departures V is linear, so each job costs O(log n)
// heap work instead of O(n) remaining-time updates.
#pragma once

#include <algorithm>
#include <functional>
#include <vector>

#include "queueing/server.h"

namespace hs::queueing {

class PsServer final : public Server, private sim::EventTarget {
 public:
  PsServer(sim::Simulator& simulator, double speed, int machine_index);

  bool arrive(const Job& job) override;
  [[nodiscard]] size_t queue_length() const override {
    return active_.size();
  }
  [[nodiscard]] double busy_time() const override;

  /// Piecewise-constant speed changes, including full stops (speed 0):
  /// attained service is preserved and in-flight jobs continue at the
  /// new rate. Time with jobs present counts as busy even at speed 0
  /// (the machine is occupied, just not progressing).
  void set_speed(double new_speed) override;

  /// Crash support: drains every active job (ordered by finish tag, so
  /// deterministic) and cancels the pending departure.
  void evict_all(std::vector<Job>& out) override;

  /// Hedge-cancellation support: removes one job by id and reschedules
  /// the departure for the new leader. O(n) to find the job plus an
  /// O(log n) repair of the tag heap, with no allocation: the last heap
  /// entry moves into the hole and sifts up or down.
  bool evict(uint64_t job_id) override;

  /// Id of the resident job at tag-heap position `i` (0 departs next;
  /// queue_length() - 1 is the last slot). For tests, which aim an
  /// eviction at a given heap position; not part of the Server interface.
  [[nodiscard]] uint64_t resident_id(size_t i) const;

 private:
  struct ActiveJob {
    double finish_tag;  // virtual work at which this job completes
    Job job;
    friend bool operator>(const ActiveJob& a, const ActiveJob& b) {
      if (a.finish_tag != b.finish_tag) {
        return a.finish_tag > b.finish_tag;
      }
      return a.job.id > b.job.id;
    }
  };

  /// Bring virtual work and busy time up to the current simulation time.
  void advance_clock();
  /// (Re)schedule the departure event for the job with the smallest tag.
  /// Uses an in-place reschedule of the pending event when one exists —
  /// this runs on every arrival, so it must not churn the event heap.
  void reschedule_departure();
  void on_departure_event();
  /// Typed-event entry point (single kind: the next departure).
  void on_event(uint32_t kind, const sim::EventArgs& args) override;
  /// Remove the heap's leader. Defined in the class so that it inlines
  /// into the departure path, its hottest caller.
  void pop_leader() {
    std::pop_heap(active_.begin(), active_.end(), std::greater<>{});
    active_.pop_back();
  }
  /// Restore the heap property around position `i` after its entry was
  /// replaced: sift it up while its parent ranks after it, else down.
  void reseat(size_t i);

  /// Min-heap on (finish tag, id) under std::greater<>: the leader sits
  /// at the front. Ids are unique per server, so the order is total and
  /// the departure sequence does not depend on the heap's layout.
  std::vector<ActiveJob> active_;
  double virtual_work_ = 0.0;  // V(t)
  double last_update_ = 0.0;
  double busy_accum_ = 0.0;
  sim::EventHandle pending_departure_;
};

}  // namespace hs::queueing
