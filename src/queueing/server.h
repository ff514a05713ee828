// Abstract single-machine server model.
//
// A Server owns the jobs currently resident on one simulated computer and
// decides how CPU time is shared among them. Concrete disciplines:
//   * PsServer   — exact processor sharing (the paper's model of
//                  preemptive round-robin scheduling, §4.1),
//   * FcfsServer — first-come-first-served (for M/M/1 validation),
//   * RrServer   — preemptive round-robin with a finite quantum
//                  (ablation of the PS idealization).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/trace.h"
#include "queueing/job.h"
#include "sim/simulator.h"

namespace hs::queueing {

class Server {
 public:
  using CompletionCallback = std::function<void(const Completion&)>;

  /// `speed` is the machine's relative processing speed s_i > 0 (it may
  /// later drop to 0 through set_speed on disciplines that support it).
  /// `machine_index` tags completions for per-machine statistics.
  Server(sim::Simulator& simulator, double speed, int machine_index);
  virtual ~Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Hand a job to this machine at the current simulation time. Returns
  /// true if the job was accepted; false if the machine's bounded queue
  /// is full (see set_capacity) — a rejected job is untouched and the
  /// caller decides its fate (retry elsewhere, drop, ...). With the
  /// default unbounded queue this never returns false, so fault-layer-
  /// and earlier-era call sites may ignore the result (deliberately not
  /// [[nodiscard]]).
  virtual bool arrive(const Job& job) = 0;

  /// Bound the resident-job count (running + queued): an arrive() that
  /// would make queue_length() exceed `capacity` is rejected. 0 restores
  /// the default unbounded queue. Jobs already resident are never
  /// evicted by lowering the capacity — the bound applies to admissions.
  void set_capacity(size_t capacity) { capacity_ = capacity; }
  [[nodiscard]] size_t capacity() const { return capacity_; }

  /// Change the machine's speed at the current simulation time (e.g.
  /// degradation, thermal throttling, or failure as speed → 0 with
  /// recovery later). Work already done is kept; in-flight jobs simply
  /// progress at the new rate, and speed 0 stops the machine, holding
  /// its jobs until the speed rises again. All built-in disciplines
  /// support this; the default implementation throws CheckError so
  /// future disciplines fail loudly rather than silently ignore it.
  virtual void set_speed(double new_speed);

  /// Remove every job resident on the machine (in service and queued)
  /// into `out`, cleared first, in a deterministic order, without
  /// emitting completions. A caller that reuses `out` evicts without
  /// allocating once it has held the deepest queue.
  /// Attained service is discarded — a re-dispatched job starts from
  /// scratch. Used by the fault-injection layer to model a crash: the
  /// machine's jobs are lost and reported back to the scheduler. The
  /// default implementation throws CheckError so future disciplines fail
  /// loudly rather than silently ignore a crash.
  virtual void evict_all(std::vector<Job>& out);

  /// Remove one resident job by id without emitting a completion;
  /// attained service is discarded. Returns false (and changes nothing)
  /// when no resident job has that id. Used by hedged dispatch
  /// (dispatch/hedged.h) to cancel the losing copy once its sibling
  /// completes elsewhere. The default implementation throws CheckError
  /// so future disciplines fail loudly rather than leak duplicate work.
  virtual bool evict(uint64_t job_id);

  /// Number of jobs currently on the machine (running + queued). This is
  /// the "run queue length" load index of §2.2.
  [[nodiscard]] virtual size_t queue_length() const = 0;

  /// Called once per completed job, at its departure time.
  void set_completion_callback(CompletionCallback cb) {
    completion_callback_ = std::move(cb);
  }

  /// Attach a trace sink (null detaches). Disciplines record service
  /// start and preempt/resume through it; detached, each hook site costs
  /// exactly one branch on the null pointer (the obs/observer.h cost
  /// discipline, pinned by tests/test_event_alloc.cpp).
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  [[nodiscard]] double speed() const { return speed_; }
  [[nodiscard]] int machine_index() const { return machine_index_; }

  /// Seconds of base-speed work completed so far (for utilization stats).
  [[nodiscard]] double work_done() const { return work_done_; }
  /// Total busy time (at least one job present) so far, including the
  /// in-progress busy period up to now().
  [[nodiscard]] virtual double busy_time() const = 0;
  /// Fraction of time busy since t=0.
  [[nodiscard]] double utilization() const;
  [[nodiscard]] uint64_t completed_jobs() const { return completed_jobs_; }

 protected:
  void emit_completion(const Job& job, double departure_time);

  /// True when a bounded queue is configured and full — disciplines test
  /// this first in arrive(). One compare on the common unbounded path
  /// (capacity_ == 0 short-circuits before the virtual queue_length()).
  [[nodiscard]] bool at_capacity() const {
    return capacity_ != 0 && queue_length() >= capacity_;
  }

  /// Hook site helper: records at the current simulation time iff a
  /// sink is attached.
  void trace(obs::TraceEventKind kind, uint64_t job, uint16_t attempt = 0,
             double aux = 0.0) {
    // With tracing off this site must cost only the never-taken test
    // (the A/B budget in BENCH_sim.json): [[unlikely]] plus the cold
    // out-of-line recorder keep the stores out of the hot code layout
    // instead of inlining them into every discipline's service path.
    if (trace_ != nullptr) [[unlikely]] {
      trace_record(kind, job, attempt, aux);
    }
  }

  /// Out-of-line half of trace(); only ever called with a sink attached.
  [[gnu::cold]] [[gnu::noinline]] void trace_record(obs::TraceEventKind kind,
                                                    uint64_t job,
                                                    uint16_t attempt,
                                                    double aux);

  sim::Simulator& simulator_;
  double speed_;
  int machine_index_;
  size_t capacity_ = 0;  // resident-job bound; 0 = unbounded
  double work_done_ = 0.0;
  uint64_t completed_jobs_ = 0;
  obs::TraceSink* trace_ = nullptr;

 private:
  CompletionCallback completion_callback_;
};

}  // namespace hs::queueing
