// Job dispatching strategy interface (§3).
//
// A Dispatcher splits the incoming job stream into n substreams in real
// time: pick() is called once per arriving job and returns the index of
// the machine that will run it. Static dispatchers (random, round-robin
// based) depend only on the allocation fractions; the Dynamic Least-Load
// yardstick additionally consumes delayed departure reports.
//
// ## Threading contract: caller-serialized
//
// Dispatchers are NOT internally synchronized, and pick() is
// deliberately non-const: in every policy except the stateless routers
// it advances routing state (round-robin cadences, Least-Load queue
// estimates, decorator bookkeeping), and even the "stateless" policies
// advance the caller's RNG. All calls on one dispatcher — picks,
// feedback reports, mask/fraction updates — must therefore be
// serialized by the caller. The two harnesses satisfy this differently:
// the discrete-event simulator is single-threaded per scheduler (one
// dispatcher is only ever touched from its scheduler's event chain;
// cluster::run_experiment gives each replication its own dispatcher via
// DispatcherFactory), and the live-serving front-end
// (serving::ServingDispatcher) serializes a shared dispatcher behind
// one spinlock. Per-header notes below distinguish policies whose
// pick() mutates policy state from the ones that are logically const
// and mutate only through the shared RNG.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "rng/rng.h"

namespace hs::dispatch {

class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Choose the destination machine for the next arriving job. `gen` is
  /// the dispatching decision stream (only random dispatchers draw from
  /// it, so static deterministic dispatchers stay reproducible).
  [[nodiscard]] virtual size_t pick(rng::Xoshiro256& gen) = 0;

  /// Size-aware variant, used by policies that assume job sizes are
  /// known on arrival (the assumption the paper's schemes deliberately
  /// avoid — see SitaDispatcher). Default: ignore the size.
  [[nodiscard]] virtual size_t pick_sized(rng::Xoshiro256& gen,
                                          double size) {
    (void)size;
    return pick(gen);
  }

  /// True if the policy requires job sizes at dispatch time.
  [[nodiscard]] virtual bool uses_size() const { return false; }

  /// Second-choice pick for hedged dispatch (dispatch/hedged.h): choose
  /// a machine for a duplicate copy of a job already in flight to
  /// `exclude`. Policies with per-machine load visibility override this
  /// to return the best machine *other than* `exclude`; the default
  /// re-runs pick_sized and may therefore return `exclude` itself — the
  /// caller must then skip the hedge (there is no useful second choice).
  [[nodiscard]] virtual size_t pick_hedge(rng::Xoshiro256& gen, double size,
                                          size_t exclude) {
    (void)exclude;
    return pick_sized(gen, size);
  }

  /// Restore the initial state (start of a new replication).
  virtual void reset() = 0;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual size_t machine_count() const = 0;

  /// Called once per arriving job, before pick(), with the arrival time.
  /// Lets adaptive dispatchers observe the arrival process (e.g. to
  /// estimate the system utilization online); static dispatchers ignore
  /// it. Scheduler-local information only — no machine feedback.
  virtual void on_arrival(double now) { (void)now; }

  /// Dynamic feedback: a (possibly delayed) report that one job departed
  /// from `machine`. Static dispatchers ignore it.
  virtual void on_departure_report(size_t machine) { (void)machine; }

  /// Timed variant: `now` is the report's *delivery* time (the departure
  /// itself happened earlier by the §4.2 detection + message delay).
  /// Policies that estimate rates from departures override this; the
  /// default forwards to the untimed variant so existing dispatchers are
  /// unaffected.
  virtual void on_departure_report(size_t machine, double now) {
    (void)now;
    on_departure_report(machine);
  }

  /// Sized variant: the report also carries the work the departed job
  /// consumed, in base-speed seconds — a machine can meter a finished
  /// job's CPU, so this is scheduler-observable information. Speed
  /// estimators need it (under heavy-tailed sizes a job-count throughput
  /// is dominated by small jobs and badly biased); everyone else gets
  /// the default, which drops the size and forwards to the timed
  /// variant. The simulation always calls this form.
  virtual void on_departure_report(size_t machine, double now, double work) {
    (void)work;
    on_departure_report(machine, now);
  }

  /// Stale-feedback variant (uncertainty layer): a queue-length snapshot
  /// of `machine` taken `StalenessConfig::update_interval`-periodically
  /// and delivered after `report_delay`. When the staleness model is on,
  /// these snapshots *replace* per-departure reports. Dispatchers that
  /// track load natively (Least-Load) override this to resynchronize
  /// their estimate; the default ignores it.
  virtual void on_load_report(size_t machine, uint64_t queue_length) {
    (void)machine;
    (void)queue_length;
  }

  /// True if the scheduler must deliver departure reports (i.e. the
  /// policy is dynamic and pays the associated overhead).
  [[nodiscard]] virtual bool uses_feedback() const { return false; }

  /// Replace the allocation fractions in place, keeping the machine
  /// count. Equivalent to constructing a fresh dispatcher over the new
  /// fractions (routing state is reset), but without allocating: the
  /// fraction-driven dispatchers (random, SWRR, smooth round-robin)
  /// override this to reuse their internal buffers, which is what lets
  /// survivor reallocations and adaptive re-allocations run
  /// allocation-free. Returns true if the policy supports in-place
  /// reweighting; the default returns false and leaves the dispatcher
  /// unchanged.
  virtual bool rebuild_fractions(std::span<const double> fractions) {
    (void)fractions;
    return false;
  }

  /// Restrict routing to machines with available[i] == true (the fault
  /// layer's blacklist). Returns true if the policy supports masking
  /// natively (Least-Load, AdaptiveORR); the default returns false and
  /// leaves routing unchanged — callers then re-weight the dispatcher
  /// over the survivors instead, through a Reweighter and
  /// rebuild_fractions() (see MaskingDecorator, dispatch/decorator.h).
  virtual bool set_available_mask(const std::vector<bool>& available) {
    (void)available;
    return false;
  }

  /// Outcome feedback for one dispatch attempt: `accepted` is false when
  /// `machine` refused the job (bounded queue full) or immediately lost
  /// it (dispatched onto a crashed machine). Overload-oblivious
  /// dispatchers ignore it; CircuitBreakerDispatcher trips machines on
  /// consecutive failures.
  virtual void on_dispatch_result(size_t machine, bool accepted,
                                  double now) {
    (void)machine;
    (void)accepted;
    (void)now;
  }

  /// True if the scheduler should report dispatch outcomes (the policy
  /// reacts to rejections — see overload/circuit_breaker.h).
  [[nodiscard]] virtual bool uses_overload_feedback() const { return false; }

  /// A (possibly delayed) report that `machine` crashed (up == false) or
  /// recovered (up == true). Fault-oblivious dispatchers ignore it.
  virtual void on_machine_state_report(size_t machine, bool up) {
    (void)machine;
    (void)up;
  }

  /// True if the scheduler should deliver machine crash/recovery reports
  /// (the policy is failure-aware and pays the detection overhead).
  [[nodiscard]] virtual bool uses_fault_feedback() const { return false; }

  /// Checkpoint channel (serving/snapshot.h). Append the policy's
  /// learned and routing state — fractions, cadences, load estimates,
  /// breaker records — to `out` as a flat double vector and return the
  /// number of values appended. Decorators append their own state first,
  /// then forward to the wrapped dispatcher, so a stack serializes
  /// outside-in. The default appends nothing: a policy that opts out
  /// simply restarts cold after a restore. Caller-serialized like every
  /// other method.
  virtual size_t save_state(std::vector<double>& out) const {
    (void)out;
    return 0;
  }

  /// Inverse of save_state(): consume this dispatcher's state from the
  /// front of `state` and return the number of values consumed (a
  /// decorator consumes its prefix, then forwards the rest inward).
  /// Restoring must be *exact* — a policy either reproduces the saved
  /// routing state bit-identically or leaves itself unchanged and
  /// returns 0. Callers detect a partial/failed restore by comparing the
  /// total consumed against the saved length.
  virtual size_t restore_state(std::span<const double> state) {
    (void)state;
    return 0;
  }
};

/// Survivor reallocation for a dispatcher that cannot mask natively:
/// writes the allocation fractions for the machines with
/// available[i] == true (zeros elsewhere) into its output buffer, which
/// MaskingDecorator (FaultAwareDispatcher, CircuitBreakerDispatcher) then
/// hands to the wrapped dispatcher's rebuild_fractions().
using Reweighter =
    std::function<void(const std::vector<bool>&, std::vector<double>&)>;

}  // namespace hs::dispatch
