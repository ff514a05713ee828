// Streaming parameter re-estimation from scheduler-observable events.
//
// The adaptive layer must recover the true (λ, sᵢ) from what a central
// scheduler can actually see — arrival instants, its own dispatch
// decisions, and (delayed) departure reports — without clock access to
// the machines. Two time-constant EWMA estimators do that:
//
//  * RateEstimator — discounted count-over-time estimate of an event
//    rate (arrivals per second). Both the event count and the elapsed
//    time are discounted with exp(−Δt/τ), which avoids the length-bias
//    of averaging interarrival gaps directly and tracks drifting rates
//    with a memory of roughly τ seconds. It is the one arrival-rate
//    estimator: the governed adaptive dispatcher and
//    core::AdaptiveOrrDispatcher both use it.
//  * ServiceRateEstimator — per-machine believed speed ŝᵢ from the
//    *work* completed while busy: a PS machine of speed s processes s
//    base-speed seconds of work per busy second regardless of how many
//    jobs share it, so ŝᵢ = cumulative completed work / cumulative busy
//    time, with each departure report carrying the work the job
//    consumed (a machine can meter a finished job's CPU). Two choices
//    here are deliberate consequences of the paper's heavy-tailed
//    sizes. Counting completed work — not completed jobs scaled by the
//    long-run E[size] — because any finite window completes mostly
//    small jobs and a job-count throughput overestimates speeds
//    severalfold. And *cumulative* — not EWMA-discounted — because a
//    job whose service time exceeds the decay memory credits its whole
//    work in one lump after the busy time it consumed has already
//    decayed, inflating the ratio by ~(service time / τ); machine
//    speeds do not drift in this model, so an unwindowed ratio is the
//    lowest-variance choice. Busy time is inferred from the scheduler's
//    own outstanding-dispatch count (sent minus reported-departed),
//    which is exactly the information a real front-end has.
//
// Estimates are fed the *report* times, not the true departure times.
// For ŝ that is a bias, not just a lag: busy time runs until the last
// report arrives, so every busy period is stretched by the report delay
// while the credited work is not, and ŝ reads low — the lower, the
// shorter the jobs are relative to the delay (docs/UNCERTAINTY.md §2.2).
// With immediate reports the ratio is exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace hs::uncertainty {

/// Discounted count-over-time rate estimator with memory ~τ seconds.
class RateEstimator {
 public:
  explicit RateEstimator(double time_constant, uint64_t warmup_events = 16);

  /// Record one event at time `now` (non-decreasing).
  void observe(double now);

  /// Events per second; `fallback` until `warmup_events` are seen.
  [[nodiscard]] double rate(double fallback = 0.0) const;
  [[nodiscard]] bool warmed_up() const { return count_ >= warmup_; }
  [[nodiscard]] uint64_t observed() const { return count_; }
  /// Time of the latest event (0 before the first).
  [[nodiscard]] double last_event() const { return last_event_; }

  void reset();

  /// Checkpoint: the discounted accumulators and event count (4 values),
  /// same append/consume convention as Dispatcher::save_state. A restored
  /// estimator continues the EWMA sequence bit-identically.
  size_t save_state(std::vector<double>& out) const;
  size_t restore_state(std::span<const double> state);

 private:
  double time_constant_;
  uint64_t warmup_;
  double discounted_count_ = 0.0;  // Σ e^{−age/τ} over past events
  double discounted_time_ = 0.0;   // Σ e^{−age/τ}·gap
  double last_event_ = 0.0;
  uint64_t count_ = 0;
};

/// Per-machine believed-speed estimator from work completed while busy.
/// Feed it the scheduler's view: observe_dispatch when a job is sent,
/// observe_departure when the (possibly delayed) report arrives with the
/// work the job consumed, and forget_outstanding when attempts are known
/// lost (crash, masked machine) so phantom busy time does not depress
/// the estimate forever.
class ServiceRateEstimator {
 public:
  explicit ServiceRateEstimator(uint64_t warmup_departures = 8);

  void observe_dispatch(double now);
  /// One departure report: the job consumed `work` base-speed seconds.
  void observe_departure(double now, double work);
  /// Drop `attempts` outstanding dispatches without counting a departure
  /// (jobs lost to a crash or rerouted away from a masked machine).
  void forget_outstanding(uint64_t attempts);

  /// Believed speed ŝ; `fallback` until enough departures are seen.
  [[nodiscard]] double speed(double fallback) const;
  [[nodiscard]] bool warmed_up() const { return departures_ >= warmup_; }
  [[nodiscard]] uint64_t outstanding() const { return outstanding_; }

  void reset();

  /// Checkpoint: work/busy accumulators plus the outstanding and
  /// departure counts (5 values).
  size_t save_state(std::vector<double>& out) const;
  size_t restore_state(std::span<const double> state);

 private:
  /// Accrue busy time up to `now`.
  void advance(double now);

  uint64_t warmup_;
  double work_ = 0.0;  // base-speed seconds completed
  double busy_ = 0.0;  // seconds the machine was plausibly busy
  double last_update_ = 0.0;
  uint64_t outstanding_ = 0;  // dispatches not yet reported departed
  uint64_t departures_ = 0;
};

/// The full estimator bank one adaptive dispatcher carries: cluster
/// arrival rate plus one service-rate estimator per machine, with the
/// derived believed utilization ρ̂ = λ̂·E[size]/Σŝᵢ.
class EstimatorBank {
 public:
  EstimatorBank(size_t machines, double mean_job_size,
                double time_constant);

  void observe_arrival(double now) { arrival_rate_.observe(now); }
  void observe_dispatch(size_t machine, double now);
  void observe_departure(size_t machine, double now, double work);
  /// One dispatch attempt bounced without entering service (rejected by
  /// a bounded queue): undo its observe_dispatch.
  void forget_dispatch(size_t machine);
  /// All outstanding attempts on `machine` are gone (crash, masked out).
  void forget_all_outstanding(size_t machine);

  [[nodiscard]] double lambda_hat(double fallback) const {
    return arrival_rate_.rate(fallback);
  }
  /// Believed speed of `machine`, falling back to `fallback` until its
  /// estimator warms up.
  [[nodiscard]] double speed_hat(size_t machine, double fallback) const;
  /// Believed speeds for all machines (per-machine fallbacks) into
  /// `out`, reusing its capacity.
  void speeds_hat_into(const std::vector<double>& fallbacks,
                       std::vector<double>& out) const;
  /// ρ̂ implied by λ̂ and the believed speeds.
  [[nodiscard]] double rho_hat(const std::vector<double>& speed_fallbacks,
                               double rho_fallback) const;
  [[nodiscard]] bool warmed_up() const { return arrival_rate_.warmed_up(); }
  [[nodiscard]] uint64_t observed_arrivals() const {
    return arrival_rate_.observed();
  }
  [[nodiscard]] double mean_job_size() const { return mean_job_size_; }

  void reset();

  /// Checkpoint: the arrival estimator followed by every per-machine
  /// service estimator (4 + 5n values) — restoring lets a restarted
  /// process resume with learned rates instead of cold priors.
  size_t save_state(std::vector<double>& out) const;
  size_t restore_state(std::span<const double> state);

 private:
  double mean_job_size_;
  RateEstimator arrival_rate_;
  std::vector<ServiceRateEstimator> service_;
};

}  // namespace hs::uncertainty
