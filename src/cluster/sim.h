// One simulated run of the full system of Figure 1.
//
// A central scheduler receives the overall job stream and routes each
// job to one of n machines using a Dispatcher; machines run jobs to
// completion (no rescheduling) under processor sharing. For the Dynamic
// Least-Load yardstick, departure reports reach the scheduler only after
// a detection delay (the machine polls its load index once per second,
// so U(0,1) s) plus an exponential message transfer delay (mean 0.05 s)
// — the overhead model of §4.2.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/choice.h"
#include "cluster/faults.h"
#include "cluster/metrics.h"
#include "cluster/netfaults.h"
#include "dispatch/dispatcher.h"
#include "obs/observer.h"
#include "overload/config.h"
#include "uncertainty/config.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace hs::cluster {

enum class ServiceDiscipline {
  kProcessorSharing,  // the paper's model (§4.1)
  kFcfs,              // validation / ablation
  kRoundRobin,        // finite-quantum ablation of the PS idealization
};

struct SimulationConfig {
  std::vector<double> speeds;
  workload::WorkloadSpec workload = workload::WorkloadSpec::paper_default();
  /// Target system utilization. ρ ≥ 1 is allowed — the offered load then
  /// exceeds capacity and the system diverges unless `overload`
  /// protection bounds it (the paper's model and Algorithm 1 still
  /// require ρ < 1; allocation schemes clamp their assumed load).
  double rho = 0.7;
  double sim_time = 1.0e6;    // seconds (paper: 4.0e6)
  double warmup_frac = 0.25;  // fraction of sim_time discarded (paper: 1/4)
  uint64_t seed = 42;

  ServiceDiscipline discipline = ServiceDiscipline::kProcessorSharing;
  double rr_quantum = 0.1;  // seconds, kRoundRobin only

  /// Network model (cluster/netfaults.h). The §4.2 Least-Load feedback
  /// path — detection interval and message transfer delay — lives in
  /// `network.detection_interval` / `network.message_delay_mean` with the
  /// paper's defaults, so a default-constructed config reproduces the
  /// base model bit-for-bit. Everything else in it (link loss/delay/
  /// duplication, partitions, heartbeat failure detection) is off by
  /// default; when off, the run takes no network branches, draws no
  /// network RNG, and dispatch stays synchronous. When any feature is on
  /// (or a dispatch::HedgedDispatcher with hedging enabled is in the
  /// scheduler stack), dispatch becomes an asynchronous message over the
  /// faulty link and the run self-checks the exactly-once identity
  /// below. See docs/FAULT_MODEL.md §8.
  NetworkConfig network;

  /// When non-empty, track the Figure 2 workload allocation deviation
  /// against these expected fractions per `deviation_interval` seconds.
  std::vector<double> deviation_expected;
  double deviation_interval = 120.0;

  /// When set, replay this trace instead of generating arrivals (the
  /// trace supersedes `workload`/`rho`; sim_time still bounds the run).
  const workload::JobTrace* trace = nullptr;

  /// Optional observer invoked for every completed job (after metric
  /// accounting). `measured` is false for warm-up jobs. Lets callers
  /// collect custom statistics (histograms, per-class metrics) without
  /// touching the harness.
  std::function<void(const queueing::Completion&, bool measured)>
      completion_hook;

  /// Scheduled machine speed changes (degradation, failure as speed 0,
  /// recovery), supported by every built-in service discipline. Static
  /// schedulers do not react to these — which is precisely the blind
  /// spot such experiments expose.
  struct SpeedChange {
    double time = 0.0;
    size_t machine = 0;
    double new_speed = 1.0;
  };
  std::vector<SpeedChange> speed_changes;

  /// Opt-in crash/recovery fault injection (cluster/faults.h). Disabled
  /// by default; when disabled the simulation takes no fault-related
  /// RNG draws and schedules no fault events, so results are bit-identical
  /// to runs that predate the fault layer. On a crash, the machine's
  /// resident jobs are lost; each loss is detected by the scheduler after
  /// the §4.2 detection-interval + message-delay model (drawn from a
  /// dedicated stream), then retried under `faults.retry`. Failure-aware
  /// dispatchers (uses_fault_feedback()) additionally receive delayed
  /// machine up/down reports. Retried dispatches count toward
  /// `dispatched_jobs` and the per-machine dispatch fractions.
  FaultConfig faults;

  /// Opt-in overload protection (overload/config.h). Default-constructed
  /// everything is off and the run is bit-identical to builds that
  /// predate the overload layer. With bounded queues, a dispatch onto a
  /// full machine is *rejected* and goes through the fault layer's
  /// retry/backoff/drop path (sharing `faults.retry`, which applies even
  /// when crash injection itself is off); with admission control, a job
  /// may be *shed* before dispatch (terminal — never dispatched or
  /// retried); with a retry budget, retries beyond the budget become
  /// immediate drops. Overload-aware dispatchers
  /// (uses_overload_feedback(), e.g. overload::CircuitBreakerDispatcher)
  /// additionally receive per-dispatch accept/reject outcomes. See
  /// docs/FAULT_MODEL.md §6 for the taxonomy.
  overload::OverloadConfig overload;

  /// Opt-in parameter uncertainty (uncertainty/config.h). Default-
  /// constructed everything is off and the run is bit-identical to
  /// builds that predate the uncertainty layer. With drift enabled, the
  /// *true* arrival rate becomes λ(t) = λ·drift.factor_at(t): each
  /// interarrival gap is divided by the factor at the instant it is
  /// scheduled (no extra RNG draws, so an all-ones timeline replays
  /// draw-for-draw identically to no drift). With staleness enabled,
  /// feedback dispatchers stop receiving per-departure reports; instead
  /// every machine's queue length is snapshotted every Δ =
  /// `staleness.update_interval` seconds and delivered to each feedback
  /// scheduler `report_delay` seconds later via on_load_report(). The
  /// believed-vs-true parameter split (lambda_error / speed_error) does
  /// not act here — the simulation always runs the truth; beliefs enter
  /// through the dispatcher the caller builds (see
  /// ExperimentConfig::believed_params and core::make_adaptive_dispatcher).
  uncertainty::UncertaintyConfig uncertainty;

  /// Opt-in observability (obs/observer.h). Null by default: every
  /// instrumentation site then reduces to one branch on a null pointer
  /// and the run is bit-identical to an unobserved one. With a trace
  /// sink attached, per-job lifecycle events (arrival, dispatch, service
  /// start, preempt/resume, completion, loss/retry/drop, crash/recovery)
  /// are recorded; with a metrics registry attached, the run clears the
  /// registry, registers the standard gauge set and samples it every
  /// `observer->sample_interval` seconds of simulated time (first sample
  /// at t = 0; tick events fire at k·interval <= sim_time, so sampling
  /// adds exactly floor(sim_time/interval) fired events and nothing
  /// else). Caller keeps ownership of the sink and registry.
  obs::Observer* observer = nullptr;

  /// Opt-in choice-point hook (cluster/choice.h). Null by default: every
  /// instrumented stochastic decision then costs one null-pointer branch
  /// and the run is bit-identical to builds that predate the explorer.
  /// Non-null, the hook observes every instrumented draw and may replace
  /// its value — the basis of the src/explore fault-schedule replay.
  /// Caller keeps ownership; the hook must outlive the run.
  ChoiceHook* choice_hook = nullptr;

  /// Implied arrival rate λ = ρ·Σs/E[size].
  [[nodiscard]] double lambda() const;
  [[nodiscard]] double warmup_time() const { return warmup_frac * sim_time; }
  void validate() const;
};

struct SimulationResult {
  double mean_response_time = 0.0;
  double mean_response_ratio = 0.0;
  double fairness = 0.0;  // σ of response ratio
  double response_ratio_p95 = 0.0;
  double response_ratio_p99 = 0.0;
  uint64_t completed_jobs = 0;
  uint64_t dispatched_jobs = 0;  // within measurement window
  std::vector<double> machine_fractions;     // of measured dispatches
  std::vector<double> machine_utilizations;  // busy fraction over sim_time
  std::vector<double> deviations;            // Figure 2 series (if tracked)
  uint64_t events_fired = 0;

  // ---- Availability metrics (populated meaningfully with faults on;
  //      all zero / trivially derived otherwise) ----
  uint64_t jobs_lost = 0;     // dispatch attempts lost to crashes (measured)
  uint64_t jobs_retried = 0;  // re-dispatches of lost jobs (measured)
  uint64_t jobs_dropped = 0;  // lost jobs abandoned by the retry policy
  /// Measured completions per second of measurement window — the run's
  /// goodput (dropped jobs contribute nothing).
  double goodput = 0.0;
  /// Seconds each machine spent crashed within [0, sim_time].
  std::vector<double> machine_downtime;
  /// Mean response time of measured jobs by retry count (index 0 = jobs
  /// never lost). See MetricsCollector::mean_response_by_attempts().
  std::vector<double> mean_response_by_attempts;

  // ---- Overload metrics (populated meaningfully with config.overload
  //      enabled; all zero otherwise). Measured-window counts, matching
  //      the fault metrics' convention. ----
  uint64_t jobs_rejected = 0;  // dispatch attempts refused by a full queue
  uint64_t jobs_shed = 0;      // jobs refused by admission control
  uint64_t retry_budget_denied = 0;  // retries that became drops (budget)

  // ---- Network metrics (populated meaningfully with config.network
  //      enabled and/or a hedged dispatcher; all zero otherwise).
  //      Message counts are whole-run; hedge counts sum over all
  //      schedulers' HedgedDispatcher decorators. ----
  uint64_t msgs_lost = 0;        // message copies dropped in transit
  uint64_t msgs_duplicated = 0;  // message copies delivered twice
  uint64_t hedges_issued = 0;    // hedge copies actually sent
  uint64_t hedges_won = 0;       // hedge copies that beat their primary
  uint64_t hedges_cancelled = 0; // losing copies evicted or deduped
  uint64_t suspicions = 0;       // failure-detector suspicion events
  /// p99 of measured response times (seconds) — the hedging acceptance
  /// metric. 0 unless the network layer enabled its collection.
  double response_time_p99 = 0.0;

  // ---- Adaptation metrics (populated when scheduler 0 carries a
  //      uncertainty::GovernedAdaptiveDispatcher, possibly inside
  //      decorators; all zero otherwise) ----
  uint64_t realloc_commits = 0;    // governor-approved re-allocations
  uint64_t realloc_rejected = 0;   // proposals the governor refused
  uint64_t governor_freezes = 0;   // flap-guard trips

  // ---- Whole-run accounting (warm-up included), for the conservation
  //      identity: total_arrivals = total_completed + total_shed +
  //      total_dropped + in_flight_at_end. Rejections and losses are
  //      attempt-level events, not terminal outcomes, so they appear on
  //      the retry path rather than in the identity. ----
  uint64_t total_arrivals = 0;
  uint64_t total_completed = 0;
  uint64_t total_shed = 0;
  uint64_t total_dropped = 0;
  /// Jobs still resident on machines after the final drain (only jobs
  /// stranded on machines stopped at speed 0, e.g. crashed forever).
  uint64_t in_flight_at_end = 0;
};

/// Run one replication. The dispatcher is reset() first, so a fresh or a
/// reused dispatcher object behaves identically.
[[nodiscard]] SimulationResult run_simulation(const SimulationConfig& config,
                                              dispatch::Dispatcher& dispatcher);

/// Replay an arrival trace — typically a serving-session recording
/// (serving/trace_io.h) or a generated workload::JobTrace: sets
/// `config.trace` and extends sim_time to the trace horizon when it is
/// shorter, so every recorded arrival is admitted. Everything else in
/// the caller's config applies unchanged — in particular warmup_frac
/// (pass 0 to measure the whole session) and the robustness layers
/// (what-if analysis replays the same arrivals under different fault /
/// overload / network regimes). For a deliberately truncated replay,
/// set config.trace and a shorter sim_time by hand instead.
[[nodiscard]] SimulationResult run_trace_replay(
    SimulationConfig config, const workload::JobTrace& trace,
    dispatch::Dispatcher& dispatcher);

/// How arriving jobs are split across schedulers in the multi-scheduler
/// variant (below).
enum class SchedulerSplit {
  kRandom,      // each job goes to a uniformly random scheduler
  kRoundRobin,  // jobs cycle through the schedulers
};

/// Multi-scheduler variant: the paper assumes one central scheduler
/// (Figure 1), but its own motivating deployments — DNS round-robin and
/// replicated web front-ends — split the request stream across several
/// independent schedulers with no shared state. Each scheduler runs its
/// own dispatcher instance over the same machines and sees only its
/// share of the arrivals (for Dynamic Least-Load, departure reports go
/// only to the scheduler that dispatched the job). With one dispatcher
/// this reduces exactly to run_simulation.
[[nodiscard]] SimulationResult run_simulation_multi(
    const SimulationConfig& config,
    const std::vector<dispatch::Dispatcher*>& schedulers,
    SchedulerSplit split = SchedulerSplit::kRandom);

}  // namespace hs::cluster
