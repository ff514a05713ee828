#include "cluster/sim.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>

#include "dispatch/decorator.h"
#include "dispatch/hedged.h"
#include "overload/admission.h"
#include "overload/circuit_breaker.h"
#include "overload/retry_budget.h"
#include "uncertainty/adaptive.h"
#include "queueing/fcfs_server.h"
#include "queueing/ps_server.h"
#include "queueing/rr_server.h"
#include "sim/simulator.h"
#include "stats/interval_tracker.h"
#include "util/check.h"
#include "util/math_util.h"

namespace hs::cluster {

double SimulationConfig::lambda() const {
  return workload.arrival_rate_for(rho, util::kahan_sum(speeds));
}

void SimulationConfig::validate() const {
  HS_CHECK(!speeds.empty(), "simulation needs at least one machine");
  for (double s : speeds) {
    HS_CHECK(std::isfinite(s) && s > 0.0,
             "machine speed must be finite and positive, got " << s);
  }
  // ρ ≥ 1 is deliberately legal: overload experiments drive the system
  // past capacity (the allocation schemes still clamp their assumed
  // load below 1; only the arrival rate scales with the true ρ).
  HS_CHECK(std::isfinite(rho) && rho > 0.0,
           "rho must be finite and > 0: " << rho);
  HS_CHECK(std::isfinite(sim_time) && sim_time > 0.0,
           "sim_time must be finite and positive: " << sim_time);
  HS_CHECK(warmup_frac >= 0.0 && warmup_frac < 1.0,
           "warmup fraction out of [0,1): " << warmup_frac);
  HS_CHECK(rr_quantum > 0.0, "rr quantum must be positive: " << rr_quantum);
  if (!deviation_expected.empty()) {
    HS_CHECK(deviation_expected.size() == speeds.size(),
             "deviation fractions size " << deviation_expected.size()
                                         << " != machine count "
                                         << speeds.size());
  }
  for (size_t i = 0; i < speed_changes.size(); ++i) {
    const SpeedChange& change = speed_changes[i];
    HS_CHECK(change.time >= 0.0, "speed_changes[" << i
                                     << "]: time must be >= 0, got "
                                     << change.time);
    HS_CHECK(change.time <= sim_time,
             "speed_changes[" << i << "]: time " << change.time
                              << " beyond sim_time " << sim_time);
    HS_CHECK(change.machine < speeds.size(),
             "speed_changes[" << i << "]: machine " << change.machine
                              << " out of range [0, " << speeds.size()
                              << ")");
    HS_CHECK(change.new_speed >= 0.0,
             "speed_changes[" << i << "]: new_speed must be >= 0, got "
                              << change.new_speed);
  }
  faults.validate(speeds.size(), sim_time);
  network.validate(speeds.size(), sim_time);
  overload.validate(speeds.size());
  uncertainty.validate(sim_time);
  if (observer != nullptr) {
    observer->validate();
  }
}

namespace {

std::unique_ptr<queueing::Server> make_server(const SimulationConfig& config,
                                              sim::Simulator& simulator,
                                              size_t machine) {
  const double speed = config.speeds[machine];
  const int index = static_cast<int>(machine);
  switch (config.discipline) {
    case ServiceDiscipline::kProcessorSharing:
      return std::make_unique<queueing::PsServer>(simulator, speed, index);
    case ServiceDiscipline::kFcfs:
      return std::make_unique<queueing::FcfsServer>(simulator, speed, index);
    case ServiceDiscipline::kRoundRobin:
      return std::make_unique<queueing::RrServer>(simulator, speed, index,
                                                  config.rr_quantum);
  }
  HS_CHECK(false, "unreachable service discipline");
  return nullptr;
}

/// Gauge-name prefix of machine `m`, "m<index>". Built by appending:
/// GCC 12 reports a false -Wrestrict on `"m" + std::to_string(m)` at -O3
/// (GCC PR 105329), which breaks the -Werror Release build.
std::string machine_prefix(size_t m) {
  std::string prefix = "m";
  prefix += std::to_string(m);
  return prefix;
}

/// Everything one run needs, wired together before the event loop starts.
/// All simulation machinery (arrivals, speed changes, faults, delayed
/// feedback) runs on typed events targeting this object, so the steady
/// state of a run schedules events without touching the allocator.
class RunContext : private sim::EventTarget {
 public:
  RunContext(const SimulationConfig& config,
             std::vector<dispatch::Dispatcher*> schedulers,
             SchedulerSplit split)
      : config_(config),
        schedulers_(std::move(schedulers)),
        split_(split),
        size_model_(config.workload.make_size_model()),
        arrival_gen_(rng::derive_seed(config.seed, 0, rng::Stream::kArrival)),
        size_gen_(rng::derive_seed(config.seed, 0, rng::Stream::kJobSize)),
        dispatch_gen_(rng::derive_seed(config.seed, 0, rng::Stream::kDispatch)),
        delay_gen_(rng::derive_seed(config.seed, 0, rng::Stream::kMessageDelay)),
        split_gen_(rng::derive_seed(config.seed, 0, rng::Stream::kSchedulerSplit)),
        fault_delay_gen_(rng::derive_seed(config.seed, 0, rng::Stream::kFaultDelay)),
        hook_(config.choice_hook),
        metrics_(config.speeds.size()) {
    config.validate();
    HS_CHECK(!schedulers_.empty(), "at least one scheduler is required");
    // Each job records its sender in 16 bits (queueing::Job::scheduler).
    HS_CHECK(schedulers_.size() <= 65535,
             "at most 65535 schedulers, got " << schedulers_.size());
    for (dispatch::Dispatcher* dispatcher : schedulers_) {
      HS_CHECK(dispatcher != nullptr, "null scheduler");
      HS_CHECK(dispatcher->machine_count() == config.speeds.size(),
               "dispatcher machine count " << dispatcher->machine_count()
                                           << " != cluster size "
                                           << config.speeds.size());
      dispatcher->reset();
      any_feedback_ = any_feedback_ || dispatcher->uses_feedback();
      any_overload_feedback_ =
          any_overload_feedback_ || dispatcher->uses_overload_feedback();
    }
    for (size_t i = 0; i < config.speeds.size(); ++i) {
      servers_.push_back(make_server(config, simulator_, i));
      servers_.back()->set_completion_callback(
          [this](const queueing::Completion& c) { on_completion(c); });
    }
    if (!config.deviation_expected.empty()) {
      tracker_.emplace(config.deviation_expected, config.deviation_interval);
    }
    if (config.trace == nullptr) {
      arrivals_ = config.workload.make_arrivals(config.lambda());
      arrivals_->reset();
    }
    size_t upfront_events = config.speed_changes.size();
    for (const SimulationConfig::SpeedChange& change : config.speed_changes) {
      simulator_.schedule_at(
          change.time, *this, kSpeedChange,
          sim::EventArgs::pack(SpeedChangeArgs{change.machine,
                                               change.new_speed}));
    }
    if (config.observer != nullptr) {
      trace_ = config.observer->trace;
      for (auto& server : servers_) {
        server->set_trace_sink(trace_);
      }
      if (config.observer->wants_sampling()) {
        registry_ = config.observer->metrics;
        sample_interval_ = config.observer->sample_interval;
        register_standard_gauges();
      }
    }
    if (config.faults.enabled()) {
      faults_on_ = true;
      down_.assign(config.speeds.size(), false);
      nominal_speed_ = config.speeds;
      const std::vector<FaultEvent> timeline = build_fault_timeline(
          config.faults, config.speeds.size(), config.sim_time, config.seed,
          hook_);
      downtime_ = downtime_from_timeline(timeline, config.speeds.size(),
                                         config.sim_time);
      upfront_events += timeline.size();
      for (const FaultEvent& event : timeline) {
        simulator_.schedule_at(event.time, *this, kFaultTransition,
                               sim::EventArgs::pack(event));
      }
    }
    if (config.overload.enabled()) {
      overload_on_ = true;
      const overload::OverloadConfig& ov = config.overload;
      for (size_t i = 0; i < servers_.size(); ++i) {
        servers_[i]->set_capacity(
            ov.machine_capacity.empty() ? ov.queue_capacity
                                        : ov.machine_capacity[i]);
      }
      if (ov.admission != overload::AdmissionKind::kAlwaysAdmit) {
        admission_ = overload::make_admission_policy(
            ov, config.speeds, config.rho, config.workload.mean_job_size());
        // Dedicated decision stream (component 6): probabilistic sheds
        // never perturb the arrival/size/dispatch streams, and with
        // overload off this generator is never even constructed.
        overload_gen_.emplace(rng::derive_seed(config.seed, 0, rng::Stream::kOverload));
      }
      if (ov.retry_budget.enabled) {
        retry_budget_.emplace(ov.retry_budget);
      }
    }
    if (config.uncertainty.enabled()) {
      drift_on_ = config.uncertainty.drift.enabled();
      // The staleness model only changes anything for feedback
      // dispatchers: per-departure reports stop and periodic queue-length
      // snapshots start. Without one there is nothing to degrade.
      stale_feedback_ =
          config.uncertainty.staleness.enabled() && any_feedback_;
    }
    // Network layer (config.network + dispatch::HedgedDispatcher). Any
    // link fault, partition, heartbeat detector, or enabled hedging
    // decorator switches dispatch onto the asynchronous message path;
    // with all of them off, dispatch stays synchronous and the run
    // replays bit-identically to pre-network builds. Each scheduler has
    // at most one hedging layer (the outermost counts): a flight holds
    // one primary and one hedge copy, which a second layer would
    // double-book.
    hedged_.assign(schedulers_.size(), nullptr);
    for (size_t s = 0; s < schedulers_.size(); ++s) {
      hedged_[s] = dispatch::find_layer<dispatch::HedgedDispatcher>(
          *schedulers_[s]);
      if (hedged_[s] != nullptr && hedged_[s]->config().enabled()) {
        net_on_ = true;
      }
    }
    net_on_ = net_on_ || config.network.enabled();
    if (net_on_) {
      net_gen_.emplace(rng::derive_seed(config.seed, 0,
                                        rng::Stream::kNetwork));
      partitioned_.assign(config.speeds.size(), 0);
      // Tail latency is the hedging acceptance metric; the extra P²
      // update per completion is paid only on network runs.
      metrics_.enable_response_time_p99();
      const std::vector<PartitionEvent> timeline =
          build_partition_timeline(config.network.partitions);
      upfront_events += timeline.size();
      for (const PartitionEvent& event : timeline) {
        simulator_.schedule_at(event.time, *this, kPartitionEvent,
                               sim::EventArgs::pack(event));
      }
      if (config.network.heartbeat.enabled()) {
        hb_on_ = true;
        hb_.assign(config.speeds.size(), HeartbeatState{});
        const double interval = config.network.heartbeat.interval;
        for (size_t m = 0; m < config.speeds.size(); ++m) {
          hb_[m].phi = {0.0, interval};
          if (interval <= config.sim_time) {
            simulator_.schedule_at(
                interval, *this, kHeartbeat,
                sim::EventArgs::pack(
                    HeartbeatArgs{static_cast<uint32_t>(m)}));
          }
          // Arm the detector from t = 0: a machine that never delivers a
          // single heartbeat (e.g. partitioned from the start) still
          // gets suspected.
          simulator_.schedule_at(
              config.network.heartbeat.timeout(interval), *this,
              kSuspectCheck,
              sim::EventArgs::pack(SuspectArgs{static_cast<uint32_t>(m),
                                               /*generation=*/0}));
        }
      }
    }
    adaptive_ =
        dispatch::find_layer<uncertainty::GovernedAdaptiveDispatcher>(
            *schedulers_.front());
    if (trace_ != nullptr) {
      // Breaker decorators expose their own sink hook; wire the run's
      // sink in so trip/half-open/close transitions land in the trace.
      // Adaptive dispatchers likewise record estimate updates and
      // governor decisions.
      for (dispatch::Dispatcher* dispatcher : schedulers_) {
        if (auto* breaker = dispatch::find_layer<
                overload::CircuitBreakerDispatcher>(*dispatcher)) {
          breaker->set_trace_sink(trace_);
        }
        if (auto* adaptive = dispatch::find_layer<
                uncertainty::GovernedAdaptiveDispatcher>(*dispatcher)) {
          adaptive->set_trace_sink(trace_);
        }
      }
    }
    // The whole speed-change/fault/partition timeline sits in the heap
    // from t=0; beyond it a run keeps one departure timer per machine,
    // the next arrival, and a handful of in-flight feedback messages.
    // The staleness model adds one in-flight load report per feedback
    // scheduler per machine; the network layer adds in-flight dispatch
    // copies, hedge timers, and one heartbeat chain plus suspect check
    // per machine.
    simulator_.reserve_events(
        upfront_events + 4 * config.speeds.size() + 64 +
        (stale_feedback_
             ? schedulers_.size() * config.speeds.size() + 8
             : 0) +
        (net_on_ ? 4 * config.speeds.size() + 32 : 0));
  }

  SimulationResult run() {
    if (registry_ != nullptr) {
      // Initial state at t = 0, then simulator-driven interval samples.
      registry_->sample(0.0);
      if (sample_interval_ <= config_.sim_time) {
        simulator_.schedule_at(sample_interval_, *this, kMetricsSample);
      }
    }
    if (stale_feedback_) {
      // First snapshot at t = Δ (validate() guarantees Δ < sim_time);
      // subsequent ticks at absolute multiples, like the sampler.
      simulator_.schedule_at(config_.uncertainty.staleness.update_interval,
                             *this, kLoadSnapshot);
    }
    schedule_first_arrival();
    simulator_.run_until(config_.sim_time);
    // Capture utilizations over the nominal horizon, then drain the jobs
    // still in flight so their completions are measured.
    std::vector<double> utilizations;
    utilizations.reserve(servers_.size());
    for (const auto& server : servers_) {
      utilizations.push_back(server->busy_time() / config_.sim_time);
    }
    simulator_.run_all();

    SimulationResult result;
    result.mean_response_time = metrics_.response_time().mean();
    result.mean_response_ratio = metrics_.response_ratio().mean();
    result.fairness = metrics_.fairness();
    result.response_ratio_p95 = metrics_.response_ratio_p95();
    result.response_ratio_p99 = metrics_.response_ratio_p99();
    result.completed_jobs = metrics_.measured_completions();
    result.dispatched_jobs = metrics_.measured_dispatches();
    result.machine_fractions = metrics_.machine_fractions();
    result.machine_utilizations = std::move(utilizations);
    if (tracker_) {
      tracker_->flush_until(config_.sim_time);
      result.deviations = tracker_->deviations();
    }
    result.events_fired = simulator_.events_fired();
    result.jobs_lost = metrics_.jobs_lost();
    result.jobs_retried = metrics_.jobs_retried();
    result.jobs_dropped = metrics_.jobs_dropped();
    const double window = config_.sim_time - config_.warmup_time();
    result.goodput =
        window > 0.0
            ? static_cast<double>(result.completed_jobs) / window
            : 0.0;
    result.machine_downtime =
        faults_on_ ? downtime_
                   : std::vector<double>(config_.speeds.size(), 0.0);
    result.mean_response_by_attempts = metrics_.mean_response_by_attempts();
    result.jobs_rejected = metrics_.jobs_rejected();
    result.jobs_shed = metrics_.jobs_shed();
    result.retry_budget_denied = metrics_.retry_budget_denied();
    result.total_arrivals = total_arrivals_;
    result.total_completed = total_completed_;
    result.total_shed = total_shed_;
    result.total_dropped = total_dropped_;
    if (adaptive_ != nullptr) {
      result.realloc_commits = adaptive_->governor().commits();
      result.realloc_rejected = adaptive_->governor().rejections();
      result.governor_freezes = adaptive_->governor().freezes();
    }
    result.msgs_lost = msgs_lost_;
    result.msgs_duplicated = msgs_duplicated_;
    result.suspicions = suspicions_;
    for (dispatch::HedgedDispatcher* hedged : hedged_) {
      if (hedged != nullptr) {
        result.hedges_issued += hedged->issued();
        result.hedges_won += hedged->won();
        result.hedges_cancelled += hedged->cancelled();
      }
    }
    result.response_time_p99 = metrics_.response_time_p99();
    // After run_all() the only jobs still resident sit on machines
    // stopped at speed 0 (e.g. crashed with no recovery scheduled).
    uint64_t in_flight = 0;
    for (const auto& server : servers_) {
      in_flight += server->queue_length();
    }
    if (net_on_) {
      // A stranded hedged job may sit on two dead machines at once; the
      // conservation identity counts jobs, not copies.
      for (const Flight& flight : flights_) {
        if (flight.live() && flight.resident_mask == 0b11) {
          --in_flight;
        }
      }
    }
    result.in_flight_at_end = in_flight;
    return result;
  }

 private:
  /// RunContext event kinds. Every recurring event in a run is one of
  /// these; the payloads are packed into the event's inline args.
  enum EventKind : uint32_t {
    kGeneratedArrival,  // no args
    kTraceArrival,      // Job
    kSpeedChange,       // SpeedChangeArgs
    kFaultTransition,   // FaultEvent
    kStateReport,       // StateReportArgs (delayed up/down feedback)
    kLossDetected,      // Job (scheduler notices a crash-lost job)
    kRetryDispatch,     // Job (re-dispatch after backoff)
    kDepartureReport,   // DepartureReportArgs (delayed load feedback)
    kMetricsSample,     // no args (observability sampler tick)
    kLoadSnapshot,      // no args (staleness model: sample queue lengths)
    kLoadReport,        // LoadReportArgs (delayed queue-length snapshot)
    // ---- Network layer (config.network; fire only when net_on_) ----
    kPartitionEvent,     // PartitionEvent (a partition window edge)
    kNetDeliverDispatch, // NetMsgArgs (a dispatch copy reaches a machine)
    kNetCopyLost,        // NetMsgArgs (a dead copy's fate is noticed)
    kHedgeTimer,         // FlightRef (hedge deadline for a primary dispatch)
    kHeartbeat,          // HeartbeatArgs (a machine emits a heartbeat)
    kHeartbeatArrival,   // HeartbeatArgs (heartbeat reaches the scheduler)
    kSuspectCheck,       // SuspectArgs (failure-detector timeout check)
  };
  struct SpeedChangeArgs {
    size_t machine;
    double speed;
  };
  struct StateReportArgs {
    uint32_t scheduler;
    uint32_t machine;
    bool up;
  };
  struct DepartureReportArgs {
    uint32_t scheduler;
    uint32_t machine;
    double size;  // work the departed job consumed, base-speed seconds
  };
  struct LoadReportArgs {
    uint32_t scheduler;
    uint32_t machine;
    uint64_t queue_length;
  };
  /// One in-flight copy of flight (job.flight, generation). `copy` indexes
  /// the flight's copy slot (0 = primary, 1 = hedge); `notify_fail` tells the
  /// loss handler to report a dispatch failure to the scheduler (how a
  /// partition trips circuit breakers without any crash).
  struct NetMsgArgs {
    queueing::Job job;
    uint32_t machine;
    uint32_t generation;
    uint8_t copy;
    uint8_t notify_fail;
  };
  struct FlightRef {
    uint32_t slot;
    uint32_t generation;
  };
  struct HeartbeatArgs {
    uint32_t machine;
  };
  struct SuspectArgs {
    uint32_t machine;
    uint64_t generation;  // heartbeat count when the check was armed
  };
  /// One job in flight on the asynchronous dispatch path: up to two
  /// message copies (0 = primary, 1 = hedge) racing to complete it. The
  /// slot's generation is odd while live and moves on at release, so a
  /// message or timer that outlives its flight fails one compare.
  struct Flight {
    queueing::Job job;  // primary payload; job.flight is this slot
    uint32_t generation = 0;
    uint32_t machine[2] = {0, 0};  // destination per copy slot
    uint8_t delivered_mask = 0;    // copies seen at a machine (dedup)
    uint8_t resident_mask = 0;     // copies currently on a server
    uint8_t pending = 0;           // copies whose fate is unsettled
    bool completed = false;
    sim::EventHandle hedge_timer;
    [[nodiscard]] bool live() const { return (generation & 1u) != 0; }
  };
  struct HeartbeatState {
    PhiDetector phi;
    bool suspected = false;
    uint64_t generation = 0;  // heartbeats seen (stale-check token)
  };

  void on_event(uint32_t kind, const sim::EventArgs& args) override {
    switch (static_cast<EventKind>(kind)) {
      case kGeneratedArrival:
        on_generated_arrival();
        return;
      case kTraceArrival: {
        // Push the successor arrival before dispatching: the push drops
        // into the root hole this pop just left (one sift total), and
        // the departure reschedule inside dispatch_job() then runs
        // purely in place. Order is observationally identical — the
        // successor's time does not depend on the dispatch, and the two
        // events' relative sequence numbers only matter if their times
        // collide bit-for-bit.
        auto job = args.unpack<queueing::Job>();
        ++total_arrivals_;
        schedule_next_trace_arrival();
        if (trace_ != nullptr) [[unlikely]] {
          trace_arrival(job);
        }
        dispatch_job(job);
        return;
      }
      case kSpeedChange: {
        const auto change = args.unpack<SpeedChangeArgs>();
        apply_speed_change(change.machine, change.speed);
        return;
      }
      case kFaultTransition:
        on_fault_event(args.unpack<FaultEvent>());
        return;
      case kStateReport: {
        const auto report = args.unpack<StateReportArgs>();
        schedulers_[report.scheduler]->on_machine_state_report(report.machine,
                                                              report.up);
        return;
      }
      case kLossDetected:
        on_loss_detected(args.unpack<queueing::Job>());
        return;
      case kRetryDispatch: {
        auto job = args.unpack<queueing::Job>();
        dispatch_job(job);
        return;
      }
      case kDepartureReport: {
        const auto report = args.unpack<DepartureReportArgs>();
        schedulers_[report.scheduler]->on_departure_report(
            report.machine, simulator_.now(), report.size);
        return;
      }
      case kMetricsSample:
        on_metrics_sample();
        return;
      case kLoadSnapshot:
        on_load_snapshot();
        return;
      case kLoadReport: {
        const auto report = args.unpack<LoadReportArgs>();
        schedulers_[report.scheduler]->on_load_report(report.machine,
                                                      report.queue_length);
        return;
      }
      case kPartitionEvent:
        on_partition_event(args.unpack<PartitionEvent>());
        return;
      case kNetDeliverDispatch:
        net_on_deliver(args.unpack<NetMsgArgs>());
        return;
      case kNetCopyLost:
        net_on_copy_lost(args.unpack<NetMsgArgs>());
        return;
      case kHedgeTimer:
        net_on_hedge_timer(args.unpack<FlightRef>());
        return;
      case kHeartbeat:
        on_heartbeat(args.unpack<HeartbeatArgs>().machine);
        return;
      case kHeartbeatArrival:
        on_heartbeat_arrival(args.unpack<HeartbeatArgs>().machine);
        return;
      case kSuspectCheck: {
        const auto check = args.unpack<SuspectArgs>();
        on_suspect_check(check.machine, check.generation);
        return;
      }
    }
    HS_CHECK(false, "unknown event kind " << kind);
  }

  // ---- Observability (config.observer; see docs/OBSERVABILITY.md) ----

  /// The standard time-series gauge set. Gauges capture raw pointers
  /// into this run, so the registry is cleared first and must be
  /// re-registered per run (which also makes reuse across replications
  /// safe).
  void register_standard_gauges() {
    registry_->clear();
    for (size_t m = 0; m < servers_.size(); ++m) {
      queueing::Server* server = servers_[m].get();
      const std::string prefix = machine_prefix(m);
      registry_->register_gauge(prefix + ".queue_depth", [server] {
        return static_cast<double>(server->queue_length());
      });
      registry_->register_gauge(prefix + ".utilization",
                                [server] { return server->utilization(); });
      registry_->register_gauge(prefix + ".speed",
                                [server] { return server->speed(); });
      registry_->register_gauge(prefix + ".completed", [server] {
        return static_cast<double>(server->completed_jobs());
      });
    }
    registry_->register_gauge("cluster.in_flight", [this] {
      size_t in_flight = 0;
      for (const auto& server : servers_) {
        in_flight += server->queue_length();
      }
      return static_cast<double>(in_flight);
    });
    registry_->register_counter("cluster.dispatched", &obs_dispatched_);
    registry_->register_gauge("cluster.completed", [this] {
      uint64_t completed = 0;
      for (const auto& server : servers_) {
        completed += server->completed_jobs();
      }
      return static_cast<double>(completed);
    });
    // Fault counters are always present so the CSV schema does not
    // depend on the fault config (all-zero columns without faults).
    registry_->register_gauge("cluster.lost", [this] {
      return static_cast<double>(metrics_.jobs_lost());
    });
    registry_->register_gauge("cluster.retried", [this] {
      return static_cast<double>(metrics_.jobs_retried());
    });
    registry_->register_gauge("cluster.dropped", [this] {
      return static_cast<double>(metrics_.jobs_dropped());
    });
    // Overload gauges are likewise always present (all-zero columns when
    // overload protection is off) so the CSV schema stays stable.
    for (size_t m = 0; m < servers_.size(); ++m) {
      queueing::Server* server = servers_[m].get();
      const std::string prefix = machine_prefix(m);
      registry_->register_gauge(prefix + ".capacity", [server] {
        return static_cast<double>(server->capacity());
      });
    }
    registry_->register_gauge("cluster.rejected", [this] {
      return static_cast<double>(metrics_.jobs_rejected());
    });
    registry_->register_gauge("cluster.shed", [this] {
      return static_cast<double>(metrics_.jobs_shed());
    });
    registry_->register_gauge("cluster.shed_rate", [this] {
      return total_arrivals_ > 0
                 ? static_cast<double>(total_shed_) /
                       static_cast<double>(total_arrivals_)
                 : 0.0;
    });
    registry_->register_gauge("cluster.retry_budget_denied", [this] {
      return static_cast<double>(metrics_.retry_budget_denied());
    });
    // Breaker state per machine (0 closed, 1 half-open, 2 open; 0 when
    // no breaker decorates scheduler 0).
    const auto* breaker =
        dispatch::find_layer<overload::CircuitBreakerDispatcher>(
            *schedulers_.front());
    for (size_t m = 0; m < servers_.size(); ++m) {
      const std::string prefix = machine_prefix(m);
      registry_->register_gauge(prefix + ".breaker_state", [breaker, m] {
        if (breaker == nullptr) {
          return 0.0;
        }
        switch (breaker->state(m)) {
          case overload::BreakerState::kClosed:   return 0.0;
          case overload::BreakerState::kHalfOpen: return 1.0;
          case overload::BreakerState::kOpen:     return 2.0;
        }
        return 0.0;
      });
    }
    // Adaptation gauges (all-zero columns without an adaptive
    // dispatcher). These capture `this`, not `adaptive_`: gauges are
    // registered before the constructor unwraps scheduler 0.
    registry_->register_gauge("cluster.lambda_hat", [this] {
      return adaptive_ != nullptr ? adaptive_->lambda_hat() : 0.0;
    });
    registry_->register_gauge("cluster.rho_assumed", [this] {
      return adaptive_ != nullptr ? adaptive_->assumed_rho() : 0.0;
    });
    registry_->register_gauge("cluster.realloc_commits", [this] {
      return adaptive_ != nullptr
                 ? static_cast<double>(adaptive_->governor().commits())
                 : 0.0;
    });
    registry_->register_gauge("cluster.realloc_rejected", [this] {
      return adaptive_ != nullptr
                 ? static_cast<double>(adaptive_->governor().rejections())
                 : 0.0;
    });
    registry_->register_gauge("cluster.governor_frozen", [this] {
      return adaptive_ != nullptr && adaptive_->governor().frozen() ? 1.0
                                                                    : 0.0;
    });
    for (size_t m = 0; m < servers_.size(); ++m) {
      const std::string prefix = machine_prefix(m);
      registry_->register_gauge(prefix + ".speed_hat", [this, m] {
        return adaptive_ != nullptr ? adaptive_->speed_hat(m) : 0.0;
      });
    }
    // Network gauges (all-zero columns when the network layer is off) so
    // the CSV schema stays stable across configs.
    registry_->register_gauge("cluster.suspected", [this] {
      double suspected = 0.0;
      for (const HeartbeatState& state : hb_) {
        suspected += state.suspected ? 1.0 : 0.0;
      }
      return suspected;
    });
    registry_->register_gauge("cluster.hedge_rate", [this] {
      uint64_t issued = 0;
      for (const dispatch::HedgedDispatcher* hedged : hedged_) {
        if (hedged != nullptr) {
          issued += hedged->issued();
        }
      }
      return total_arrivals_ > 0
                 ? static_cast<double>(issued) /
                       static_cast<double>(total_arrivals_)
                 : 0.0;
    });
    registry_->reserve_samples(
        static_cast<size_t>(config_.sim_time / sample_interval_) + 2);
  }

  // Cold out-of-line recorders for the hot-path hook sites: the branch
  // stays inline (one never-taken test when tracing is off), the stores
  // live in .text.unlikely so they never crowd the dispatch loop's
  // i-cache. Only ever called with a sink attached.
  [[gnu::cold]] [[gnu::noinline]] void trace_arrival(
      const queueing::Job& job) {
    trace_->record(job.arrival_time, obs::TraceEventKind::kArrival, job.id,
                   obs::TraceSink::kScheduler, 0, job.size);
  }
  [[gnu::cold]] [[gnu::noinline]] void trace_dispatch(
      const queueing::Job& job, size_t machine) {
    trace_->record(simulator_.now(), obs::TraceEventKind::kDispatch, job.id,
                   static_cast<int32_t>(machine),
                   static_cast<uint16_t>(job.attempt), job.size);
  }
  [[gnu::cold]] [[gnu::noinline]] void trace_completion(
      const queueing::Completion& completion) {
    trace_->record(completion.departure_time,
                   obs::TraceEventKind::kCompletion, completion.job.id,
                   completion.machine,
                   static_cast<uint16_t>(completion.job.attempt));
  }

  void on_metrics_sample() {
    registry_->sample(simulator_.now());
    ++sample_tick_;
    // Absolute multiples of the interval, so ticks never drift and the
    // fired-event count is exactly floor(sim_time / interval).
    const double next =
        static_cast<double>(sample_tick_ + 1) * sample_interval_;
    if (next <= config_.sim_time) {
      simulator_.schedule_at(next, *this, kMetricsSample);
    }
  }

  /// Drift model (config.uncertainty.drift): the true arrival rate is
  /// λ(t) = λ·factor_at(t), injected by dividing each interarrival gap
  /// by the factor at the instant the gap is scheduled. No extra RNG
  /// draws — an all-ones timeline replays draw-for-draw identically.
  [[nodiscard]] double drifted_gap(double gap, double now) const {
    return gap / config_.uncertainty.drift.factor_at(now);
  }

  void schedule_first_arrival() {
    if (config_.trace != nullptr) {
      schedule_next_trace_arrival();
      return;
    }
    double t = arrivals_->next_interarrival(arrival_gen_);
    if (drift_on_) [[unlikely]] {
      t = drifted_gap(t, 0.0);
    }
    t = choice_double(ChoiceKind::kArrivalGap, 0, t);
    if (t <= config_.sim_time) {
      simulator_.schedule_at(t, *this, kGeneratedArrival);
    }
  }

  /// Staleness model (config.uncertainty.staleness): snapshot every
  /// machine's queue length and deliver it to each feedback scheduler
  /// `report_delay` seconds later. Snapshot ticks sit at absolute
  /// multiples of Δ, like the metrics sampler.
  void on_load_snapshot() {
    const uncertainty::StalenessConfig& staleness =
        config_.uncertainty.staleness;
    for (size_t s = 0; s < schedulers_.size(); ++s) {
      if (!schedulers_[s]->uses_feedback()) {
        continue;
      }
      for (size_t m = 0; m < servers_.size(); ++m) {
        simulator_.schedule_in(
            staleness.report_delay, *this, kLoadReport,
            sim::EventArgs::pack(LoadReportArgs{
                static_cast<uint32_t>(s), static_cast<uint32_t>(m),
                static_cast<uint64_t>(servers_[m]->queue_length())}));
      }
    }
    ++snapshot_tick_;
    const double next = static_cast<double>(snapshot_tick_ + 1) *
                        staleness.update_interval;
    if (next <= config_.sim_time) {
      simulator_.schedule_at(next, *this, kLoadSnapshot);
    }
  }

  void schedule_next_trace_arrival() {
    // Schedule one at a time to keep the event heap small.
    const auto& jobs = config_.trace->jobs();
    if (trace_index_ < jobs.size() &&
        jobs[trace_index_].arrival_time <= config_.sim_time) {
      const queueing::Job job = jobs[trace_index_++];
      simulator_.schedule_at(job.arrival_time, *this, kTraceArrival,
                             sim::EventArgs::pack(job));
    }
  }

  void on_generated_arrival() {
    ++total_arrivals_;
    queueing::Job job;
    job.id = next_job_id_++;
    job.arrival_time = simulator_.now();
    job.size = size_model_.sample(size_gen_);
    // Schedule the successor arrival before dispatching the job (see
    // kTraceArrival): the push fills the root hole this pop left, and
    // the departure reschedule in dispatch_job() stays in place. The
    // arrival and size streams are independent generators, so the draw
    // order across them is immaterial.
    double gap = arrivals_->next_interarrival(arrival_gen_);
    if (drift_on_) [[unlikely]] {
      gap = drifted_gap(gap, job.arrival_time);
    }
    gap = choice_double(ChoiceKind::kArrivalGap, 0, gap);
    const double next = job.arrival_time + gap;
    if (next <= config_.sim_time) {
      simulator_.schedule_at(next, *this, kGeneratedArrival);
    }
    if (trace_ != nullptr) [[unlikely]] {
      trace_arrival(job);
    }
    dispatch_job(job);
  }

  /// Which scheduler handles the next arriving job.
  size_t next_scheduler() {
    if (schedulers_.size() == 1) {
      return 0;
    }
    if (split_ == SchedulerSplit::kRoundRobin) {
      const size_t s = split_cursor_;
      split_cursor_ = (split_cursor_ + 1) % schedulers_.size();
      return s;
    }
    return split_gen_.next_below(schedulers_.size());
  }

  /// Routes `job` and stamps its sender into the caller's record, which
  /// the server copies (a by-value parameter measured ~5% slower on the
  /// 15-machine ORR cluster).
  void dispatch_job(queueing::Job& job) {
    const size_t scheduler = next_scheduler();
    job.scheduler = static_cast<uint16_t>(scheduler);
    dispatch::Dispatcher& dispatcher = *schedulers_[scheduler];
    dispatcher.on_arrival(simulator_.now());
    const size_t machine = dispatcher.pick_sized(dispatch_gen_, job.size);
    const bool measured = job.arrival_time >= config_.warmup_time();
    if (overload_on_ && !overload_admit(job, machine, measured))
        [[unlikely]] {
      return;  // shed at the boundary — never dispatched
    }
    metrics_.on_dispatch(machine, measured);
    if (trace_ != nullptr) [[unlikely]] {
      trace_dispatch(job, machine);
    }
    if (registry_ != nullptr) [[unlikely]] {
      ++obs_dispatched_;
    }
    if (tracker_) {
      tracker_->record(job.arrival_time, machine);
    }
    if (net_on_) [[unlikely]] {
      // Asynchronous path: the dispatch is a message over the faulty
      // link. Admission/shedding above stays scheduler-side (no network
      // crossing); everything from here — crashed-machine losses, queue
      // rejections, accept/reject feedback — happens on delivery. The
      // flight table tracks the copies until exactly one outcome
      // (completion, shed upstream, or drop) settles the job.
      net_dispatch(job, machine);
      return;
    }
    if (faults_on_ && down_[machine]) {
      // Dispatched into a crash the scheduler has not (yet) detected:
      // the job is lost on arrival, like everything else on the machine.
      if (any_overload_feedback_) {
        dispatcher.on_dispatch_result(machine, false, simulator_.now());
      }
      on_job_lost(job, machine);
      return;
    }
    if (!servers_[machine]->arrive(job)) [[unlikely]] {
      if (any_overload_feedback_) {
        dispatcher.on_dispatch_result(machine, false, simulator_.now());
      }
      on_job_rejected(job, machine, measured);
      return;
    }
    if (any_overload_feedback_) [[unlikely]] {
      dispatcher.on_dispatch_result(machine, true, simulator_.now());
    }
  }

  // ---- Overload protection (config.overload; docs/FAULT_MODEL.md §6) ----

  /// Admission gate for one routed job. Sheds apply to first attempts
  /// only (a retry was already admitted once; its fate belongs to the
  /// retry policy and budget). Returns false when the job was shed.
  bool overload_admit(const queueing::Job& job, size_t machine,
                      bool measured) {
    if (admission_ == nullptr || job.attempt != 0) {
      if (retry_budget_ && job.attempt == 0) {
        retry_budget_->on_admission();
      }
      return true;
    }
    queueing::Server& server = *servers_[machine];
    const overload::AdmissionContext ctx{
        simulator_.now(), machine,          server.queue_length(),
        server.capacity(), server.speed(),  job.size};
    const bool verdict = admission_->admit(ctx, *overload_gen_);
    if (choice_bool(ChoiceKind::kAdmitDecision, machine, verdict)) {
      if (retry_budget_) {
        retry_budget_->on_admission();
      }
      return true;
    }
    metrics_.on_job_shed(measured);
    ++total_shed_;
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kShed, job.id,
                     static_cast<int32_t>(machine),
                     static_cast<uint16_t>(job.attempt), job.size);
    }
    return false;
  }

  /// A dispatch attempt bounced off `machine`'s full bounded queue. The
  /// rejection is synchronous (the scheduler sees it immediately, unlike
  /// a crash loss, which waits for detection), so the retry decision
  /// happens on the spot.
  void on_job_rejected(const queueing::Job& job, size_t machine,
                       bool measured) {
    metrics_.on_job_rejected(measured);
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kReject, job.id,
                     static_cast<int32_t>(machine),
                     static_cast<uint16_t>(job.attempt));
    }
    decide_retry(job, measured);
  }

  // ---- Fault injection (config.faults; see docs/FAULT_MODEL.md) ----

  // ---- Choice-point instrumentation (cluster/choice.h) ----
  //
  // Every instrumented stochastic decision funnels through these two
  // helpers. The natural draw always happens first (stream positions
  // never shift); with hook_ null each helper is a single branch and
  // returns the draw unchanged, keeping hookless runs bit-identical.

  bool choice_bool(ChoiceKind kind, size_t entity, bool drawn) {
    if (hook_ == nullptr) [[likely]] {
      return drawn;
    }
    return hook_->on_bool(kind, static_cast<uint32_t>(entity), drawn);
  }

  double choice_double(ChoiceKind kind, size_t entity, double drawn) {
    if (hook_ == nullptr) [[likely]] {
      return drawn;
    }
    double value = hook_->on_double(kind, static_cast<uint32_t>(entity),
                                    drawn);
    if (!std::isfinite(value) || value < 0.0) {
      value = 0.0;  // a delay/gap override must stay a valid delay/gap
    }
    return value;
  }

  /// §4.2 feedback latency: the event is noticed at the next periodic
  /// check — U(0, detection_interval) — plus an exponential message
  /// transfer delay.
  double feedback_delay(rng::Xoshiro256& gen, size_t machine) {
    const NetworkConfig& net = config_.network;
    double delay = 0.0;
    if (net.detection_interval > 0.0) {
      delay += gen.uniform(0.0, net.detection_interval);
    }
    if (net.message_delay_mean > 0.0) {
      delay += -std::log(gen.next_double_open0()) * net.message_delay_mean;
    }
    return choice_double(ChoiceKind::kFeedbackDelay, machine, delay);
  }

  void apply_speed_change(size_t machine, double new_speed) {
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kSpeedChange,
                     obs::TraceSink::kNoJob, static_cast<int32_t>(machine),
                     0, new_speed);
    }
    if (faults_on_) {
      nominal_speed_[machine] = new_speed;
      if (down_[machine]) {
        return;  // takes effect on recovery
      }
    }
    servers_[machine]->set_speed(new_speed);
  }

  void on_fault_event(const FaultEvent& event) {
    const size_t machine = event.machine;
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(),
                     event.up ? obs::TraceEventKind::kRecovery
                              : obs::TraceEventKind::kCrash,
                     obs::TraceSink::kNoJob, static_cast<int32_t>(machine));
    }
    if (!event.up) {
      down_[machine] = true;
      // The crash loses every resident job; the machine then sits at
      // speed 0 (occupied-but-dead time does not count as busy — the
      // queue is empty).
      servers_[machine]->evict_all(evicted_);
      servers_[machine]->set_speed(0.0);
      for (const queueing::Job& job : evicted_) {
        if (net_on_) {
          net_resident_lost(job, machine);
        } else {
          on_job_lost(job, machine);
        }
      }
    } else {
      down_[machine] = false;
      servers_[machine]->set_speed(nominal_speed_[machine]);
    }
    if (hb_on_) {
      // The heartbeat detector owns the fault signal: a crash silences
      // the machine's heartbeats and suspicion follows; recovery resumes
      // them and the next arrival rescinds it. No out-of-band reports.
      return;
    }
    // Failure-aware schedulers learn of the transition after their own
    // detection delay; each detects independently.
    for (size_t s = 0; s < schedulers_.size(); ++s) {
      if (!schedulers_[s]->uses_fault_feedback()) {
        continue;
      }
      const double delay = feedback_delay(fault_delay_gen_, machine);
      simulator_.schedule_in(
          delay, *this, kStateReport,
          sim::EventArgs::pack(StateReportArgs{
              static_cast<uint32_t>(s), static_cast<uint32_t>(machine),
              event.up}));
    }
  }

  /// A dispatch attempt of `job` just died with machine `machine`. The
  /// scheduler learns of the loss after a detection delay, then decides
  /// between retry and drop.
  void on_job_lost(const queueing::Job& job, size_t machine) {
    const bool measured = job.arrival_time >= config_.warmup_time();
    metrics_.on_job_lost(measured);
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kJobLost, job.id,
                     static_cast<int32_t>(machine),
                     static_cast<uint16_t>(job.attempt));
    }
    const double delay = feedback_delay(fault_delay_gen_, machine);
    simulator_.schedule_in(delay, *this, kLossDetected,
                           sim::EventArgs::pack(job));
  }

  void on_loss_detected(const queueing::Job& job) {
    const bool measured = job.arrival_time >= config_.warmup_time();
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kLossDetected,
                     job.id, obs::TraceSink::kScheduler,
                     static_cast<uint16_t>(job.attempt));
    }
    decide_retry(job, measured);
  }

  /// Retry-or-drop decision for a failed dispatch attempt (crash loss or
  /// queue rejection), under the per-job retry policy plus the optional
  /// cluster-wide retry budget.
  void decide_retry(const queueing::Job& job, bool measured) {
    const RetryPolicy& policy = config_.faults.retry;
    if (job.attempt + 1u >= policy.max_attempts) {
      drop_job(job, measured);
      return;
    }
    const double backoff =
        policy.backoff_initial *
        std::pow(policy.backoff_factor, static_cast<double>(job.attempt));
    if (policy.job_timeout > 0.0 &&
        simulator_.now() + backoff - job.arrival_time > policy.job_timeout) {
      drop_job(job, measured);
      return;
    }
    if (retry_budget_ && !retry_budget_->try_spend()) {
      // The cluster-wide budget is exhausted: retrying now would feed a
      // retry storm, so the job is dropped on the spot.
      metrics_.on_retry_budget_denied(measured);
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(),
                       obs::TraceEventKind::kRetryBudgetExhausted, job.id,
                       obs::TraceSink::kScheduler,
                       static_cast<uint16_t>(job.attempt));
      }
      drop_job(job, measured);
      return;
    }
    metrics_.on_job_retried(measured);
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kRetry, job.id,
                     obs::TraceSink::kScheduler,
                     static_cast<uint16_t>(job.attempt), backoff);
    }
    queueing::Job retry = job;
    retry.attempt += 1;
    simulator_.schedule_in(backoff, *this, kRetryDispatch,
                           sim::EventArgs::pack(retry));
  }

  void drop_job(const queueing::Job& job, bool measured) {
    metrics_.on_job_dropped(measured);
    // Planted bug for the explorer harness (FaultConfig::test_only_drop_leak):
    // third-or-later-attempt drops vanish from the whole-run counter,
    // breaking the conservation identity the invariant registry checks.
    if (!config_.faults.test_only_drop_leak || job.attempt < 2) [[likely]] {
      ++total_dropped_;
    }
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kDrop, job.id,
                     obs::TraceSink::kScheduler,
                     static_cast<uint16_t>(job.attempt));
    }
  }

  // ---- Network layer (config.network; docs/FAULT_MODEL.md §8) ----
  //
  // With net_on_, every dispatch is a message copy over the faulty
  // dispatcher→machine link and every job in flight has a Flight slot
  // (job.flight). A flight holds up to two copies (primary + hedge);
  // `pending` counts copies whose fate is still unsettled (in transit or
  // awaiting loss detection), `resident_mask` the copies currently
  // occupying a server. The flight resolves exactly once:
  //   * completion — the first copy to finish wins, the loser is evicted
  //     and late deliveries are deduped (exactly-once accounting), or
  //   * failure — when the last copy dies (lost in transit, rejected, or
  //     crash-evicted) the job goes to the ordinary retry/drop path.

  /// Probability draw against one link parameter; no draw when the
  /// parameter is 0, so disabled features never perturb the stream. The
  /// choice hook sees the verdict either way — a schedule can force a
  /// loss on a loss-free link without adding RNG draws.
  bool link_event(double probability, ChoiceKind kind, size_t machine) {
    const bool drawn =
        probability > 0.0 && net_gen_->next_double() < probability;
    return choice_bool(kind, machine, drawn);
  }

  void on_partition_event(const PartitionEvent& event) {
    partitioned_[event.machine] = event.isolated ? 1 : 0;
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(),
                     event.isolated ? obs::TraceEventKind::kPartitionStart
                                    : obs::TraceEventKind::kPartitionEnd,
                     obs::TraceSink::kNoJob,
                     static_cast<int32_t>(event.machine));
    }
  }

  /// Start a fresh flight for this dispatch attempt and send the primary
  /// copy. Retries get a new flight (the previous one resolved before
  /// decide_retry ran).
  void net_dispatch(const queueing::Job& job, size_t machine) {
    if (free_flights_.empty()) {
      free_flights_.push_back(static_cast<uint32_t>(flights_.size()));
      flights_.emplace_back();
    }
    const uint32_t slot = free_flights_.back();
    free_flights_.pop_back();
    const auto m = static_cast<uint32_t>(machine);
    Flight& flight = flights_[slot];
    flight = Flight{.job = job,
                    .generation = flight.generation + 1,  // odd: live
                    .machine = {m, m},
                    .pending = 1,
                    .hedge_timer = {}};
    flight.job.flight = slot;
    dispatch::HedgedDispatcher* hedged = hedged_[job.scheduler];
    if (hedged != nullptr && hedged->config().enabled()) {
      flight.hedge_timer = simulator_.schedule_in(
          hedged->config().delay, *this, kHedgeTimer,
          sim::EventArgs::pack(FlightRef{slot, flight.generation}));
    }
    net_send_copy(flight, machine, /*copy=*/0);
  }

  /// Put one dispatch-message copy on the wire. The caller has already
  /// accounted the copy in the flight's `pending`.
  void net_send_copy(const Flight& flight, size_t machine, uint8_t copy) {
    const NetMsgArgs msg{flight.job, static_cast<uint32_t>(machine),
                         flight.generation, copy, /*notify_fail=*/0};
    const LinkFaults& link = config_.network.dispatch_link;
    // Partition first, without a draw: an isolated machine loses the
    // message deterministically, keeping partition experiments
    // stream-for-stream comparable to non-partitioned ones.
    if (partitioned_[machine] != 0 ||
        link_event(link.loss, ChoiceKind::kDispatchLoss, machine)) {
      net_lose_copy(msg);
      return;
    }
    simulator_.schedule_in(
        choice_double(ChoiceKind::kLinkDelay, machine,
                      link.sample_delay(*net_gen_)),
        *this, kNetDeliverDispatch, sim::EventArgs::pack(msg));
    if (link_event(link.duplicate, ChoiceKind::kDispatchDup, machine)) {
      ++msgs_duplicated_;
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(), obs::TraceEventKind::kMsgDup,
                       msg.job.id, static_cast<int32_t>(machine),
                       static_cast<uint16_t>(msg.job.attempt));
      }
      // Independent delay draw — the duplicate may overtake the
      // original; delivery dedups by the flight's delivered_mask.
      simulator_.schedule_in(
          choice_double(ChoiceKind::kLinkDelay, machine,
                        link.sample_delay(*net_gen_)),
          *this, kNetDeliverDispatch, sim::EventArgs::pack(msg));
    }
  }

  /// A copy died in transit: count it, and schedule the loss detection,
  /// which reports a dispatch failure (the §4.2 delay, drawn from the
  /// network stream so crash-loss detection stays untouched).
  void net_lose_copy(NetMsgArgs msg) {
    ++msgs_lost_;
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kMsgLost,
                     msg.job.id, static_cast<int32_t>(msg.machine),
                     static_cast<uint16_t>(msg.job.attempt));
    }
    msg.notify_fail = 1;
    simulator_.schedule_in(feedback_delay(*net_gen_, msg.machine), *this,
                           kNetCopyLost, sim::EventArgs::pack(msg));
  }

  void net_on_deliver(const NetMsgArgs& msg) {
    Flight& flight = flights_[msg.job.flight];
    if (flight.generation != msg.generation) {
      // The flight resolved before this copy arrived (a late duplicate,
      // or a delay-tail straggler of an attempt that failed and was
      // retried): it belongs to no live copy.
      return;
    }
    HS_CHECK(msg.job.attempt == flight.job.attempt,
             "stale copy of job " << msg.job.id << " matched a generation");
    const uint8_t bit = static_cast<uint8_t>(1u << msg.copy);
    if ((flight.delivered_mask & bit) != 0) {
      return;  // duplicate delivery of this copy — dedup
    }
    flight.delivered_mask |= bit;
    const size_t machine = msg.machine;
    const bool measured = msg.job.arrival_time >= config_.warmup_time();
    if (flight.completed) {
      // The sibling copy already finished: this arrival is dead on
      // arrival and never occupies the machine.
      HS_CHECK(flight.pending > 0,
               "pending underflow on flight " << flight.job.id);
      --flight.pending;
      net_record_cancelled(flight, msg.job);
      net_maybe_gc(flight);
      return;
    }
    if (faults_on_ && down_[machine]) {
      // Delivered into a crash: lost like everything resident there. The
      // copy's fate settles at loss detection, not here.
      metrics_.on_job_lost(measured);
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(), obs::TraceEventKind::kJobLost,
                       msg.job.id, static_cast<int32_t>(machine),
                       static_cast<uint16_t>(msg.job.attempt));
      }
      NetMsgArgs lost = msg;
      lost.notify_fail = 1;
      simulator_.schedule_in(feedback_delay(fault_delay_gen_, machine),
                             *this, kNetCopyLost, sim::EventArgs::pack(lost));
      return;
    }
    if (!servers_[machine]->arrive(msg.job)) [[unlikely]] {
      if (any_overload_feedback_) {
        schedulers_[flight.job.scheduler]->on_dispatch_result(
            machine, false, simulator_.now());
      }
      metrics_.on_job_rejected(measured);
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(), obs::TraceEventKind::kReject,
                       msg.job.id, static_cast<int32_t>(machine),
                       static_cast<uint16_t>(msg.job.attempt));
      }
      HS_CHECK(flight.pending > 0,
               "pending underflow on flight " << flight.job.id);
      --flight.pending;
      net_on_copy_failed(flight, measured);
      return;
    }
    flight.resident_mask |= bit;
    HS_CHECK(flight.pending > 0,
             "pending underflow on flight " << flight.job.id);
    --flight.pending;
    if (any_overload_feedback_) [[unlikely]] {
      schedulers_[flight.job.scheduler]->on_dispatch_result(
          machine, true, simulator_.now());
    }
  }

  void net_on_copy_lost(const NetMsgArgs& msg) {
    Flight& flight = flights_[msg.job.flight];
    HS_CHECK(flight.generation == msg.generation,
             "loss detected for resolved flight of job " << msg.job.id);
    HS_CHECK(flight.pending > 0,
             "pending underflow on flight " << flight.job.id);
    --flight.pending;
    if (msg.notify_fail != 0 && any_overload_feedback_) {
      // The scheduler sees the silent failure as a dispatch rejection —
      // this is how a partition trips circuit breakers without any
      // machine crashing.
      schedulers_[flight.job.scheduler]->on_dispatch_result(
          msg.machine, false, simulator_.now());
    }
    const bool measured = msg.job.arrival_time >= config_.warmup_time();
    net_on_copy_failed(flight, measured);
  }

  /// A copy's fate settled as failure. If a sibling copy is still alive
  /// the flight stays open; otherwise it resolves into the ordinary
  /// retry/drop path.
  void net_on_copy_failed(Flight& flight, bool measured) {
    if (flight.completed) {
      net_maybe_gc(flight);
      return;
    }
    if (flight.pending > 0 || flight.resident_mask != 0) {
      return;  // a sibling copy may still finish the job
    }
    simulator_.cancel(flight.hedge_timer);
    decide_retry(flight.job, measured);
    net_release(flight);
  }

  /// A resident copy was crash-evicted (on_fault_event with net on): it
  /// leaves the machine now and its fate settles at loss detection.
  void net_resident_lost(const queueing::Job& job, size_t machine) {
    Flight& flight = flights_[job.flight];
    HS_CHECK(flight.live() && flight.job.id == job.id,
             "crash evicted untracked flight " << job.id);
    HS_CHECK(!flight.completed,
             "completed flight " << job.id << " still resident");
    const uint8_t copy =
        (flight.resident_mask & 1) != 0 &&
                flight.machine[0] == static_cast<uint32_t>(machine)
            ? 0
            : 1;
    flight.resident_mask &= static_cast<uint8_t>(~(1u << copy));
    ++flight.pending;
    const bool measured = job.arrival_time >= config_.warmup_time();
    metrics_.on_job_lost(measured);
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kJobLost,
                     job.id, static_cast<int32_t>(machine),
                     static_cast<uint16_t>(job.attempt));
    }
    // Crash-loss detection stays on the fault stream and does not report
    // a dispatch failure: the scheduler learns of the crash through the
    // fault signal (state report or heartbeat suspicion), matching the
    // synchronous path's semantics.
    simulator_.schedule_in(
        feedback_delay(fault_delay_gen_, machine), *this, kNetCopyLost,
        sim::EventArgs::pack(NetMsgArgs{job, static_cast<uint32_t>(machine),
                                        flight.generation, copy,
                                        /*notify_fail=*/0}));
  }

  void net_on_hedge_timer(const FlightRef& timer) {
    Flight& flight = flights_[timer.slot];
    if (flight.generation != timer.generation) {
      return;
    }
    flight.hedge_timer = sim::EventHandle{};
    if (flight.completed) {
      return;
    }
    // A schedule may veto the hedge here (drawn verdict is always
    // "issue"): the timer fired but no second copy goes out, exactly as
    // if pick_hedge had found no distinct machine.
    if (!choice_bool(ChoiceKind::kHedgeIssue, flight.machine[0], true)) {
      return;
    }
    dispatch::HedgedDispatcher* hedged = hedged_[flight.job.scheduler];
    const size_t primary = flight.machine[0];
    const size_t second =
        hedged->pick_hedge(dispatch_gen_, flight.job.size, primary);
    if (second == primary) {
      return;  // no distinct second choice (e.g. everything masked out)
    }
    hedged->record_issued();
    const bool measured = flight.job.arrival_time >= config_.warmup_time();
    // The hedge copy counts as a dispatch attempt, like a retry does.
    metrics_.on_dispatch(second, measured);
    if (registry_ != nullptr) [[unlikely]] {
      ++obs_dispatched_;
    }
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kHedgeIssued,
                     flight.job.id, static_cast<int32_t>(second),
                     static_cast<uint16_t>(flight.job.attempt),
                     hedged->config().delay);
    }
    flight.machine[1] = static_cast<uint32_t>(second);
    ++flight.pending;
    net_send_copy(flight, second, /*copy=*/1);
  }

  /// First-completion-wins resolution: dedup is structural (the loser is
  /// evicted here, before it can ever complete), the winner's metrics
  /// were already counted by on_completion's common path.
  void net_on_completion(const queueing::Completion& completion) {
    Flight& flight = flights_[completion.job.flight];
    HS_CHECK(flight.live() && flight.job.id == completion.job.id,
             "completion for untracked flight " << completion.job.id);
    HS_CHECK(!flight.completed,
             "duplicate completion for job " << completion.job.id);
    flight.completed = true;
    const uint8_t winner =
        (flight.resident_mask & 2) != 0 &&
                flight.machine[1] == static_cast<uint32_t>(completion.machine)
            ? 1
            : 0;
    flight.resident_mask &= static_cast<uint8_t>(~(1u << winner));
    if (winner == 1) {
      hedged_[flight.job.scheduler]->record_won();
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(), obs::TraceEventKind::kHedgeWon,
                       completion.job.id, completion.machine,
                       static_cast<uint16_t>(completion.job.attempt));
      }
    }
    const uint8_t loser = static_cast<uint8_t>(1 - winner);
    if ((flight.resident_mask & (1u << loser)) != 0) {
      const size_t other = flight.machine[loser];
      const bool evicted = servers_[other]->evict(completion.job.id);
      HS_CHECK(evicted, "losing copy of job " << completion.job.id
                                              << " missing from machine "
                                              << other);
      flight.resident_mask &= static_cast<uint8_t>(~(1u << loser));
      net_record_cancelled(flight, completion.job);
    }
    simulator_.cancel(flight.hedge_timer);
    flight.hedge_timer = sim::EventHandle{};
    const size_t scheduler = flight.job.scheduler;
    net_maybe_gc(flight);
    if (any_feedback_ && !stale_feedback_ &&
        schedulers_[scheduler]->uses_feedback()) {
      net_send_report(scheduler, static_cast<size_t>(completion.machine),
                      completion.job.size);
    }
  }

  /// One departure report over the faulty machine→dispatcher link. The
  /// §4.2 base delay is drawn first (from the same stream as ever), then
  /// the link may drop, slow, or duplicate the report. A lost report is
  /// simply never seen — the Least-Load estimate stays stale, a
  /// duplicated one double-decrements it; both are the realistic harm.
  void net_send_report(size_t scheduler, size_t machine, double size) {
    const LinkFaults& link = config_.network.report_link;
    const double base = feedback_delay(delay_gen_, machine);
    if (partitioned_[machine] != 0 ||
        link_event(link.loss, ChoiceKind::kReportLoss, machine)) {
      ++msgs_lost_;
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(), obs::TraceEventKind::kMsgLost,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      return;
    }
    const DepartureReportArgs report{static_cast<uint32_t>(scheduler),
                                     static_cast<uint32_t>(machine), size};
    simulator_.schedule_in(base + choice_double(ChoiceKind::kLinkDelay,
                                                machine,
                                                link.sample_delay(*net_gen_)),
                           *this, kDepartureReport,
                           sim::EventArgs::pack(report));
    if (link_event(link.duplicate, ChoiceKind::kReportDup, machine)) {
      ++msgs_duplicated_;
      if (trace_ != nullptr) {
        trace_->record(simulator_.now(), obs::TraceEventKind::kMsgDup,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      simulator_.schedule_in(
          base + choice_double(ChoiceKind::kLinkDelay, machine,
                               link.sample_delay(*net_gen_)),
          *this, kDepartureReport, sim::EventArgs::pack(report));
    }
  }

  void net_record_cancelled(const Flight& flight, const queueing::Job& job) {
    dispatch::HedgedDispatcher* hedged = hedged_[flight.job.scheduler];
    if (hedged != nullptr) {
      hedged->record_cancelled();
    }
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kHedgeCancelled,
                     job.id, obs::TraceSink::kScheduler,
                     static_cast<uint16_t>(job.attempt));
    }
  }

  /// Release a completed flight once nothing references it any more (no
  /// copy in transit, none resident).
  void net_maybe_gc(Flight& flight) {
    if (flight.completed && flight.pending == 0 &&
        flight.resident_mask == 0) {
      net_release(flight);
    }
  }

  void net_release(Flight& flight) {
    ++flight.generation;
    free_flights_.push_back(flight.job.flight);
  }

  // ---- Heartbeat failure detection (config.network.heartbeat) ----

  void on_heartbeat(size_t machine) {
    // The emission chain always continues (crashed machines resume
    // beating on recovery); it ends at the horizon so the final drain
    // terminates.
    const double next =
        simulator_.now() + config_.network.heartbeat.interval;
    if (next <= config_.sim_time) {
      simulator_.schedule_at(
          next, *this, kHeartbeat,
          sim::EventArgs::pack(
              HeartbeatArgs{static_cast<uint32_t>(machine)}));
    }
    if (faults_on_ && down_[machine]) {
      return;  // a crashed machine emits nothing — silence is the signal
    }
    const LinkFaults& link = config_.network.report_link;
    if (partitioned_[machine] != 0 ||
        link_event(link.loss, ChoiceKind::kHeartbeatLoss, machine)) {
      ++msgs_lost_;
      return;  // not traced: lost heartbeats are high-volume noise
    }
    simulator_.schedule_in(
        choice_double(ChoiceKind::kLinkDelay, machine,
                      link.sample_delay(*net_gen_)),
        *this, kHeartbeatArrival,
        sim::EventArgs::pack(HeartbeatArgs{static_cast<uint32_t>(machine)}));
  }

  void on_heartbeat_arrival(size_t machine) {
    HeartbeatState& state = hb_[machine];
    const double now = simulator_.now();
    if (state.suspected) {
      state.suspected = false;
      if (trace_ != nullptr) {
        trace_->record(now, obs::TraceEventKind::kSuspectCleared,
                       obs::TraceSink::kNoJob,
                       static_cast<int32_t>(machine));
      }
      net_state_report(machine, /*up=*/true);
    }
    const HeartbeatConfig& hb = config_.network.heartbeat;
    state.phi.beat(now, hb.ewma_alpha);
    ++state.generation;
    simulator_.schedule_at(
        now + hb.timeout(state.phi.mean), *this, kSuspectCheck,
        sim::EventArgs::pack(SuspectArgs{static_cast<uint32_t>(machine),
                                         state.generation}));
  }

  void on_suspect_check(size_t machine, uint64_t generation) {
    // Heartbeat emission ends at the horizon, so during the drain the
    // final generation's check would always fire and falsely re-suspect
    // every machine. Arrivals have stopped by then — there is nothing
    // left to route around — so the detector retires with the run.
    if (simulator_.now() > config_.sim_time) {
      return;
    }
    HeartbeatState& state = hb_[machine];
    if (state.generation != generation || state.suspected) {
      return;  // a later heartbeat superseded this check
    }
    state.suspected = true;
    ++suspicions_;
    if (trace_ != nullptr) {
      trace_->record(simulator_.now(), obs::TraceEventKind::kSuspect,
                     obs::TraceSink::kNoJob, static_cast<int32_t>(machine),
                     0, simulator_.now() - state.phi.last);
    }
    net_state_report(machine, /*up=*/false);
  }

  /// Deliver a detector verdict to every scheduler that reacts to fault
  /// or overload signals. Unlike PR 1's crash reports (fault feedback
  /// only), suspicion also reaches circuit breakers: a false suspicion
  /// during a partition must trip breakers and reroute, not evict jobs.
  void net_state_report(size_t machine, bool up) {
    for (dispatch::Dispatcher* scheduler : schedulers_) {
      if (scheduler->uses_fault_feedback() ||
          scheduler->uses_overload_feedback()) {
        scheduler->on_machine_state_report(machine, up);
      }
    }
  }

  void on_completion(const queueing::Completion& completion) {
    const bool measured =
        completion.job.arrival_time >= config_.warmup_time();
    metrics_.on_completion(completion, measured);
    ++total_completed_;
    if (trace_ != nullptr) [[unlikely]] {
      trace_completion(completion);
    }
    if (config_.completion_hook) {
      config_.completion_hook(completion, measured);
    }
    if (net_on_) [[unlikely]] {
      net_on_completion(completion);
      return;
    }
    if (any_feedback_ && !stale_feedback_) {
      const size_t scheduler = completion.job.scheduler;
      if (schedulers_[scheduler]->uses_feedback()) {
        // §4.2: the machine notices the departure at its next 1 Hz load
        // check — U(0,1) s — then a message reaches the scheduler after
        // an exponential transfer delay of mean 0.05 s.
        const double delay = feedback_delay(
            delay_gen_, static_cast<size_t>(completion.machine));
        simulator_.schedule_in(
            delay, *this, kDepartureReport,
            sim::EventArgs::pack(DepartureReportArgs{
                static_cast<uint32_t>(scheduler),
                static_cast<uint32_t>(completion.machine),
                completion.job.size}));
      }
    }
  }

  const SimulationConfig& config_;
  std::vector<dispatch::Dispatcher*> schedulers_;
  SchedulerSplit split_;
  bool any_feedback_ = false;
  size_t split_cursor_ = 0;
  workload::JobSizeModel size_model_;
  rng::Xoshiro256 arrival_gen_;
  rng::Xoshiro256 size_gen_;
  rng::Xoshiro256 dispatch_gen_;
  rng::Xoshiro256 delay_gen_;
  rng::Xoshiro256 split_gen_;
  rng::Xoshiro256 fault_delay_gen_;
  ChoiceHook* hook_ = nullptr;  // null = choice instrumentation off
  bool faults_on_ = false;
  bool overload_on_ = false;
  bool any_overload_feedback_ = false;
  std::unique_ptr<overload::AdmissionPolicy> admission_;  // null = admit all
  std::optional<overload::RetryBudget> retry_budget_;
  std::optional<rng::Xoshiro256> overload_gen_;  // admission decision stream
  bool drift_on_ = false;          // true arrival rate is λ·factor_at(t)
  bool stale_feedback_ = false;    // periodic snapshots replace reports
  uint64_t snapshot_tick_ = 0;     // index of the last fired snapshot
  // ---- Network layer state (allocated only when net_on_) ----
  bool net_on_ = false;   // asynchronous dispatch path active
  bool hb_on_ = false;    // heartbeat detector owns the fault signal
  std::optional<rng::Xoshiro256> net_gen_;  // all link-fault draws
  std::vector<char> partitioned_;           // current isolation per machine
  std::vector<Flight> flights_;          // slab indexed by Job::flight
  std::vector<uint32_t> free_flights_;  // slots whose flight resolved
  std::vector<dispatch::HedgedDispatcher*> hedged_;  // per scheduler (null)
  std::vector<HeartbeatState> hb_;
  uint64_t msgs_lost_ = 0;
  uint64_t msgs_duplicated_ = 0;
  uint64_t suspicions_ = 0;
  // Scheduler 0's adaptive core, found through any decorators (null
  // when there is none). It masks natively, so the masking decorators
  // never rebuild it and the pointer is stable for the run.
  uncertainty::GovernedAdaptiveDispatcher* adaptive_ = nullptr;
  uint64_t total_arrivals_ = 0;   // whole-run accounting (incl. warm-up)
  uint64_t total_completed_ = 0;
  uint64_t total_shed_ = 0;
  uint64_t total_dropped_ = 0;
  std::vector<bool> down_;             // current crash state per machine
  std::vector<double> nominal_speed_;  // speed to restore on recovery
  std::vector<double> downtime_;       // per machine, within [0, sim_time]
  std::vector<queueing::Job> evicted_;  // a crash's lost jobs (reused)
  obs::TraceSink* trace_ = nullptr;          // null = tracing off
  obs::MetricsRegistry* registry_ = nullptr; // null = sampling off
  double sample_interval_ = 0.0;
  uint64_t sample_tick_ = 0;       // index of the last fired sampler tick
  uint64_t obs_dispatched_ = 0;    // dispatch attempts (sampling only)
  sim::Simulator simulator_;
  std::vector<std::unique_ptr<queueing::Server>> servers_;
  std::unique_ptr<workload::ArrivalProcess> arrivals_;
  MetricsCollector metrics_;
  std::optional<stats::IntervalDeviationTracker> tracker_;
  uint64_t next_job_id_ = 0;
  size_t trace_index_ = 0;
};

}  // namespace

SimulationResult run_simulation(const SimulationConfig& config,
                                dispatch::Dispatcher& dispatcher) {
  RunContext context(config, {&dispatcher}, SchedulerSplit::kRandom);
  return context.run();
}

SimulationResult run_trace_replay(SimulationConfig config,
                                  const workload::JobTrace& trace,
                                  dispatch::Dispatcher& dispatcher) {
  HS_CHECK(!trace.empty(), "cannot replay an empty trace");
  config.trace = &trace;
  config.sim_time = std::max(config.sim_time, trace.horizon());
  return run_simulation(config, dispatcher);
}

SimulationResult run_simulation_multi(
    const SimulationConfig& config,
    const std::vector<dispatch::Dispatcher*>& schedulers,
    SchedulerSplit split) {
  RunContext context(config, schedulers, split);
  return context.run();
}

}  // namespace hs::cluster
