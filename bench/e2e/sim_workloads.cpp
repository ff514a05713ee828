// The three simulator workloads: sim-paper15, sim-orr-1k, sim-chaos15.
//
// Each run is cluster::run_experiment on one thread, with a simulated
// horizon that scales with --seconds. A completion hook stamps the wall
// clock every kWindow completions, which gives the per-job wall cost
// without touching the library.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/experiment.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "e2e.h"
#include "overload/circuit_breaker.h"
#include "util/check.h"

namespace hs::e2e {
namespace {

using cluster::SimulationConfig;
using cluster::SimulationResult;
using Stack = std::unique_ptr<dispatch::Dispatcher>;

constexpr uint64_t kWindow = 32;  // completions per wall-clock stamp

struct SimWorkload {
  SimulationConfig config;
  /// Utilization the stack is planned for (the chaos stack plans with a
  /// biased belief of it).
  double planned_rho = 0.0;
  /// Simulated seconds per second of --seconds: the seed-state build
  /// covers about this much simulated time per wall second.
  double horizon_per_second = 0.0;
  /// Shortest replication horizon that still holds every scripted event.
  double min_horizon = 0.0;
  /// Replications the horizon is split into; end-to-end results are
  /// medians over them, so one heavy-tailed stretch does not move them.
  unsigned replications = 5;
  /// False when run_simulation locates the stack's decorators by
  /// dynamic_cast, so a TimedDispatcher around it would change the run.
  bool timed_dispatch = true;
  std::function<Stack()> build;
};

/// The 15-machine cluster of micro_sim's cluster_bench_config.
std::vector<double> cluster15_speeds() {
  return {1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5,
          1.5, 2.0, 2.0, 2.0, 5.0, 10.0, 12.0};
}

SimWorkload make_workload(const std::string& name) {
  SimWorkload w;
  SimulationConfig& c = w.config;
  c.rho = 0.7;
  c.warmup_frac = 0.25;
  w.planned_rho = c.rho;
  if (name == "sim-paper15") {
    c.speeds = cluster15_speeds();
    w.horizon_per_second = 7.5e6;
  } else if (name == "sim-orr-1k") {
    c.speeds = uniform_speeds(1000);
    // One replication: its horizon must exceed the largest job (21600 s)
    // for the response ratio to mean anything.
    w.replications = 1;
    w.horizon_per_second = 5.5e3;
  } else if (name == "sim-chaos15") {
    // The FullStackConservation layer settings (tests/test_conservation)
    // on the 15-machine cluster, with every link fault (loss, delay,
    // duplication) off: see README.md, "Known defects".
    c.speeds = cluster15_speeds();
    c.workload.arrival_kind = workload::ArrivalKind::kPoisson;
    c.workload.size_kind = workload::SizeKind::kExponential;
    c.workload.fixed_or_mean_size = 1.0;
    c.faults.processes.assign(c.speeds.size(), {2000.0, 150.0});
    c.faults.retry.max_attempts = 4;
    c.faults.retry.backoff_initial = 1.0;
    c.overload.queue_capacity = 64;
    c.overload.admission = overload::AdmissionKind::kQueueBoundShed;
    c.overload.retry_budget.enabled = true;
    c.uncertainty.lambda_error.bias = 0.7;
    c.uncertainty.speed_error.noise_cv = 0.1;
    c.uncertainty.drift.kind = uncertainty::DriftKind::kRamp;
    c.uncertainty.drift.ramp_start = 2000.0;
    c.uncertainty.drift.ramp_end = 10000.0;
    c.uncertainty.drift.start_factor = 0.8;
    c.uncertainty.drift.end_factor = 1.2;
    c.uncertainty.staleness.update_interval = 50.0;
    c.uncertainty.staleness.report_delay = 5.0;
    c.network.partitions.push_back({5000.0, 400.0, {1}});
    c.network.heartbeat.interval = 2.0;
    c.network.heartbeat.phi_threshold = 4.0;
    w.horizon_per_second = 2.0e4;
    w.min_horizon = 6000.0;  // the partition is open 5000-5400 s
    w.timed_dispatch = false;
    w.planned_rho = c.rho * c.uncertainty.lambda_error.bias;
    uncertainty::AdaptiveOptions options;
    options.mean_job_size = c.workload.mean_job_size();
    options.time_constant = 1000.0;
    options.reestimate_every = 256;
    w.build = [speeds = c.speeds, rho = w.planned_rho, options] {
      return Stack(std::make_unique<overload::CircuitBreakerDispatcher>(
          std::make_unique<dispatch::HedgedDispatcher>(
              std::make_unique<dispatch::FaultAwareDispatcher>(
                  core::make_adaptive_dispatcher(core::PolicyKind::kORR,
                                                 speeds, rho, options)),
              dispatch::HedgingConfig{/*delay=*/5.0}),
          overload::CircuitBreakerConfig{}));
    };
  }
  HS_CHECK(w.horizon_per_second > 0.0, "unknown workload " << name);
  if (!w.build) {
    w.build = [speeds = c.speeds, rho = c.rho] {
      return core::make_policy_dispatcher(core::PolicyKind::kORR, speeds, rho);
    };
  }
  return w;
}

/// Wall-clock view of a run from the completion hook. A stamp every
/// kWindow completions gives the per-job wall cost of each window.
/// Completions before the warm-up time are skipped, so every block sees
/// the steady state. Windows are grouped into 0.05 s blocks. Other
/// tenants of a shared host only ever slow a block down (by up to ~1.8x,
/// for seconds at a time), so a run reports its best block: the
/// within-run form of the minima rule in docs/PERFORMANCE.md.
class WallBlocks {
 public:
  /// `between_blocks` runs after each block, off the clock.
  WallBlocks(double warmup_time, std::function<void()> between_blocks)
      : warmup_time_(warmup_time), between_blocks_(std::move(between_blocks)) {}

  void on_completion(double time) {
    if (time < last_time_) {  // the next replication starts
      finish();
      in_block_ = false;
    }
    last_time_ = time;
    if (time < warmup_time_ || ++completions_ % kWindow != 0) {
      return;
    }
    const int64_t t = now_ns();
    if (!in_block_) {  // the first window after a warm-up is not timed
      start_block(t);
      in_block_ = true;
      return;
    }
    window_ns_.push_back(static_cast<double>(t - last_) / kWindow);
    last_ = t;
    if (t - block_start_ >= kBlockNs) {
      close_block(t);
      between_blocks_();
      start_block(now_ns());  // neither is a job's cost
    }
  }

  /// Close a partial block when it is long enough to count, or when it
  /// is the only one.
  void finish() {
    if (!window_ns_.empty() &&
        (throughput.empty() || last_ - block_start_ >= kBlockNs / 2)) {
      close_block(last_);
    }
    window_ns_.clear();
  }

  std::vector<double> throughput;  // completions per second, per block
  std::vector<double> p50_ns;      // median window ns/job, per block
  std::vector<double> p99_ns;      // p99 window ns/job, per block

 private:
  static constexpr int64_t kBlockNs = 50'000'000;

  void start_block(int64_t t) {
    block_start_ = t;
    last_ = t;
    block_completions_ = completions_;
    window_ns_.clear();
  }
  void close_block(int64_t t) {
    throughput.push_back(
        static_cast<double>(completions_ - block_completions_) /
        (static_cast<double>(t - block_start_) * 1e-9));
    p50_ns.push_back(quantile_of(window_ns_, 0.50));
    p99_ns.push_back(quantile_of(window_ns_, 0.99));
  }

  double warmup_time_;
  std::function<void()> between_blocks_;
  double last_time_ = 0.0;
  bool in_block_ = false;
  uint64_t completions_ = 0;
  uint64_t block_completions_ = 0;
  int64_t block_start_ = 0;
  int64_t last_ = 0;
  std::vector<double> window_ns_;
};

struct SimRun {
  SimRun(double warmup_time, std::function<void()> between_blocks)
      : blocks(warmup_time, std::move(between_blocks)) {}

  std::vector<SimulationResult> replications;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  WallBlocks blocks;

  [[nodiscard]] double wall_s() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
  /// Median over replications of a per-replication result.
  [[nodiscard]] double median(double SimulationResult::*field) const {
    std::vector<double> values;
    for (const auto& r : replications) {
      values.push_back(r.*field);
    }
    return quantile_of(values, 0.5);
  }
  /// Sum over replications of a per-replication count.
  [[nodiscard]] uint64_t total(uint64_t SimulationResult::*field) const {
    uint64_t sum = 0;
    for (const auto& r : replications) {
      sum += r.*field;
    }
    return sum;
  }
};

/// `between_blocks` runs between wall-clock blocks (see WallBlocks).
SimRun simulate(const SimWorkload& w, double seconds, uint64_t seed,
                const cluster::DispatcherFactory& factory,
                std::function<void()> between_blocks = [] {}) {
  cluster::ExperimentConfig experiment;
  experiment.simulation = w.config;
  experiment.simulation.sim_time =
      std::max(w.min_horizon, w.horizon_per_second * seconds / w.replications);
  experiment.replications = w.replications;
  experiment.max_threads = 1;
  experiment.base_seed = seed;

  SimRun run(experiment.simulation.warmup_time(), std::move(between_blocks));
  experiment.simulation.completion_hook =
      [&run](const queueing::Completion& completion, bool) {
        run.blocks.on_completion(completion.departure_time);
      };
  run.start_ns = now_ns();
  auto result = cluster::run_experiment(experiment, factory);
  run.end_ns = now_ns();
  run.blocks.finish();
  run.replications = std::move(result.replications);
  return run;
}

void check_result(Report& report, const SimulationResult& r) {
  const uint64_t accounted =
      r.total_completed + r.total_shed + r.total_dropped + r.in_flight_at_end;
  std::ostringstream msg;
  msg << "conservation: arrivals " << r.total_arrivals << " != completed "
      << r.total_completed << " + shed " << r.total_shed << " + dropped "
      << r.total_dropped << " + in flight " << r.in_flight_at_end;
  report.check(r.total_arrivals == accounted, msg.str());
  const double fraction_sum = std::accumulate(
      r.machine_fractions.begin(), r.machine_fractions.end(), 0.0);
  report.check(std::abs(fraction_sum - 1.0) < 1e-9,
               "machine fractions sum to " + std::to_string(fraction_sum));
  report.check(std::isfinite(r.mean_response_ratio) &&
                   r.mean_response_ratio > 0.0 && r.completed_jobs > 0,
               "no finite mean response ratio");
  report.attempted += r.total_arrivals;
  report.failed += r.total_arrivals > accounted
                       ? r.total_arrivals - accounted
                       : accounted - r.total_arrivals;
}

void add_end_to_end(Report& report, SimRun& run) {
  WallBlocks& b = run.blocks;
  report.add("jobs_per_s", quantile_of(b.throughput, 1.0), "1/s");
  report.add("mean_response_ratio",
             run.median(&SimulationResult::mean_response_ratio), "ratio");
  report.add("response_ratio_p99",
             run.median(&SimulationResult::response_ratio_p99), "ratio");
  report.add("job_ns_p50", quantile_of(b.p50_ns, 0.0), "ns");
  report.add("job_ns_p99", quantile_of(b.p99_ns, 0.0), "ns");
}

double share(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

void add_per_layer(Report& report, const SimWorkload& w, const SimRun& run,
                   const SimRun& untraced, const DispatchStats& stats) {
  using R = SimulationResult;
  auto count = [&](const char* name, uint64_t R::*field) {
    report.add(name, static_cast<double>(run.total(field)), "count");
  };
  const double run_s = run.wall_s();
  const double dispatch_s = static_cast<double>(stats.total_ns()) * 1e-9;
  const double self_s = run_s - dispatch_s;
  const uint64_t events = run.total(&R::events_fired);
  report.add("dispatch.picks", static_cast<double>(stats.picks), "count");
  if (stats.picks > 0) {
    report.add("dispatch.pick_ns_mean",
               static_cast<double>(stats.pick_total_ns) /
                   static_cast<double>(stats.picks),
               "ns");
    report.add("dispatch.pick_ns_p99", stats.pick_ns.quantile(0.99), "ns");
  }
  report.add("dispatch.reports", static_cast<double>(stats.reports), "count");
  if (stats.reports > 0) {
    report.add("dispatch.report_ns_mean",
               static_cast<double>(stats.report_total_ns) /
                   static_cast<double>(stats.reports),
               "ns");
  }
  report.add("dispatch.busy_share", dispatch_s / run_s, "share");

  report.add("cluster.run_s", run_s, "s");
  report.add("cluster.self_s", self_s, "s");
  count("cluster.events", &R::events_fired);
  report.add("cluster.events_per_job",
             share(events, run.total(&R::total_completed)), "count");
  report.add("cluster.self_ns_per_event",
             self_s * 1e9 / static_cast<double>(events), "ns");
  report.add("cluster.failed_share",
             share(run.total(&R::total_shed) + run.total(&R::total_dropped),
                   run.total(&R::total_arrivals)),
             "share");

  report.add("alloc.solve_us", 1e6 * time_setup([&] {
               (void)core::policy_allocation(core::PolicyKind::kORR,
                                             w.config.speeds, w.planned_rho);
             }),
             "us");
  report.add("core.build_us", 1e6 * time_setup([&] { (void)w.build(); }),
             "us");

  count("fault.jobs_lost", &R::jobs_lost);
  count("fault.jobs_retried", &R::jobs_retried);
  count("fault.jobs_dropped", &R::jobs_dropped);
  count("overload.jobs_rejected", &R::jobs_rejected);
  count("overload.jobs_shed", &R::jobs_shed);
  count("overload.retry_budget_denied", &R::retry_budget_denied);
  count("network.suspicions", &R::suspicions);
  count("hedge.issued", &R::hedges_issued);
  count("hedge.won", &R::hedges_won);
  report.add("hedge.win_share",
             share(run.total(&R::hedges_won), run.total(&R::hedges_issued)),
             "share");
  count("uncertainty.realloc_commits", &R::realloc_commits);
  count("uncertainty.governor_freezes", &R::governor_freezes);
  report.add("trace.overhead_share", run_s / untraced.wall_s() - 1.0, "share");
}

bool identical(const SimulationResult& a, const SimulationResult& b) {
  return a.events_fired == b.events_fired &&
         a.total_completed == b.total_completed &&
         a.mean_response_ratio == b.mean_response_ratio;
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "sim-paper15" || name == "sim-orr-1k" ||
         name == "sim-chaos15";
}

Report run_sim_workload(const Options& options) {
  const SimWorkload w = make_workload(options.workload);
  Report report;

  // A traced run does half the work twice: untraced, then traced.
  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const cluster::DispatcherFactory plain = w.build;
  // Set-up blocks before, during (about every seconds/8) and after the
  // run, so a slow stretch of the host cannot cover all of them.
  SetupProbe setup([&] { (void)w.build(); });
  const int64_t probe_every = static_cast<int64_t>(seconds * 1e9 / 8);
  int64_t next_probe = 0;
  auto probe = [&] {
    if (!options.trace && now_ns() >= next_probe) {
      setup.run_block();
      next_probe = now_ns() + probe_every;
    }
  };
  probe();
  SimRun untraced = simulate(w, seconds, options.seed, plain, probe);
  next_probe = 0;
  probe();
  for (const auto& r : untraced.replications) {
    check_result(report, r);
  }
  if (!options.trace) {
    add_end_to_end(report, untraced);
    report.add("setup_s", setup.best_seconds(), "s");
    return report;
  }

  // The same run again, traced; the simulation must not notice.
  SpanBuffer spans(size_t{1} << 17);
  DispatchStats stats;
  const uint64_t run_span = spans.next_id();
  cluster::DispatcherFactory traced_factory = plain;
  if (w.timed_dispatch) {
    traced_factory = [&] {
      return Stack(std::make_unique<TimedDispatcher>(w.build(), stats, &spans,
                                                     /*own_job_ids=*/true,
                                                     run_span));
    };
  }
  SimRun traced = simulate(w, seconds, options.seed, traced_factory);
  spans.add_with_id(run_span, "cluster.run", traced.start_ns, traced.end_ns,
                    0, 0, 0);
  report.check(std::equal(untraced.replications.begin(),
                          untraced.replications.end(),
                          traced.replications.begin(),
                          traced.replications.end(), identical),
               "traced run differs from the untraced run");
  add_per_layer(report, w, traced, untraced, stats);
  if (!options.trace_out.empty()) {
    spans.write_chrome_json(options.trace_out, traced.start_ns);
  }
  return report;
}

}  // namespace hs::e2e
