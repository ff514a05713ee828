// Cross-module conservation properties of the cluster simulation, swept
// over randomized configurations. These invariants hold regardless of
// policy, workload, or cluster shape:
//   * every dispatched job eventually completes (after drain),
//   * total work completed equals the sum of completed job sizes,
//   * machine fractions sum to 1,
//   * Little's law links mean response time, throughput and population,
//   * per-machine utilization matches the allocation-implied load.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "overload/circuit_breaker.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::cluster::SimulationConfig;

struct RandomCase {
  SimulationConfig config;
  hs::core::PolicyKind policy = hs::core::PolicyKind::kORR;
};

RandomCase make_case(uint64_t seed) {
  hs::rng::Xoshiro256 gen(seed * 2654435761ull + 17);
  RandomCase c;
  const size_t n = 2 + gen.next_below(8);
  c.config.speeds.resize(n);
  for (double& s : c.config.speeds) {
    s = gen.uniform(0.5, 12.0);
  }
  c.config.rho = gen.uniform(0.2, 0.85);
  c.config.sim_time = 20000.0;
  c.config.warmup_frac = 0.25;
  c.config.seed = seed * 31 + 7;
  c.config.workload.arrival_kind =
      gen.next_double() < 0.5 ? hs::workload::ArrivalKind::kPoisson
                              : hs::workload::ArrivalKind::kHyperExp;
  c.config.workload.size_kind = hs::workload::SizeKind::kExponential;
  c.config.workload.fixed_or_mean_size = 1.0;
  const auto& policies = hs::core::all_policies();
  c.policy = policies[gen.next_below(policies.size())];
  return c;
}

class Conservation : public ::testing::TestWithParam<int> {};

TEST_P(Conservation, InvariantsHold) {
  const RandomCase c = make_case(static_cast<uint64_t>(GetParam()));
  auto dispatcher = hs::core::make_policy_dispatcher(
      c.policy, c.config.speeds, c.config.rho);

  // Count everything through the hooks to avoid relying on the metrics
  // code under test.
  uint64_t completions_seen = 0;
  double work_seen = 0.0;
  double response_sum = 0.0;
  SimulationConfig config = c.config;
  config.completion_hook = [&](const hs::queueing::Completion& completion,
                               bool measured) {
    ++completions_seen;
    work_seen += completion.job.size;
    if (measured) {
      response_sum += completion.response_time();
    }
    HS_CHECK(completion.response_time() >= 0.0, "negative response time");
  };

  const auto result = hs::cluster::run_simulation(config, *dispatcher);

  // (1) Nothing in flight after the drain: measured dispatches equal
  // measured completions.
  EXPECT_EQ(result.dispatched_jobs, result.completed_jobs)
      << hs::core::policy_name(c.policy);

  // (2) Mean response time from the harness equals the hook-side sum.
  if (result.completed_jobs > 0) {
    EXPECT_NEAR(result.mean_response_time,
                response_sum / static_cast<double>(result.completed_jobs),
                1e-9 * result.mean_response_time);
  }

  // (3) Machine fractions are a distribution.
  const double fraction_sum =
      std::accumulate(result.machine_fractions.begin(),
                      result.machine_fractions.end(), 0.0);
  EXPECT_NEAR(fraction_sum, 1.0, 1e-9);

  // (4) Utilizations in [0, 1] and, averaged speed-weighted, near ρ.
  double weighted_util = 0.0;
  double total_speed = 0.0;
  for (size_t i = 0; i < config.speeds.size(); ++i) {
    EXPECT_GE(result.machine_utilizations[i], 0.0);
    EXPECT_LE(result.machine_utilizations[i], 1.0 + 1e-9);
    weighted_util += result.machine_utilizations[i] * config.speeds[i];
    total_speed += config.speeds[i];
  }
  // All policies keep every machine unsaturated at these loads, so the
  // aggregate processed work rate must equal the offered load.
  EXPECT_NEAR(weighted_util / total_speed, config.rho, 0.08)
      << hs::core::policy_name(c.policy) << " rho=" << config.rho;
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, Conservation,
                         ::testing::Range(1, 25));

// Whole-run conservation identity with every robustness layer on at
// once: faults (crash/recovery + retry), overload protection (bounded
// queues, admission shedding, retry budget), parameter uncertainty
// (drift, staleness, governed adaptive re-allocation) and the network
// layer (lossy/duplicating links, a partition, heartbeat suspicion,
// hedged dispatch), with the full decorator stack
// CircuitBreaker(Hedged(FaultAware(adaptive))). Every arrival must be
// accounted for exactly once:
// arrivals = completed + shed + dropped + in-flight at the end.
// Every robustness layer at once: faults, overload, uncertainty, lossy
// duplicating links with a partition, heartbeats, and the full decorator
// stack CircuitBreaker(Hedged(FaultAware(adaptive ORR))).
SimulationConfig full_stack_config(std::vector<double> speeds, double rho,
                                   uint64_t seed) {
  SimulationConfig config;
  config.speeds = std::move(speeds);
  config.rho = rho;
  config.sim_time = 15000.0;
  config.warmup_frac = 0.25;
  config.seed = seed;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;

  // Faults: every machine crashes and recovers a few times per run.
  config.faults.processes.assign(config.speeds.size(), {2000.0, 150.0});
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 1.0;

  // Overload: bounded queues, probabilistic shedding, a retry budget.
  config.overload.queue_capacity = 64;
  config.overload.admission = hs::overload::AdmissionKind::kQueueBoundShed;
  config.overload.retry_budget.enabled = true;

  // Uncertainty: biased beliefs, drifting true load, stale feedback.
  config.uncertainty.lambda_error.bias = 0.7;
  config.uncertainty.speed_error.noise_cv = 0.1;
  config.uncertainty.drift.kind = hs::uncertainty::DriftKind::kRamp;
  config.uncertainty.drift.ramp_start = 2000.0;
  config.uncertainty.drift.ramp_end = 10000.0;
  config.uncertainty.drift.start_factor = 0.8;
  config.uncertainty.drift.end_factor = 1.2;
  config.uncertainty.staleness.update_interval = 50.0;
  config.uncertainty.staleness.report_delay = 5.0;

  // Network: lossy, slow, duplicating links, one partition window, and a
  // heartbeat detector feeding the fault-aware and breaker decorators.
  config.network.dispatch_link.loss = 0.05;
  config.network.dispatch_link.delay_mean = 0.05;
  config.network.dispatch_link.tail_prob = 0.1;
  config.network.dispatch_link.tail_factor = 10.0;
  config.network.dispatch_link.duplicate = 0.02;
  config.network.report_link.loss = 0.05;
  config.network.report_link.delay_mean = 0.02;
  config.network.report_link.duplicate = 0.02;
  config.network.partitions.push_back({5000.0, 400.0, {1}});
  config.network.heartbeat.interval = 2.0;
  config.network.heartbeat.phi_threshold = 4.0;
  return config;
}

void expect_full_stack_conserves(const SimulationConfig& config) {
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = config.workload.mean_job_size();
  options.time_constant = 1000.0;
  options.reestimate_every = 256;
  auto adaptive = hs::core::make_adaptive_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds,
      config.rho * config.uncertainty.lambda_error.bias, options);
  // Full decorator stack around the adaptive core (all masking natively).
  auto dispatcher = std::make_unique<hs::overload::CircuitBreakerDispatcher>(
      std::make_unique<hs::dispatch::HedgedDispatcher>(
          std::make_unique<hs::dispatch::FaultAwareDispatcher>(
              std::move(adaptive)),
          hs::dispatch::HedgingConfig{/*delay=*/5.0}),
      hs::overload::CircuitBreakerConfig{});

  const auto result = hs::cluster::run_simulation(config, *dispatcher);

  EXPECT_GT(result.total_arrivals, 0u);
  EXPECT_EQ(result.total_arrivals,
            result.total_completed + result.total_shed +
                result.total_dropped + result.in_flight_at_end)
      << "seed=" << config.seed << " arrivals=" << result.total_arrivals
      << " completed=" << result.total_completed
      << " shed=" << result.total_shed
      << " dropped=" << result.total_dropped
      << " in_flight=" << result.in_flight_at_end;
}

class FullStackConservation : public ::testing::TestWithParam<int> {};

TEST_P(FullStackConservation, ArrivalsAreConserved) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  expect_full_stack_conserves(
      full_stack_config({4.0, 2.0, 1.0}, 0.9, seed * 7919 + 13));
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, FullStackConservation,
                         ::testing::Range(1, 11));

// The same stack on the 15-machine cluster. Each case once aborted: a
// dispatch copy of a failed attempt (a duplicate or a delay-tail
// straggler) arrived after the retry had reopened the job's flight and
// was counted as the new attempt's delivery. The run then evicted the
// wrong machine, resolved the flight early, or (rho 0.9, seed 11) lost
// a job without an abort.
struct FullStack15Case {
  double rho;
  uint64_t seed;
};

class FullStackConservation15
    : public ::testing::TestWithParam<FullStack15Case> {};

TEST_P(FullStackConservation15, ArrivalsAreConserved) {
  const FullStack15Case c = GetParam();
  expect_full_stack_conserves(full_stack_config(
      {1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 2.0, 2.0, 2.0, 5.0,
       10.0, 12.0},
      c.rho, c.seed));
}

INSTANTIATE_TEST_SUITE_P(
    StaleMessageRepros, FullStackConservation15,
    ::testing::Values(FullStack15Case{0.7, 1}, FullStack15Case{0.7, 11},
                      FullStack15Case{0.9, 7}, FullStack15Case{0.9, 8},
                      FullStack15Case{0.9, 11}),
    [](const ::testing::TestParamInfo<FullStack15Case>& info) {
      return std::string(info.param.rho < 0.8 ? "rho07" : "rho09") +
             "_seed" + std::to_string(info.param.seed);
    });

// The same full-chaos configuration with the O(1) alias sampler routing
// the jobs: CircuitBreaker(Hedged(FaultAware(ORAN + alias))). Crash and
// partition churn drives the survivor-reallocation reweighter (in-place
// alias rebuilds) continuously, so exactly-once accounting here pins
// the alias path end to end across 10 seeds.
class AliasFullStackConservation : public ::testing::TestWithParam<int> {};

TEST_P(AliasFullStackConservation, ArrivalsAreConserved) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  SimulationConfig config;
  config.speeds = {4.0, 2.0, 1.0};
  config.rho = 0.9;
  config.sim_time = 15000.0;
  config.warmup_frac = 0.25;
  config.seed = seed * 104729 + 3;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;

  config.faults.processes.assign(config.speeds.size(), {2000.0, 150.0});
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 1.0;

  config.overload.queue_capacity = 64;
  config.overload.admission = hs::overload::AdmissionKind::kQueueBoundShed;
  config.overload.retry_budget.enabled = true;

  config.network.dispatch_link.loss = 0.05;
  config.network.dispatch_link.delay_mean = 0.05;
  config.network.dispatch_link.duplicate = 0.02;
  config.network.report_link.loss = 0.05;
  config.network.report_link.delay_mean = 0.02;
  config.network.partitions.push_back({5000.0, 400.0, {1}});
  config.network.heartbeat.interval = 2.0;
  config.network.heartbeat.phi_threshold = 4.0;

  auto fault_aware = hs::core::make_fault_aware_dispatcher(
      hs::core::PolicyKind::kORAN, config.speeds, config.rho,
      /*rho_estimate_factor=*/1.0, hs::dispatch::SamplerKind::kAlias);
  auto dispatcher = std::make_unique<hs::overload::CircuitBreakerDispatcher>(
      std::make_unique<hs::dispatch::HedgedDispatcher>(
          std::move(fault_aware),
          hs::dispatch::HedgingConfig{/*delay=*/5.0}),
      hs::overload::CircuitBreakerConfig{});

  const auto result = hs::cluster::run_simulation(config, *dispatcher);

  EXPECT_GT(result.total_arrivals, 0u);
  EXPECT_EQ(result.total_arrivals,
            result.total_completed + result.total_shed +
                result.total_dropped + result.in_flight_at_end)
      << "seed=" << seed << " arrivals=" << result.total_arrivals
      << " completed=" << result.total_completed
      << " shed=" << result.total_shed
      << " dropped=" << result.total_dropped
      << " in_flight=" << result.in_flight_at_end;
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, AliasFullStackConservation,
                         ::testing::Range(1, 11));

// Little's law: L = λ·W on a single-machine system, measured inside the
// simulation window via area under the queue-length curve.
TEST(Conservation, LittlesLawSingleMachine) {
  SimulationConfig config;
  config.speeds = {1.0};
  config.rho = 0.6;
  config.sim_time = 200000.0;
  config.warmup_frac = 0.0;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.seed = 77;

  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kWRR, config.speeds, config.rho);
  const auto result = hs::cluster::run_simulation(config, *dispatcher);

  // λ·W with λ from completed jobs over the horizon.
  const double lambda =
      static_cast<double>(result.completed_jobs) / config.sim_time;
  const double little_l = lambda * result.mean_response_time;
  // M/M/1 mean number in system at ρ=0.6 is 1.5.
  EXPECT_NEAR(little_l, 1.5, 0.1);
}

}  // namespace
