// Tests for online utilization estimation and the adaptive ORR
// dispatcher (extension of §5.4).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "cluster/sim.h"
#include "core/adaptive.h"
#include "core/policy.h"
#include "rng/distributions.h"
#include "util/check.h"

namespace {

using hs::core::AdaptiveOrrDispatcher;
using hs::core::AdaptiveOrrOptions;

// --------------------------------------------------------- AdaptiveOrr

AdaptiveOrrOptions fast_options() {
  AdaptiveOrrOptions options;
  options.mean_job_size = 1.0;
  options.time_constant = 500.0;
  options.recompute_every = 128;
  options.initial_rho = 0.5;
  return options;
}

TEST(AdaptiveOrr, StartsFromInitialRho) {
  AdaptiveOrrDispatcher d({1.0, 4.0}, fast_options());
  EXPECT_NEAR(d.assumed_rho(), 0.5 * 1.05, 1e-12);
  EXPECT_EQ(d.recomputations(), 0u);
  EXPECT_EQ(d.name(), "adaptive-orr");
  EXPECT_EQ(d.machine_count(), 2u);
}

TEST(AdaptiveOrr, LearnsUtilizationFromArrivals) {
  // Feed a steady λ = 3 stream on Σs = 4 with mean size 1 ⇒ ρ = 0.75.
  AdaptiveOrrDispatcher d({1.0, 3.0}, fast_options());
  hs::rng::Xoshiro256 gen(1);
  for (int i = 0; i < 4000; ++i) {
    d.on_arrival(i / 3.0);
    (void)d.pick(gen);
  }
  EXPECT_GT(d.recomputations(), 0u);
  EXPECT_NEAR(d.assumed_rho(), 0.75 * 1.05, 0.02);
}

TEST(AdaptiveOrr, AllocationFollowsAssumedRho) {
  AdaptiveOrrDispatcher d({1.0, 10.0}, fast_options());
  hs::rng::Xoshiro256 gen(1);
  // Light load: λ = 1.1 on Σs = 11 ⇒ ρ = 0.1 ⇒ slow machine parked.
  for (int i = 0; i < 2000; ++i) {
    d.on_arrival(i / 1.1);
    (void)d.pick(gen);
  }
  EXPECT_LT(d.assumed_rho(), 0.2);
  EXPECT_EQ(d.allocation()[0], 0.0);
}

TEST(AdaptiveOrr, ResetRestoresInitialState) {
  AdaptiveOrrDispatcher d({1.0, 2.0}, fast_options());
  hs::rng::Xoshiro256 gen(1);
  for (int i = 0; i < 1000; ++i) {
    d.on_arrival(i * 0.1);
    (void)d.pick(gen);
  }
  d.reset();
  EXPECT_EQ(d.recomputations(), 0u);
  EXPECT_NEAR(d.assumed_rho(), 0.5 * 1.05, 1e-12);
  EXPECT_EQ(d.estimator().observed(), 0u);
}

TEST(AdaptiveOrr, RejectsTimeGoingBackwards) {
  AdaptiveOrrDispatcher d({1.0, 2.0}, fast_options());
  d.on_arrival(5.0);
  EXPECT_THROW(d.on_arrival(4.0), hs::util::CheckError);
}

TEST(AdaptiveOrr, InvalidConstructionThrows) {
  EXPECT_THROW((void)AdaptiveOrrDispatcher({}, fast_options()),
               hs::util::CheckError);
  AdaptiveOrrOptions options = fast_options();
  options.mean_job_size = 0.0;
  EXPECT_THROW((void)AdaptiveOrrDispatcher({1.0, 2.0}, options),
               hs::util::CheckError);
  options = fast_options();
  options.time_constant = 0.0;
  EXPECT_THROW((void)AdaptiveOrrDispatcher({1.0, 2.0}, options),
               hs::util::CheckError);
}

TEST(AdaptiveOrr, EndToEndMatchesOracleOrr) {
  // Full-simulation check: adaptive ORR with no prior must come close to
  // ORR configured with the true utilization, and clearly beat ORR
  // configured with a badly wrong one.
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 1.0, 1.0, 1.0, 10.0, 10.0};
  config.rho = 0.8;
  config.sim_time = 150000.0;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.seed = 3;

  auto oracle = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho);
  const auto oracle_result = hs::cluster::run_simulation(config, *oracle);

  // Misconfigured: believes the system is nearly idle.
  auto wrong = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho,
      0.3 / config.rho);
  const auto wrong_result = hs::cluster::run_simulation(config, *wrong);

  AdaptiveOrrOptions options;
  options.mean_job_size = 1.0;
  options.time_constant = 2000.0;
  options.recompute_every = 256;
  options.initial_rho = 0.3;  // same bad prior, but it learns
  AdaptiveOrrDispatcher adaptive(config.speeds, options);
  const auto adaptive_result = hs::cluster::run_simulation(config, adaptive);

  EXPECT_GT(wrong_result.mean_response_ratio,
            1.2 * oracle_result.mean_response_ratio);
  EXPECT_LT(adaptive_result.mean_response_ratio,
            1.1 * oracle_result.mean_response_ratio);
}

}  // namespace
