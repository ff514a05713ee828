// Parameter-uncertainty subsystem tests: config validation and drift
// math, belief derivation determinism, the streaming estimators, the
// re-allocation governor's state machine, the governed adaptive
// dispatcher (including zero-fraction re-solves and mask rebuilds), and
// end-to-end simulations pinning re-allocation determinism, staleness
// semantics, and zero-overhead-off for the new trace kinds.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "alloc/optimized.h"
#include "cluster/experiment.h"
#include "cluster/sim.h"
#include "core/adaptive.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "dispatch/smooth_rr.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "uncertainty/adaptive.h"
#include "uncertainty/config.h"
#include "uncertainty/estimators.h"
#include "uncertainty/governor.h"
#include "util/check.h"

namespace {

using namespace hs::uncertainty;
using hs::util::CheckError;

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// ---- UncertaintyConfig validation ----

TEST(UncertaintyConfig, DefaultIsDisabledAndValid) {
  UncertaintyConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_NO_THROW(config.validate(1000.0));
}

TEST(UncertaintyConfig, AnyFeatureEnables) {
  UncertaintyConfig config;
  config.lambda_error.bias = 0.7;
  EXPECT_TRUE(config.enabled());
  config = UncertaintyConfig{};
  config.speed_error.noise_cv = 0.1;
  EXPECT_TRUE(config.enabled());
  config = UncertaintyConfig{};
  config.drift.kind = DriftKind::kRamp;
  EXPECT_TRUE(config.enabled());
  config = UncertaintyConfig{};
  config.staleness.update_interval = 10.0;
  EXPECT_TRUE(config.enabled());
}

TEST(UncertaintyConfig, RejectsNonPositiveBias) {
  UncertaintyConfig config;
  config.lambda_error.bias = -0.5;
  const std::string message =
      error_message([&] { config.validate(1000.0); });
  EXPECT_NE(message.find("lambda_error.bias"), std::string::npos) << message;
  EXPECT_NE(message.find("-0.5"), std::string::npos) << message;
  config = UncertaintyConfig{};
  config.speed_error.bias = 0.0;
  EXPECT_THROW(config.validate(1000.0), CheckError);
}

TEST(UncertaintyConfig, RejectsNegativeNoiseCv) {
  UncertaintyConfig config;
  config.speed_error.noise_cv = -0.1;
  const std::string message =
      error_message([&] { config.validate(1000.0); });
  EXPECT_NE(message.find("speed_error.noise_cv"), std::string::npos)
      << message;
}

TEST(DriftTimelineValidation, StepTimesMustStrictlyIncrease) {
  DriftTimeline drift;
  drift.kind = DriftKind::kStep;
  drift.steps = {{100.0, 1.5}, {100.0, 2.0}};
  const std::string message = error_message([&] { drift.validate(1000.0); });
  EXPECT_NE(message.find("strictly increasing"), std::string::npos)
      << message;
  drift.steps = {{100.0, 1.5}, {50.0, 2.0}};
  EXPECT_THROW(drift.validate(1000.0), CheckError);
}

TEST(DriftTimelineValidation, StepRejectsNonPositiveFactorAndLateStart) {
  DriftTimeline drift;
  drift.kind = DriftKind::kStep;
  drift.steps = {{100.0, 0.0}};
  EXPECT_THROW(drift.validate(1000.0), CheckError);
  drift.steps = {{2000.0, 1.5}};
  const std::string message = error_message([&] { drift.validate(1000.0); });
  EXPECT_NE(message.find("not before sim_time"), std::string::npos)
      << message;
  drift.steps.clear();
  EXPECT_THROW(drift.validate(1000.0), CheckError);
}

TEST(DriftTimelineValidation, RampEndpointsMustBeOrdered) {
  DriftTimeline drift;
  drift.kind = DriftKind::kRamp;
  drift.ramp_start = 500.0;
  drift.ramp_end = 500.0;
  const std::string message = error_message([&] { drift.validate(1000.0); });
  EXPECT_NE(message.find("ramp_end"), std::string::npos) << message;
  drift.ramp_end = 800.0;
  drift.end_factor = 0.0;
  EXPECT_THROW(drift.validate(1000.0), CheckError);
}

TEST(DriftTimelineValidation, PeriodicAmplitudeStaysBelowOne) {
  DriftTimeline drift;
  drift.kind = DriftKind::kPeriodic;
  drift.amplitude = 1.0;
  const std::string message = error_message([&] { drift.validate(1000.0); });
  EXPECT_NE(message.find("amplitude"), std::string::npos) << message;
  drift.amplitude = 0.99;
  EXPECT_NO_THROW(drift.validate(1000.0));
  drift.period = 0.0;
  EXPECT_THROW(drift.validate(1000.0), CheckError);
}

TEST(StalenessValidation, IntervalMustFitInsideRun) {
  StalenessConfig staleness;
  EXPECT_NO_THROW(staleness.validate(1000.0));  // off by default
  staleness.update_interval = 1000.0;
  const std::string message =
      error_message([&] { staleness.validate(1000.0); });
  EXPECT_NE(message.find("smaller than sim_time"), std::string::npos)
      << message;
  staleness.update_interval = 10.0;
  staleness.report_delay = -1.0;
  EXPECT_THROW(staleness.validate(1000.0), CheckError);
}

// ---- Drift timeline math ----

TEST(DriftTimeline, StepFactorIsPiecewiseConstant) {
  DriftTimeline drift;
  drift.kind = DriftKind::kStep;
  drift.steps = {{100.0, 1.5}, {200.0, 0.5}};
  EXPECT_DOUBLE_EQ(drift.factor_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(drift.factor_at(99.9), 1.0);
  EXPECT_DOUBLE_EQ(drift.factor_at(100.0), 1.5);
  EXPECT_DOUBLE_EQ(drift.factor_at(199.9), 1.5);
  EXPECT_DOUBLE_EQ(drift.factor_at(500.0), 0.5);
  // Mean over [0, 300]: 100·1 + 100·1.5 + 100·0.5 over 300.
  EXPECT_NEAR(drift.mean_factor(300.0), 1.0, 1e-12);
}

TEST(DriftTimeline, RampInterpolatesLinearly) {
  DriftTimeline drift;
  drift.kind = DriftKind::kRamp;
  drift.ramp_start = 100.0;
  drift.ramp_end = 300.0;
  drift.start_factor = 1.0;
  drift.end_factor = 2.0;
  EXPECT_DOUBLE_EQ(drift.factor_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(drift.factor_at(200.0), 1.5);
  EXPECT_DOUBLE_EQ(drift.factor_at(1000.0), 2.0);
  // Mean over [0, 400]: 100·1 + 200·1.5 + 100·2 over 400.
  EXPECT_NEAR(drift.mean_factor(400.0), 1.5, 1e-12);
}

TEST(DriftTimeline, PeriodicAveragesToOneOverFullPeriods) {
  DriftTimeline drift;
  drift.kind = DriftKind::kPeriodic;
  drift.period = 100.0;
  drift.amplitude = 0.4;
  EXPECT_NEAR(drift.factor_at(25.0), 1.4, 1e-12);  // sin peak
  EXPECT_NEAR(drift.factor_at(75.0), 0.6, 1e-12);  // sin trough
  EXPECT_NEAR(drift.mean_factor(300.0), 1.0, 1e-12);
}

// ---- Belief derivation ----

TEST(Beliefs, PureBiasIsExactAndSeedIndependent) {
  UncertaintyConfig config;
  config.lambda_error.bias = 0.7;
  config.speed_error.bias = 1.2;
  const std::vector<double> speeds = {4.0, 2.0, 1.0};
  const BelievedParams a = derive_beliefs(config, speeds, 0.6, 1);
  const BelievedParams b = derive_beliefs(config, speeds, 0.6, 999);
  EXPECT_DOUBLE_EQ(a.lambda_factor, 0.7);
  for (size_t i = 0; i < speeds.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.speeds[i], speeds[i] * 1.2);
    EXPECT_DOUBLE_EQ(a.speeds[i], b.speeds[i]);  // no noise => no draws
  }
  EXPECT_DOUBLE_EQ(a.rho, b.rho);
  // ρ̂ = ρ·bias_λ·Σs/Σŝ = 0.6·0.7/1.2.
  EXPECT_NEAR(a.rho, 0.6 * 0.7 / 1.2, 1e-12);
}

TEST(Beliefs, NoiseIsDeterministicInTheSeed) {
  UncertaintyConfig config;
  config.lambda_error.noise_cv = 0.3;
  config.speed_error.noise_cv = 0.2;
  const std::vector<double> speeds = {4.0, 2.0, 1.0};
  const BelievedParams a = derive_beliefs(config, speeds, 0.6, 42);
  const BelievedParams b = derive_beliefs(config, speeds, 0.6, 42);
  const BelievedParams c = derive_beliefs(config, speeds, 0.6, 43);
  EXPECT_DOUBLE_EQ(a.lambda_factor, b.lambda_factor);
  EXPECT_EQ(a.speeds, b.speeds);
  EXPECT_NE(a.lambda_factor, c.lambda_factor);
  for (double s : a.speeds) {
    EXPECT_GT(s, 0.0);
  }
}

TEST(Beliefs, NoiseFactorIsMeanOne) {
  // Average the lognormal factor over many seeds: mean must be ~1 so the
  // bias carries all systematic error.
  UncertaintyConfig config;
  config.lambda_error.noise_cv = 0.3;
  double sum = 0.0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    sum += derive_beliefs(config, {1.0}, 0.5,
                          static_cast<uint64_t>(i) * 7919 + 3)
               .lambda_factor;
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.02);
}

// ---- Streaming estimators ----

TEST(RateEstimator, ConvergesToRegularEventRate) {
  RateEstimator estimator(50.0);
  double t = 0.0;
  for (int i = 0; i < 1000; ++i) {
    t += 0.5;  // 2 events per second
    estimator.observe(t);
  }
  EXPECT_TRUE(estimator.warmed_up());
  EXPECT_NEAR(estimator.rate(0.0), 2.0, 0.05);
}

TEST(RateEstimator, TracksRateDrift) {
  RateEstimator estimator(20.0);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 1.0;
    estimator.observe(t);
  }
  EXPECT_NEAR(estimator.rate(0.0), 1.0, 0.05);
  for (int i = 0; i < 500; ++i) {
    t += 0.25;  // rate quadruples
    estimator.observe(t);
  }
  EXPECT_NEAR(estimator.rate(0.0), 4.0, 0.3);
}

TEST(RateEstimator, UsesFallbackUntilWarm) {
  RateEstimator estimator(50.0, 16);
  EXPECT_DOUBLE_EQ(estimator.rate(7.0), 7.0);
  estimator.observe(1.0);
  EXPECT_FALSE(estimator.warmed_up());
  EXPECT_DOUBLE_EQ(estimator.rate(7.0), 7.0);
}

TEST(RateEstimator, ConvergesOnPoissonStream) {
  // Discounting the count and the elapsed time together avoids the
  // length bias of averaging gaps: a per-gap EWMA weighted by gap length
  // over-counts long gaps and reads about half the true Poisson rate.
  RateEstimator estimator(500.0);
  hs::rng::Xoshiro256 gen(7);
  hs::rng::Exponential gaps(4.0);
  double t = 0.0;
  for (int i = 0; i < 100000; ++i) {
    t += gaps.sample(gen);
    estimator.observe(t);
  }
  EXPECT_NEAR(estimator.rate(0.0), 4.0, 0.3);
}

TEST(RateEstimator, ResetForgetsHistory) {
  RateEstimator estimator(10.0);
  for (int i = 0; i < 100; ++i) {
    estimator.observe(i * 0.1);
  }
  estimator.reset();
  EXPECT_EQ(estimator.observed(), 0u);
  EXPECT_EQ(estimator.last_event(), 0.0);
  EXPECT_DOUBLE_EQ(estimator.rate(0.3), 0.3);
}

TEST(RateEstimator, RejectsInvalidTimeConstant) {
  EXPECT_THROW((void)RateEstimator(0.0), CheckError);
  EXPECT_THROW((void)RateEstimator(-1.0), CheckError);
  EXPECT_THROW(
      (void)RateEstimator(std::numeric_limits<double>::infinity()),
      CheckError);
}

TEST(ServiceRateEstimator, RecoversSpeedFromCompletedWork) {
  // Machine of speed 4: a job of 2 base-speed seconds departs after
  // 0.5 s of busy time.
  ServiceRateEstimator estimator;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    estimator.observe_dispatch(t);
    t += 0.5;
    estimator.observe_departure(t, 2.0);
    t += 3.0;  // idle gap: must not count as busy time
  }
  EXPECT_TRUE(estimator.warmed_up());
  EXPECT_NEAR(estimator.speed(0.0), 4.0, 0.2);
}

TEST(ServiceRateEstimator, HeavyTailedSizesDoNotBiasTheEstimate) {
  // Speed 4, but sizes alternate tiny and huge (mean 51). A job-count
  // throughput scaled by the mean would overestimate the speed between
  // big-job completions, and a decayed window would credit a big job's
  // work after its busy time had already decayed; the cumulative
  // work-over-busy ratio is exact.
  ServiceRateEstimator estimator;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    const double work = i % 10 == 9 ? 500.0 : 1.0;
    estimator.observe_dispatch(t);
    t += work / 4.0;
    estimator.observe_departure(t, work);
  }
  EXPECT_NEAR(estimator.speed(0.0), 4.0, 1e-9);
}

TEST(ServiceRateEstimator, ForgetOutstandingStopsPhantomBusyTime) {
  ServiceRateEstimator estimator;
  double t = 0.0;
  for (int i = 0; i < 100; ++i) {
    estimator.observe_dispatch(t);
    t += 0.5;
    estimator.observe_departure(t, 2.0);
  }
  const double before = estimator.speed(0.0);
  // Ten dispatches that will never depart (lost to a crash)...
  for (int i = 0; i < 10; ++i) {
    estimator.observe_dispatch(t);
  }
  estimator.forget_outstanding(10);
  EXPECT_EQ(estimator.outstanding(), 0u);
  // ...so a long quiet period must not depress the estimate.
  for (int i = 0; i < 100; ++i) {
    estimator.observe_dispatch(t);
    t += 0.5;
    estimator.observe_departure(t, 2.0);
  }
  EXPECT_NEAR(estimator.speed(0.0), before, 0.3);
}

TEST(EstimatorBank, RhoHatCombinesArrivalAndServiceEstimates) {
  // Two machines of true speed 2 and 1, mean size 1, arrivals at rate
  // 1.5 => true rho = 0.5.
  EstimatorBank bank(2, 1.0, 200.0);
  double t = 0.0;
  int turn = 0;
  for (int i = 0; i < 3000; ++i) {
    t += 1.0 / 1.5;
    bank.observe_arrival(t);
    const size_t machine = turn++ % 3 == 2 ? 1 : 0;  // 2:1 split
    bank.observe_dispatch(machine, t);
    bank.observe_departure(machine, t + (machine == 0 ? 0.5 : 1.0), 1.0);
  }
  EXPECT_NEAR(bank.lambda_hat(0.0), 1.5, 0.1);
  const double rho =
      bank.rho_hat({2.0, 1.0}, 0.0);
  EXPECT_GT(rho, 0.3);
  EXPECT_LT(rho, 0.7);
}

// ---- Re-allocation governor ----

TEST(Governor, ValidationRejectsBadConfig) {
  GovernorConfig config;
  config.min_improvement = -0.1;
  EXPECT_THROW(config.validate(), CheckError);
  config = GovernorConfig{};
  config.flap_threshold = 0;
  EXPECT_THROW(config.validate(), CheckError);
  config = GovernorConfig{};
  config.budget_window = -1.0;
  EXPECT_THROW(config.validate(), CheckError);
}

TEST(Governor, CommitsOnlyAboveImprovementThreshold) {
  GovernorConfig config;
  config.min_improvement = 0.10;
  config.min_dwell = 0.0;
  ReallocationGovernor governor(config);
  EXPECT_EQ(governor.consider(10.0, 100.0, 95.0),
            GovernorVerdict::kNoImprovement);
  EXPECT_EQ(governor.consider(20.0, 100.0, 85.0), GovernorVerdict::kCommit);
  EXPECT_EQ(governor.proposals(), 2u);
  EXPECT_EQ(governor.commits(), 1u);
  EXPECT_EQ(governor.rejections(), 1u);
}

TEST(Governor, InfiniteCurrentObjectiveAlwaysImproves) {
  GovernorConfig config;
  config.min_dwell = 0.0;
  ReallocationGovernor governor(config);
  EXPECT_EQ(governor.consider(
                1.0, std::numeric_limits<double>::infinity(), 500.0),
            GovernorVerdict::kCommit);
}

TEST(Governor, DwellSeparatesCommits) {
  GovernorConfig config;
  config.min_improvement = 0.05;
  config.min_dwell = 100.0;
  ReallocationGovernor governor(config);
  EXPECT_EQ(governor.consider(10.0, 100.0, 50.0), GovernorVerdict::kCommit);
  EXPECT_EQ(governor.consider(50.0, 100.0, 50.0), GovernorVerdict::kDwell);
  EXPECT_EQ(governor.consider(111.0, 100.0, 50.0), GovernorVerdict::kCommit);
  EXPECT_EQ(governor.last_commit_time(), 111.0);
}

TEST(Governor, WindowBudgetExhausts) {
  GovernorConfig config;
  config.min_dwell = 0.0;
  config.window_budget = 2;
  config.budget_window = 1000.0;
  // Keep the flap guard out of the way.
  config.flap_threshold = 100;
  ReallocationGovernor governor(config);
  EXPECT_EQ(governor.consider(10.0, 100.0, 50.0), GovernorVerdict::kCommit);
  EXPECT_EQ(governor.consider(20.0, 100.0, 50.0), GovernorVerdict::kCommit);
  EXPECT_EQ(governor.consider(30.0, 100.0, 50.0),
            GovernorVerdict::kBudgetExhausted);
  // The window slides: after it passes, commits resume.
  EXPECT_EQ(governor.consider(1100.0, 100.0, 50.0),
            GovernorVerdict::kCommit);
}

TEST(Governor, FlapGuardFreezesAndOptionallyThaws) {
  GovernorConfig config;
  config.min_dwell = 0.0;
  config.window_budget = 100;
  config.budget_window = 1000.0;
  config.flap_threshold = 3;
  config.flap_window = 1000.0;
  config.freeze_duration = 500.0;
  ReallocationGovernor governor(config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(governor.consider(10.0 * (i + 1), 100.0, 50.0),
              GovernorVerdict::kCommit);
  }
  // The fourth rapid commit would exceed flap_threshold: freeze instead.
  EXPECT_EQ(governor.consider(40.0, 100.0, 50.0), GovernorVerdict::kFrozen);
  EXPECT_TRUE(governor.frozen());
  EXPECT_EQ(governor.freezes(), 1u);
  EXPECT_EQ(governor.consider(100.0, 100.0, 50.0),
            GovernorVerdict::kFrozen);
  // After freeze_duration the guard thaws (the flap window has slid).
  EXPECT_EQ(governor.consider(1600.0, 100.0, 50.0),
            GovernorVerdict::kCommit);
  EXPECT_FALSE(governor.frozen());
}

TEST(Governor, CheckpointResumesTheGatesAndRejectsMalformedBlocks) {
  GovernorConfig config;
  config.min_dwell = 0.0;
  config.window_budget = 100;
  config.budget_window = 1000.0;
  config.flap_threshold = 3;
  config.flap_window = 1000.0;
  config.freeze_duration = 500.0;
  ReallocationGovernor original(config);
  for (int i = 0; i < 4; ++i) {  // three commits, then a freeze
    (void)original.consider(10.0 * (i + 1), 100.0, 50.0);
  }
  ASSERT_TRUE(original.frozen());
  std::vector<double> saved;
  const size_t length = original.save_state(saved);
  ASSERT_EQ(length, saved.size());
  EXPECT_EQ(length, 3u + 8u);

  ReallocationGovernor restored(config);
  ASSERT_EQ(restored.restore_state(saved), length);
  for (const double now : {100.0, 540.0, 1600.0, 1610.0}) {
    EXPECT_EQ(restored.consider(now, 100.0, 50.0),
              original.consider(now, 100.0, 50.0))
        << "at " << now;
  }
  EXPECT_EQ(restored.commits(), original.commits());
  EXPECT_EQ(restored.rejections(), original.rejections());
  EXPECT_EQ(restored.freezes(), original.freezes());

  // Every value is checked before anything changes: a corrupt or
  // inconsistent block is refused and leaves the governor untouched.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::pair<size_t, double>> corruptions = {
      {0, 2.5},    // fractional history count
      {0, 99.0},   // history longer than the block
      {1, kNaN},   // commit time
      {3, 25.0},   // history does not end at the last commit
      {5, 0.0},    // committed flag cleared, counters say otherwise
      {6, 2.0},    // frozen flag
      {7, kNaN},   // freeze deadline
      {8, 1.0},    // fewer proposals than commits + freezes
      {9, 0.5},    // fractional commit count
      {10, 0.0},   // frozen without a freeze
  };
  for (const auto& [index, value] : corruptions) {
    SCOPED_TRACE(index);
    std::vector<double> bad = saved;
    bad[index] = value;
    ReallocationGovernor target(config);
    EXPECT_EQ(target.restore_state(bad), 0u);
    EXPECT_EQ(target.proposals(), 0u);
    EXPECT_FALSE(target.frozen());
  }
  ReallocationGovernor target(config);
  EXPECT_EQ(target.restore_state(std::span<const double>(saved).first(10)),
            0u);
}

TEST(Governor, DefaultConfigCannotSelfTrip) {
  // min_dwell · flap_threshold > flap_window: respecting the dwell time
  // makes the flap guard unreachable with defaults.
  const GovernorConfig config;
  EXPECT_GT(config.min_dwell * config.flap_threshold, config.flap_window);
}

TEST(Governor, VerdictNamesAreStable) {
  EXPECT_STREQ(governor_verdict_name(GovernorVerdict::kCommit), "commit");
  EXPECT_STREQ(governor_verdict_name(GovernorVerdict::kFrozen), "frozen");
}

// ---- Governed adaptive dispatcher ----

TEST(GovernedAdaptive, InitialAllocationMatchesBeliefs) {
  const std::vector<double> believed = {4.0, 2.0, 1.0};
  hs::uncertainty::GovernedAdaptiveDispatcher dispatcher(believed, 0.6);
  const auto expected =
      hs::alloc::OptimizedAllocation().compute(believed, 0.6);
  for (size_t i = 0; i < believed.size(); ++i) {
    EXPECT_NEAR(dispatcher.allocation()[i], expected[i], 1e-12);
  }
  EXPECT_DOUBLE_EQ(dispatcher.assumed_rho(), 0.6);
  EXPECT_EQ(dispatcher.name(), "governed-orr");
}

TEST(GovernedAdaptive, FactoryPicksSchemeFromPolicy) {
  const std::vector<double> speeds = {4.0, 1.0};
  auto orr = hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kORR,
                                                speeds, 0.5);
  auto wrr = hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kWRR,
                                                speeds, 0.5);
  EXPECT_EQ(orr->name(), "governed-orr");
  EXPECT_EQ(wrr->name(), "governed-wrr");
  EXPECT_THROW(
      (void)hs::core::make_adaptive_dispatcher(
          hs::core::PolicyKind::kLeastLoad, speeds, 0.5),
      CheckError);
}

// The optimized allocation zeroes out slow machines at low utilization.
// A re-solve that lands such an allocation mid-run must keep dispatching
// (SmoothRoundRobin skips zero-fraction machines) — no division by zero,
// no stall. Regression tests for the zero-allocation audit.
TEST(GovernedAdaptive, ZeroFractionReSolveKeepsDispatching) {
  const std::vector<double> speeds = {50.0, 1.0};
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  options.reestimate_every = 64;
  options.governor.min_dwell = 0.0;
  options.governor.min_improvement = 0.0;
  hs::uncertainty::GovernedAdaptiveDispatcher dispatcher(speeds, 0.5,
                                                         options);
  // Drive arrivals slow enough that rho_hat clamps to min_rho: the
  // optimized re-solve then concentrates everything on the fast machine.
  hs::rng::Xoshiro256 gen(7);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += 1.0;  // λ̂ ≈ 1 against Σŝ = 51 => ρ̂ ≈ 0.02
    dispatcher.on_arrival(t);
    const size_t machine = dispatcher.pick(gen);
    ASSERT_LT(machine, speeds.size());
    dispatcher.on_departure_report(machine, t + 0.02);
  }
  ASSERT_GE(dispatcher.governor().commits(), 1u);
  EXPECT_EQ(dispatcher.allocation()[1], 0.0);
  double sum = 0.0;
  for (size_t i = 0; i < speeds.size(); ++i) {
    sum += dispatcher.allocation()[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Still dispatching, and only to the machine with positive fraction.
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(dispatcher.pick(gen), 0u);
  }
}

TEST(AdaptiveOrr, ZeroFractionReSolveKeepsDispatching) {
  const std::vector<double> speeds = {50.0, 1.0};
  hs::core::AdaptiveOrrOptions options;
  options.mean_job_size = 1.0;
  options.recompute_every = 64;
  hs::core::AdaptiveOrrDispatcher dispatcher(speeds, options);
  hs::rng::Xoshiro256 gen(7);
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += 1.0;
    dispatcher.on_arrival(t);
    const size_t machine = dispatcher.pick(gen);
    ASSERT_LT(machine, speeds.size());
  }
  ASSERT_GE(dispatcher.recomputations(), 1u);
  EXPECT_EQ(dispatcher.allocation()[1], 0.0);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(dispatcher.pick(gen), 0u);
  }
}

TEST(SmoothRoundRobin, AcceptsZeroFractionAllocation) {
  hs::alloc::Allocation allocation({0.75, 0.0, 0.25});
  hs::dispatch::SmoothRoundRobinDispatcher dispatcher(std::move(allocation));
  hs::rng::Xoshiro256 gen(1);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 400; ++i) {
    counts[dispatcher.pick(gen)]++;
  }
  EXPECT_EQ(counts[0], 300);
  EXPECT_EQ(counts[1], 0);
  EXPECT_EQ(counts[2], 100);
}

TEST(GovernedAdaptive, MaskRebuildBypassesGovernor) {
  const std::vector<double> speeds = {4.0, 2.0, 1.0};
  hs::uncertainty::GovernedAdaptiveDispatcher dispatcher(speeds, 0.6);
  const uint64_t commits_before = dispatcher.governor().commits();
  EXPECT_TRUE(dispatcher.set_available_mask({true, false, true}));
  EXPECT_EQ(dispatcher.mask_rebuilds(), 1u);
  EXPECT_EQ(dispatcher.governor().commits(), commits_before);
  EXPECT_DOUBLE_EQ(dispatcher.allocation()[1], 0.0);
  double sum = 0.0;
  for (size_t i = 0; i < speeds.size(); ++i) {
    sum += dispatcher.allocation()[i];
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // Recovery rebuilds again over the full set.
  EXPECT_TRUE(dispatcher.set_available_mask({true, true, true}));
  EXPECT_EQ(dispatcher.mask_rebuilds(), 2u);
  EXPECT_GT(dispatcher.allocation()[1], 0.0);
}

TEST(GovernedAdaptive, ResetRestoresInitialState) {
  const std::vector<double> speeds = {4.0, 1.0};
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  options.reestimate_every = 32;
  options.governor.min_dwell = 0.0;
  options.governor.min_improvement = 0.0;
  hs::uncertainty::GovernedAdaptiveDispatcher dispatcher(speeds, 0.5,
                                                         options);
  hs::rng::Xoshiro256 gen(3);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 0.3;
    dispatcher.on_arrival(t);
    (void)dispatcher.pick(gen);
  }
  dispatcher.reset();
  EXPECT_EQ(dispatcher.governor().commits(), 0u);
  EXPECT_TRUE(dispatcher.timeline().empty());
  EXPECT_EQ(dispatcher.mask_rebuilds(), 0u);
  const auto expected =
      hs::alloc::OptimizedAllocation().compute(speeds, 0.5);
  for (size_t i = 0; i < speeds.size(); ++i) {
    EXPECT_NEAR(dispatcher.allocation()[i], expected[i], 1e-12);
  }
}

// ---- End-to-end simulation behavior ----

hs::cluster::SimulationConfig base_config() {
  hs::cluster::SimulationConfig config;
  config.speeds = {4.0, 2.0, 1.0};
  config.rho = 0.7;
  config.sim_time = 20000.0;
  config.warmup_frac = 0.25;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.seed = 4242;
  return config;
}

hs::uncertainty::AdaptiveOptions fast_adaptive_options() {
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  options.time_constant = 1000.0;
  options.reestimate_every = 128;
  options.governor.min_dwell = 500.0;
  options.governor.budget_window = 5000.0;
  options.governor.flap_window = 2500.0;
  return options;
}

TEST(UncertainSimulation, AllOnesStepDriftIsBitIdenticalToNoDrift) {
  hs::cluster::SimulationConfig config = base_config();
  auto plain = hs::core::make_policy_dispatcher(hs::core::PolicyKind::kORR,
                                                config.speeds, config.rho);
  const auto baseline = hs::cluster::run_simulation(config, *plain);

  config.uncertainty.drift.kind = DriftKind::kStep;
  config.uncertainty.drift.steps = {{1000.0, 1.0}};  // factor stays 1
  const auto drifted = hs::cluster::run_simulation(config, *plain);

  EXPECT_EQ(baseline.mean_response_time, drifted.mean_response_time);
  EXPECT_EQ(baseline.completed_jobs, drifted.completed_jobs);
  EXPECT_EQ(baseline.events_fired, drifted.events_fired);
}

TEST(UncertainSimulation, StepDriftScalesThroughput) {
  hs::cluster::SimulationConfig config = base_config();
  config.rho = 0.4;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho);
  const auto baseline = hs::cluster::run_simulation(config, *dispatcher);

  config.uncertainty.drift.kind = DriftKind::kStep;
  config.uncertainty.drift.steps = {{0.0, 1.5}};  // rate up 50 % from t=0
  const auto drifted = hs::cluster::run_simulation(config, *dispatcher);

  const double ratio = static_cast<double>(drifted.total_arrivals) /
                       static_cast<double>(baseline.total_arrivals);
  EXPECT_NEAR(ratio, 1.5, 0.05);
}

TEST(UncertainSimulation, ReallocTimelineIsSeedDeterministic) {
  hs::cluster::SimulationConfig config = base_config();
  config.uncertainty.lambda_error.bias = 0.6;  // force a wrong start

  const auto run_once = [&] {
    auto dispatcher = hs::core::make_adaptive_dispatcher(
        hs::core::PolicyKind::kORR, config.speeds,
        config.rho * config.uncertainty.lambda_error.bias,
        fast_adaptive_options());
    auto* adaptive =
        dynamic_cast<hs::uncertainty::GovernedAdaptiveDispatcher*>(
            dispatcher.get());
    const auto result = hs::cluster::run_simulation(config, *dispatcher);
    return std::make_pair(result, adaptive->timeline());
  };

  const auto [result_a, timeline_a] = run_once();
  const auto [result_b, timeline_b] = run_once();
  EXPECT_EQ(result_a.mean_response_time, result_b.mean_response_time);
  EXPECT_EQ(result_a.realloc_commits, result_b.realloc_commits);
  ASSERT_GE(timeline_a.size(), 1u);
  ASSERT_EQ(timeline_a.size(), timeline_b.size());
  for (size_t i = 0; i < timeline_a.size(); ++i) {
    EXPECT_EQ(timeline_a[i].time, timeline_b[i].time) << i;
    EXPECT_EQ(timeline_a[i].assumed_rho, timeline_b[i].assumed_rho) << i;
    EXPECT_EQ(timeline_a[i].fractions, timeline_b[i].fractions) << i;
  }
}

TEST(UncertainSimulation, ResultCountsAdaptationThroughDecorators) {
  hs::cluster::SimulationConfig config = base_config();
  config.uncertainty.lambda_error.bias = 0.6;
  // Native masking: the adaptive core survives fault transitions.
  hs::dispatch::FaultAwareDispatcher dispatcher(
      hs::core::make_adaptive_dispatcher(
          hs::core::PolicyKind::kORR, config.speeds,
          config.rho * config.uncertainty.lambda_error.bias,
          fast_adaptive_options()));
  const auto result = hs::cluster::run_simulation(config, dispatcher);
  // The run context unwraps the decorator to find the adaptive core.
  EXPECT_GE(result.realloc_commits, 1u);
  EXPECT_EQ(result.governor_freezes, 0u);
}

TEST(UncertainSimulation, AdaptiveRecoversFromMisparameterization) {
  hs::cluster::SimulationConfig config = base_config();
  config.rho = 0.85;
  config.sim_time = 40000.0;
  config.uncertainty.lambda_error.bias = 0.55;
  const double believed_rho =
      config.rho * config.uncertainty.lambda_error.bias;

  // Static ORR planned for the wrong (under-estimated) load.
  auto wrong = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, believed_rho);
  const auto static_wrong = hs::cluster::run_simulation(config, *wrong);

  // Oracle static ORR planned for the true load.
  auto oracle = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho);
  const auto static_oracle = hs::cluster::run_simulation(config, *oracle);

  // Adaptive, seeded with the same wrong belief.
  auto adaptive = hs::core::make_adaptive_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, believed_rho,
      fast_adaptive_options());
  const auto adapted = hs::cluster::run_simulation(config, *adaptive);

  ASSERT_GT(static_wrong.mean_response_time,
            static_oracle.mean_response_time);
  // The adaptive run must recover at least half of the gap.
  const double gap = static_wrong.mean_response_time -
                     static_oracle.mean_response_time;
  EXPECT_LT(adapted.mean_response_time,
            static_wrong.mean_response_time - 0.5 * gap)
      << "wrong=" << static_wrong.mean_response_time
      << " oracle=" << static_oracle.mean_response_time
      << " adaptive=" << adapted.mean_response_time;
  EXPECT_GE(adapted.realloc_commits, 1u);
  EXPECT_EQ(adapted.governor_freezes, 0u);
}

TEST(UncertainSimulation, StalenessIsDeterministicAndDegradesLeastLoad) {
  hs::cluster::SimulationConfig config = base_config();
  config.rho = 0.85;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  const auto fresh = hs::cluster::run_simulation(config, *dispatcher);

  config.uncertainty.staleness.update_interval = 100.0;
  config.uncertainty.staleness.report_delay = 10.0;
  const auto stale_a = hs::cluster::run_simulation(config, *dispatcher);
  const auto stale_b = hs::cluster::run_simulation(config, *dispatcher);

  // Deterministic in the seed.
  EXPECT_EQ(stale_a.mean_response_time, stale_b.mean_response_time);
  EXPECT_EQ(stale_a.events_fired, stale_b.events_fired);
  // The event pattern genuinely changed (snapshots replace reports)...
  EXPECT_NE(stale_a.events_fired, fresh.events_fired);
  // ...and routing on a view up to 110 s old is clearly worse at this
  // load than §4.2's sub-second feedback.
  EXPECT_GT(stale_a.mean_response_time, fresh.mean_response_time);
}

TEST(UncertainSimulation, ExperimentAggregatesAdaptationTotals) {
  hs::cluster::ExperimentConfig experiment;
  experiment.simulation = base_config();
  experiment.simulation.uncertainty.lambda_error.bias = 0.6;
  experiment.replications = 3;
  experiment.base_seed = 99;
  const auto beliefs = experiment.believed_params();
  EXPECT_NEAR(beliefs.rho, experiment.simulation.rho * 0.6, 1e-12);
  const auto result = hs::cluster::run_experiment(experiment, [beliefs] {
    return hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kORR,
                                              beliefs.speeds, beliefs.rho,
                                              fast_adaptive_options());
  });
  uint64_t commits = 0;
  for (const auto& replication : result.replications) {
    commits += replication.realloc_commits;
  }
  EXPECT_EQ(result.total_realloc_commits, commits);
  EXPECT_GE(result.total_realloc_commits, 1u);
  EXPECT_EQ(result.total_governor_freezes, 0u);
}

// ---- Observability of the adaptive loop ----

TEST(UncertainSimulation, TraceKindNamesAreStable) {
  using hs::obs::TraceEventKind;
  EXPECT_STREQ(
      hs::obs::trace_event_kind_name(TraceEventKind::kEstimateUpdate),
      "estimate_update");
  EXPECT_STREQ(
      hs::obs::trace_event_kind_name(TraceEventKind::kReallocCommit),
      "realloc_commit");
  EXPECT_STREQ(
      hs::obs::trace_event_kind_name(TraceEventKind::kReallocReject),
      "realloc_reject");
  EXPECT_STREQ(
      hs::obs::trace_event_kind_name(TraceEventKind::kGovernorFreeze),
      "governor_freeze");
}

TEST(UncertainSimulation, ObservationIsZeroOverheadForAdaptiveRuns) {
  hs::cluster::SimulationConfig config = base_config();
  config.uncertainty.lambda_error.bias = 0.6;
  auto factory = [&] {
    return hs::core::make_adaptive_dispatcher(
        hs::core::PolicyKind::kORR, config.speeds,
        config.rho * config.uncertainty.lambda_error.bias,
        fast_adaptive_options());
  };

  auto plain_dispatcher = factory();
  const auto plain = hs::cluster::run_simulation(config, *plain_dispatcher);

  hs::obs::TraceSink sink;
  hs::obs::MetricsRegistry registry;
  hs::obs::Observer observer;
  observer.trace = &sink;
  observer.metrics = &registry;
  observer.sample_interval = 500.0;
  config.observer = &observer;
  auto observed_dispatcher = factory();
  const auto observed =
      hs::cluster::run_simulation(config, *observed_dispatcher);

  // Observation must not move a single event or change a result bit
  // (sampling adds exactly its own tick events).
  EXPECT_EQ(plain.mean_response_time, observed.mean_response_time);
  EXPECT_EQ(plain.completed_jobs, observed.completed_jobs);
  EXPECT_EQ(plain.realloc_commits, observed.realloc_commits);
  EXPECT_EQ(observed.events_fired, plain.events_fired + 40);

  // The adaptive loop shows up in the trace...
  size_t estimate_updates = 0;
  size_t commits = 0;
  for (size_t i = 0; i < sink.size(); ++i) {
    const auto& record = sink.at(i);
    if (record.kind == hs::obs::TraceEventKind::kEstimateUpdate) {
      ++estimate_updates;
    }
    if (record.kind == hs::obs::TraceEventKind::kReallocCommit) {
      ++commits;
    }
  }
  EXPECT_GE(estimate_updates, 1u);
  // The ring overwrites its oldest records on a long run, so the trace
  // holds a suffix of the commits, never more than the governor counted.
  EXPECT_GE(commits, 1u);
  EXPECT_LE(commits, observed.realloc_commits);
  // ...and in the always-present gauges.
  const size_t last = registry.sample_count() - 1;
  EXPECT_GT(registry.value(last, registry.column("cluster.lambda_hat")),
            0.0);
  EXPECT_EQ(
      registry.value(last, registry.column("cluster.realloc_commits")),
      static_cast<double>(observed.realloc_commits));
}

}  // namespace
