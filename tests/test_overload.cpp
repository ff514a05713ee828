// Overload-protection subsystem tests: config validation, the retry
// budget token bucket, admission policies, the circuit-breaking
// dispatcher's state machine, and end-to-end simulations pinning the
// rejection/shed/drop accounting identity and overload-on determinism.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/cyclic.h"
#include "obs/trace.h"
#include "overload/admission.h"
#include "overload/circuit_breaker.h"
#include "overload/config.h"
#include "overload/retry_budget.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using namespace hs::overload;
using hs::util::CheckError;

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// ---- OverloadConfig validation ----

TEST(OverloadConfig, DefaultIsDisabledAndValid) {
  OverloadConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_NO_THROW(config.validate(3));
}

TEST(OverloadConfig, AnyFeatureEnables) {
  OverloadConfig config;
  config.queue_capacity = 8;
  EXPECT_TRUE(config.enabled());
  config = OverloadConfig{};
  config.machine_capacity = {4, 4};
  EXPECT_TRUE(config.enabled());
  config = OverloadConfig{};
  config.admission = AdmissionKind::kQueueBoundShed;
  EXPECT_TRUE(config.enabled());
  config = OverloadConfig{};
  config.retry_budget.enabled = true;
  EXPECT_TRUE(config.enabled());
}

TEST(OverloadConfig, MachineCapacityArityChecked) {
  OverloadConfig config;
  config.machine_capacity = {4, 4};
  const std::string message =
      error_message([&] { config.validate(3); });
  EXPECT_NE(message.find("one entry per machine"), std::string::npos)
      << message;
}

TEST(OverloadConfig, MachineCapacityBelowOneRejected) {
  OverloadConfig config;
  config.machine_capacity = {4, 0, 4};
  const std::string message =
      error_message([&] { config.validate(3); });
  EXPECT_NE(message.find("machine_capacity[1]"), std::string::npos)
      << message;
}

TEST(OverloadConfig, QueueBoundShedNeedsPositiveBound) {
  OverloadConfig config;
  config.admission = AdmissionKind::kQueueBoundShed;
  config.admission_queue_bound = 0;
  const std::string message =
      error_message([&] { config.validate(2); });
  EXPECT_NE(message.find("admission_queue_bound"), std::string::npos)
      << message;
}

TEST(OverloadConfig, DeadlineShedNeedsFiniteSlo) {
  OverloadConfig config;
  config.admission = AdmissionKind::kDeadlineShed;
  config.slo_budget = 0.0;  // the default — must be set explicitly
  EXPECT_NE(error_message([&] { config.validate(2); }).find("slo_budget"),
            std::string::npos);
  config.slo_budget = std::numeric_limits<double>::infinity();
  EXPECT_NE(error_message([&] { config.validate(2); }).find("slo_budget"),
            std::string::npos);
}

TEST(OverloadConfig, DeadlineShedProbabilityRangeChecked) {
  OverloadConfig config;
  config.admission = AdmissionKind::kDeadlineShed;
  config.slo_budget = 100.0;
  config.shed_probability = 0.0;
  EXPECT_NE(
      error_message([&] { config.validate(2); }).find("shed_probability"),
      std::string::npos);
  config.shed_probability = 1.5;
  EXPECT_NE(
      error_message([&] { config.validate(2); }).find("shed_probability"),
      std::string::npos);
}

TEST(OverloadConfig, AdmissionKindNames) {
  EXPECT_STREQ(admission_kind_name(AdmissionKind::kAlwaysAdmit),
               "always-admit");
  EXPECT_STREQ(admission_kind_name(AdmissionKind::kQueueBoundShed),
               "queue-bound-shed");
  EXPECT_STREQ(admission_kind_name(AdmissionKind::kDeadlineShed),
               "deadline-shed");
}

// ---- RetryBudget ----

TEST(RetryBudget, ConfigValidation) {
  RetryBudgetConfig config;
  EXPECT_NO_THROW(config.validate());
  // Validation only applies when the budget is on; a disabled budget
  // never reads its knobs.
  config.tokens_per_admission = -0.1;
  EXPECT_NO_THROW(config.validate());
  config.enabled = true;
  EXPECT_NE(error_message([&] { config.validate(); })
                .find("tokens_per_admission"),
            std::string::npos);
  config = RetryBudgetConfig{};
  config.enabled = true;
  config.burst = 0.0;
  EXPECT_NE(error_message([&] { config.validate(); }).find("burst"),
            std::string::npos);
  config = RetryBudgetConfig{};
  config.enabled = true;
  config.initial_tokens = std::nan("");
  EXPECT_NE(error_message([&] { config.validate(); }).find("initial_tokens"),
            std::string::npos);
}

TEST(RetryBudget, SpendsDownToDenial) {
  RetryBudgetConfig config;
  config.enabled = true;
  config.initial_tokens = 2.0;
  config.burst = 10.0;
  config.tokens_per_admission = 0.0;  // no refill: pure drain
  RetryBudget budget(config);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());  // bucket empty
  EXPECT_EQ(budget.funded(), 2u);
  EXPECT_EQ(budget.denied(), 1u);
}

TEST(RetryBudget, AdmissionsEarnFractionalTokens) {
  RetryBudgetConfig config;
  config.enabled = true;
  config.initial_tokens = 0.0;
  config.burst = 10.0;
  config.tokens_per_admission = 0.2;
  RetryBudget budget(config);
  EXPECT_FALSE(budget.try_spend());  // nothing banked yet
  for (int i = 0; i < 5; ++i) {
    budget.on_admission();  // 5 × 0.2 = 1 whole token
  }
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  // Sustained ratio: 100 admissions fund at most 20 retries.
  for (int i = 0; i < 100; ++i) {
    budget.on_admission();
  }
  int funded = 0;
  while (budget.try_spend()) {
    ++funded;
  }
  EXPECT_EQ(funded, 10);  // capped by burst, not by the 20 earned
}

TEST(RetryBudget, BurstCapsBanking) {
  RetryBudgetConfig config;
  config.enabled = true;
  config.initial_tokens = 100.0;  // clamped to burst at construction
  config.burst = 3.0;
  config.tokens_per_admission = 5.0;  // each admission would overfill
  RetryBudget budget(config);
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.0);
  budget.on_admission();
  EXPECT_DOUBLE_EQ(budget.tokens(), 3.0);
}

TEST(RetryBudget, ResetRestoresInitialBucket) {
  RetryBudgetConfig config;
  config.enabled = true;
  config.initial_tokens = 1.0;
  config.tokens_per_admission = 0.0;
  RetryBudget budget(config);
  EXPECT_TRUE(budget.try_spend());
  EXPECT_FALSE(budget.try_spend());
  budget.reset();
  EXPECT_DOUBLE_EQ(budget.tokens(), 1.0);
  EXPECT_EQ(budget.funded(), 0u);
  EXPECT_EQ(budget.denied(), 0u);
}

// ---- Admission policies ----

TEST(Admission, QueueBoundShedThreshold) {
  QueueBoundShed policy(4);
  hs::rng::Xoshiro256 gen(1);
  AdmissionContext ctx;
  ctx.queue_length = 3;
  EXPECT_TRUE(policy.admit(ctx, gen));
  ctx.queue_length = 4;
  EXPECT_FALSE(policy.admit(ctx, gen));
  ctx.queue_length = 100;
  EXPECT_FALSE(policy.admit(ctx, gen));
  EXPECT_EQ(policy.name(), "queue-bound-shed(4)");
}

TEST(Admission, DeadlineShedEstimateTracksBacklog) {
  const std::vector<double> speeds = {1.0, 4.0};
  DeadlineShed policy(50.0, 1.0, speeds, 0.5, 2.0);
  // Estimates grow with queue depth and never fall below the analytic
  // baseline.
  const double empty = policy.estimate(0, 0, 2.0, 1.0);
  const double deep = policy.estimate(0, 30, 2.0, 1.0);
  EXPECT_GT(deep, empty);
  EXPECT_GE(deep, 30.0 * 2.0 / 1.0);  // at least the raw backlog term
  // A stopped machine can never finish: infinite estimate.
  EXPECT_TRUE(std::isinf(policy.estimate(0, 0, 2.0, 0.0)));
}

TEST(Admission, DeadlineShedAdmitsUnderSloShedsOver) {
  const std::vector<double> speeds = {1.0, 1.0};
  DeadlineShed policy(50.0, 1.0, speeds, 0.5, 2.0);
  hs::rng::Xoshiro256 gen(2);
  AdmissionContext ctx;
  ctx.machine = 0;
  ctx.speed = 1.0;
  ctx.job_size = 2.0;
  ctx.queue_length = 0;
  EXPECT_TRUE(policy.admit(ctx, gen));
  ctx.queue_length = 100;  // 100 × 2 s of backlog >> 50 s SLO
  EXPECT_FALSE(policy.admit(ctx, gen));
}

TEST(Admission, DeadlineShedProbabilisticUsesStream) {
  const std::vector<double> speeds = {1.0};
  DeadlineShed policy(10.0, 0.5, speeds, 0.5, 2.0);
  hs::rng::Xoshiro256 gen(3);
  AdmissionContext ctx;
  ctx.machine = 0;
  ctx.speed = 1.0;
  ctx.job_size = 2.0;
  ctx.queue_length = 100;  // far over the SLO on every trial
  int admitted = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    admitted += policy.admit(ctx, gen) ? 1 : 0;
  }
  // Sheds with p = 0.5: the admitted fraction concentrates around half.
  EXPECT_NEAR(static_cast<double>(admitted) / trials, 0.5, 0.05);
}

TEST(Admission, FactoryBuildsConfiguredPolicy) {
  const std::vector<double> speeds = {1.0, 2.0};
  OverloadConfig config;
  EXPECT_EQ(make_admission_policy(config, speeds, 0.5, 2.0)->name(),
            "always-admit");
  config.admission = AdmissionKind::kQueueBoundShed;
  config.admission_queue_bound = 7;
  EXPECT_EQ(make_admission_policy(config, speeds, 0.5, 2.0)->name(),
            "queue-bound-shed(7)");
  config.admission = AdmissionKind::kDeadlineShed;
  config.slo_budget = 25.0;
  const auto deadline = make_admission_policy(config, speeds, 0.5, 2.0);
  EXPECT_NE(deadline->name().find("deadline-shed"), std::string::npos);
}

// ---- CircuitBreakerDispatcher ----

/// Minimal deterministic inner dispatcher: cycles over the allowed
/// machines. It either masks natively or, without mask support, takes
/// in-place re-weights (a machine with fraction 0 is skipped), so both
/// decorator modes are covered with one stub.
class StubDispatcher final : public hs::dispatch::Dispatcher {
 public:
  StubDispatcher(size_t machines, bool supports_mask)
      : allowed_(machines, true), supports_mask_(supports_mask) {}

  size_t pick(hs::rng::Xoshiro256& gen) override {
    (void)gen;
    for (size_t step = 0; step < allowed_.size(); ++step) {
      const size_t machine = cursor_;
      cursor_ = (cursor_ + 1) % allowed_.size();
      if (allowed_[machine]) {
        return machine;
      }
    }
    return 0;  // everything masked: fail fast on machine 0
  }
  void reset() override { cursor_ = 0; }
  std::string name() const override { return "stub"; }
  size_t machine_count() const override { return allowed_.size(); }
  bool set_available_mask(const std::vector<bool>& available) override {
    if (!supports_mask_) {
      return false;
    }
    allowed_ = available;
    return true;
  }
  bool rebuild_fractions(std::span<const double> fractions) override {
    if (supports_mask_) {
      return false;
    }
    for (size_t i = 0; i < allowed_.size(); ++i) {
      allowed_[i] = fractions[i] > 0.0;
    }
    cursor_ = 0;
    return true;
  }

 private:
  std::vector<bool> allowed_;
  size_t cursor_ = 0;
  bool supports_mask_;
};

CircuitBreakerConfig quick_breaker() {
  CircuitBreakerConfig config;
  config.trip_threshold = 3;
  config.cooldown = 10.0;
  config.probe_successes = 2;
  return config;
}

TEST(CircuitBreakerConfig, Validation) {
  EXPECT_NO_THROW(CircuitBreakerConfig{}.validate());
  CircuitBreakerConfig config;
  config.trip_threshold = 0;
  EXPECT_NE(error_message([&] { config.validate(); }).find("trip_threshold"),
            std::string::npos);
  config = CircuitBreakerConfig{};
  config.cooldown = 0.0;
  EXPECT_NE(error_message([&] { config.validate(); }).find("cooldown"),
            std::string::npos);
  config = CircuitBreakerConfig{};
  config.probe_successes = 0;
  EXPECT_NE(error_message([&] { config.validate(); }).find("probe_successes"),
            std::string::npos);
}

/// Survivor reweighter for the stub: equal shares over the routable
/// machines, recording every mask it is asked for.
hs::dispatch::Reweighter recording_reweighter(
    std::vector<std::vector<bool>>& masks_seen) {
  return [&masks_seen](const std::vector<bool>& available,
                       std::vector<double>& fractions) {
    masks_seen.push_back(available);
    fractions.assign(available.size(), 0.0);
    for (size_t i = 0; i < available.size(); ++i) {
      fractions[i] = available[i] ? 1.0 : 0.0;
    }
  };
}

TEST(CircuitBreaker, RequiresMaskOrReweighter) {
  EXPECT_THROW(CircuitBreakerDispatcher(
                   std::make_unique<StubDispatcher>(2, false),
                   quick_breaker()),
               CheckError);
  EXPECT_NO_THROW(CircuitBreakerDispatcher(
      std::make_unique<StubDispatcher>(2, true), quick_breaker()));
  std::vector<std::vector<bool>> masks_seen;
  EXPECT_NO_THROW(CircuitBreakerDispatcher(
      std::make_unique<StubDispatcher>(2, false), quick_breaker(),
      recording_reweighter(masks_seen)));
  // An inner dispatcher that declines the in-place re-weight fails
  // loudly at the first trip instead of routing on unchanged.
  CircuitBreakerDispatcher declines(
      std::make_unique<hs::dispatch::CyclicDispatcher>(
          hs::alloc::Allocation({0.5, 0.5})),
      quick_breaker(),
      recording_reweighter(masks_seen));
  declines.on_dispatch_result(0, false, 1.0);
  declines.on_dispatch_result(0, false, 1.0);
  EXPECT_THROW(declines.on_dispatch_result(0, false, 1.0), CheckError);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailures) {
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(3, true),
                                   quick_breaker());
  breaker.on_dispatch_result(1, false, 1.0);
  breaker.on_dispatch_result(1, false, 2.0);
  EXPECT_EQ(breaker.state(1), BreakerState::kClosed);
  breaker.on_dispatch_result(1, false, 3.0);  // third consecutive: trip
  EXPECT_EQ(breaker.state(1), BreakerState::kOpen);
  EXPECT_EQ(breaker.open_count(), 1u);
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, AcceptResetsTheFailureStreak) {
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, true),
                                   quick_breaker());
  breaker.on_dispatch_result(0, false, 1.0);
  breaker.on_dispatch_result(0, false, 2.0);
  breaker.on_dispatch_result(0, true, 3.0);  // streak broken
  breaker.on_dispatch_result(0, false, 4.0);
  breaker.on_dispatch_result(0, false, 5.0);
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 0u);
}

TEST(CircuitBreaker, CooldownHalfOpensThenProbesClose) {
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, true),
                                   quick_breaker());
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(0, false, 1.0);
  }
  EXPECT_EQ(breaker.state(0), BreakerState::kOpen);
  breaker.on_arrival(5.0);  // cooldown (10 s from t=1) not yet elapsed
  EXPECT_EQ(breaker.state(0), BreakerState::kOpen);
  breaker.on_arrival(11.5);
  EXPECT_EQ(breaker.state(0), BreakerState::kHalfOpen);
  breaker.on_dispatch_result(0, true, 11.5);
  EXPECT_EQ(breaker.state(0), BreakerState::kHalfOpen);
  breaker.on_dispatch_result(0, true, 12.0);  // second probe success
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
  EXPECT_EQ(breaker.open_count(), 0u);
}

TEST(CircuitBreaker, HalfOpenFailureReopensAndRestartsCooldown) {
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, true),
                                   quick_breaker());
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(0, false, 1.0);
  }
  breaker.on_arrival(12.0);
  EXPECT_EQ(breaker.state(0), BreakerState::kHalfOpen);
  breaker.on_dispatch_result(0, false, 12.0);  // failed probe
  EXPECT_EQ(breaker.state(0), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 2u);
  breaker.on_arrival(13.0);  // new cooldown runs from t=12
  EXPECT_EQ(breaker.state(0), BreakerState::kOpen);
  breaker.on_arrival(22.5);
  EXPECT_EQ(breaker.state(0), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, CrashReportTripsInstantly) {
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, true),
                                   quick_breaker());
  breaker.on_arrival(7.0);
  breaker.on_machine_state_report(1, false);
  EXPECT_EQ(breaker.state(1), BreakerState::kOpen);
  EXPECT_EQ(breaker.trips(), 1u);
  // Cooldown runs from the last observed time (t=7).
  breaker.on_arrival(16.0);
  EXPECT_EQ(breaker.state(1), BreakerState::kOpen);
  breaker.on_arrival(17.5);
  EXPECT_EQ(breaker.state(1), BreakerState::kHalfOpen);
}

TEST(CircuitBreaker, ReweighterModeReallocatesOverSurvivors) {
  std::vector<std::vector<bool>> masks_seen;
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(3, false),
                                   quick_breaker(),
                                   recording_reweighter(masks_seen));
  const hs::dispatch::Dispatcher* inner = &breaker.inner();
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(2, false, 1.0);
  }
  EXPECT_EQ(breaker.rebuilds(), 1u);
  ASSERT_EQ(masks_seen.size(), 1u);
  EXPECT_EQ(masks_seen[0], (std::vector<bool>{true, true, false}));
  hs::rng::Xoshiro256 gen(5);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(breaker.pick(gen), 2u);
  }
  // Half-open rejoins the routing set: another re-weight with all three.
  breaker.on_arrival(12.0);
  EXPECT_EQ(breaker.rebuilds(), 2u);
  EXPECT_EQ(masks_seen[1], (std::vector<bool>{true, true, true}));
  // Re-weighted in place: the breaker still holds its original inner.
  EXPECT_EQ(&breaker.inner(), inner);
}

TEST(CircuitBreaker, AllOpenKeepsPreviousRouting) {
  std::vector<std::vector<bool>> masks_seen;
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, false),
                                   quick_breaker(),
                                   recording_reweighter(masks_seen));
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(0, false, 1.0);
  }
  EXPECT_EQ(masks_seen.size(), 1u);
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(1, false, 2.0);
  }
  // Both open: no re-weight over an empty survivor set — the previous
  // routing (machine 1 only) stays so jobs fail fast and feed the
  // half-open probes.
  EXPECT_EQ(masks_seen.size(), 1u);
  EXPECT_EQ(breaker.open_count(), 2u);
  hs::rng::Xoshiro256 gen(5);
  EXPECT_EQ(breaker.pick(gen), 1u);
}

TEST(CircuitBreaker, TransitionsAreTraced) {
  hs::obs::TraceSink sink(64);
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, true),
                                   quick_breaker());
  breaker.set_trace_sink(&sink);
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(0, false, 1.0);
  }
  breaker.on_arrival(12.0);
  breaker.on_dispatch_result(0, true, 12.0);
  breaker.on_dispatch_result(0, true, 13.0);
  std::vector<hs::obs::TraceEventKind> kinds;
  for (size_t i = 0; i < sink.size(); ++i) {
    kinds.push_back(sink.at(i).kind);
  }
  EXPECT_EQ(kinds, (std::vector<hs::obs::TraceEventKind>{
                       hs::obs::TraceEventKind::kBreakerOpen,
                       hs::obs::TraceEventKind::kBreakerHalfOpen,
                       hs::obs::TraceEventKind::kBreakerClose}));
}

TEST(CircuitBreaker, ResetRestoresAllClosed) {
  CircuitBreakerDispatcher breaker(std::make_unique<StubDispatcher>(2, true),
                                   quick_breaker());
  for (int i = 0; i < 3; ++i) {
    breaker.on_dispatch_result(0, false, 1.0);
  }
  EXPECT_EQ(breaker.open_count(), 1u);
  breaker.reset();
  EXPECT_EQ(breaker.open_count(), 0u);
  EXPECT_EQ(breaker.trips(), 0u);
  EXPECT_EQ(breaker.state(0), BreakerState::kClosed);
}

// ---- End-to-end simulations ----

hs::cluster::SimulationConfig overload_sim(std::vector<double> speeds,
                                           double rho) {
  hs::cluster::SimulationConfig config;
  config.speeds = std::move(speeds);
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.rho = rho;
  config.sim_time = 5000.0;
  config.warmup_frac = 0.1;
  config.seed = 99;
  return config;
}

void expect_accounting_identity(const hs::cluster::SimulationResult& r) {
  EXPECT_EQ(r.total_arrivals,
            r.total_completed + r.total_shed + r.total_dropped +
                r.in_flight_at_end);
}

TEST(OverloadSim, BoundedQueuesRejectAndAccountingBalances) {
  auto config = overload_sim({1.0, 1.0}, 1.4);
  config.overload.queue_capacity = 3;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kWRR, config.speeds, config.rho);
  const auto result = hs::cluster::run_simulation(config, *dispatcher);
  EXPECT_GT(result.jobs_rejected, 0u);
  EXPECT_GT(result.jobs_dropped, 0u);  // retries exhaust at sustained 1.4
  EXPECT_EQ(result.jobs_shed, 0u);     // no admission policy configured
  expect_accounting_identity(result);
  EXPECT_GT(result.total_arrivals, 0u);
}

TEST(OverloadSim, PerMachineCapacityOverridesGlobal) {
  auto config = overload_sim({1.0, 1.0}, 1.4);
  config.overload.queue_capacity = 3;
  config.overload.machine_capacity = {2, 1000};  // m1 effectively unbounded
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kWRR, config.speeds, config.rho);
  const auto result = hs::cluster::run_simulation(config, *dispatcher);
  EXPECT_GT(result.jobs_rejected, 0u);  // the capacity-2 machine rejects
  expect_accounting_identity(result);
}

TEST(OverloadSim, QueueBoundShedRefusesAtTheDoor) {
  auto config = overload_sim({1.0, 1.0}, 1.4);
  config.overload.queue_capacity = 8;
  config.overload.admission = AdmissionKind::kQueueBoundShed;
  config.overload.admission_queue_bound = 4;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kWRR, config.speeds, config.rho);
  const auto result = hs::cluster::run_simulation(config, *dispatcher);
  EXPECT_GT(result.jobs_shed, 0u);
  // Shedding below the hard bound keeps queues from ever filling: the
  // only way to exceed the admission bound would be retries, which need
  // rejections first.
  EXPECT_EQ(result.jobs_rejected, 0u);
  expect_accounting_identity(result);
}

TEST(OverloadSim, RetryBudgetDropsWhenExhausted) {
  auto config = overload_sim({1.0, 1.0}, 1.6);
  config.overload.queue_capacity = 2;
  config.overload.retry_budget.enabled = true;
  config.overload.retry_budget.initial_tokens = 0.0;
  config.overload.retry_budget.tokens_per_admission = 0.01;
  config.overload.retry_budget.burst = 1.0;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kWRR, config.speeds, config.rho);
  const auto result = hs::cluster::run_simulation(config, *dispatcher);
  EXPECT_GT(result.jobs_rejected, 0u);
  EXPECT_GT(result.retry_budget_denied, 0u);
  EXPECT_GT(result.jobs_dropped, 0u);
  expect_accounting_identity(result);
}

TEST(OverloadSim, CircuitBreakerTripsUnderSustainedRejection) {
  auto config = overload_sim({1.0, 1.0, 1.0}, 1.5);
  config.overload.queue_capacity = 2;
  auto dispatcher = hs::core::make_circuit_breaker_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho,
      CircuitBreakerConfig{});
  const auto result = hs::cluster::run_simulation(config, *dispatcher);
  const auto* breaker =
      dynamic_cast<const CircuitBreakerDispatcher*>(dispatcher.get());
  ASSERT_NE(breaker, nullptr);
  EXPECT_GT(breaker->trips(), 0u);
  EXPECT_GT(result.jobs_rejected, 0u);
  expect_accounting_identity(result);
}

TEST(OverloadSim, OverloadOnRunsAreDeterministic) {
  auto config = overload_sim({1.0, 2.0}, 1.3);
  config.overload.queue_capacity = 4;
  config.overload.admission = AdmissionKind::kDeadlineShed;
  config.overload.slo_budget = 6.0;
  config.overload.shed_probability = 0.5;  // exercises the RNG stream
  config.overload.retry_budget.enabled = true;
  auto first = hs::core::make_circuit_breaker_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho,
      CircuitBreakerConfig{});
  auto second = hs::core::make_circuit_breaker_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho,
      CircuitBreakerConfig{});
  const auto a = hs::cluster::run_simulation(config, *first);
  const auto b = hs::cluster::run_simulation(config, *second);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_shed, b.total_shed);
  EXPECT_EQ(a.total_dropped, b.total_dropped);
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);  // bit-for-bit
  expect_accounting_identity(a);
}

TEST(OverloadSim, StableUnderloadedRunShedsNothing) {
  auto config = overload_sim({1.0, 2.0}, 0.5);
  config.overload.queue_capacity = 200;
  config.overload.admission = AdmissionKind::kQueueBoundShed;
  config.overload.admission_queue_bound = 100;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho);
  const auto result = hs::cluster::run_simulation(config, *dispatcher);
  // Generous bounds at ρ=0.5: protection is pure bookkeeping.
  EXPECT_EQ(result.jobs_rejected, 0u);
  EXPECT_EQ(result.jobs_shed, 0u);
  EXPECT_EQ(result.jobs_dropped, 0u);
  expect_accounting_identity(result);
}

TEST(OverloadSim, InvalidOverloadConfigRejectedByRun) {
  auto config = overload_sim({1.0, 2.0}, 0.5);
  config.overload.machine_capacity = {4};  // wrong arity
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho);
  EXPECT_THROW((void)hs::cluster::run_simulation(config, *dispatcher),
               CheckError);
}

}  // namespace
