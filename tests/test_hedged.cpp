// Hedged-dispatch decorator and decorator-stack composition: the three
// robustness decorators (Hedged / FaultAware / CircuitBreaker) must
// produce the same routing mask in every stacking order, and the full
// simulation must conserve arrivals with any of them outermost.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "dispatch/least_load.h"
#include "overload/circuit_breaker.h"
#include "rng/rng.h"
#include "util/check.h"

namespace {

using hs::dispatch::Dispatcher;
using hs::dispatch::FaultAwareDispatcher;
using hs::dispatch::HedgedDispatcher;
using hs::dispatch::HedgingConfig;
using hs::dispatch::LeastLoadDispatcher;
using hs::overload::CircuitBreakerConfig;
using hs::overload::CircuitBreakerDispatcher;

TEST(Hedged, ConfigIsValidated) {
  HedgingConfig config;
  EXPECT_FALSE(config.enabled());
  config.validate();  // off is fine
  config.delay = 2.5;
  EXPECT_TRUE(config.enabled());
  config.validate();
  config.delay = -1.0;
  EXPECT_THROW(config.validate(), hs::util::CheckError);
}

TEST(Hedged, ForwardsPicksAndCounts) {
  const std::vector<double> speeds = {1.0, 1.0};
  HedgedDispatcher hedged(std::make_unique<LeastLoadDispatcher>(speeds),
                          HedgingConfig{2.0});
  EXPECT_TRUE(hedged.config().enabled());
  EXPECT_EQ(hedged.machine_count(), 2u);
  EXPECT_TRUE(hedged.uses_feedback());  // Least-Load underneath

  hs::rng::Xoshiro256 gen(7);
  const size_t primary = hedged.pick(gen);
  // Least-Load's pick_hedge never returns the excluded machine while an
  // alternative exists.
  const size_t second = hedged.pick_hedge(gen, 1.0, primary);
  EXPECT_NE(second, primary);

  hedged.record_issued();
  hedged.record_issued();
  hedged.record_won();
  hedged.record_cancelled();
  EXPECT_EQ(hedged.issued(), 2u);
  EXPECT_EQ(hedged.won(), 1u);
  EXPECT_EQ(hedged.cancelled(), 1u);
  hedged.reset();
  EXPECT_EQ(hedged.issued(), 0u);
}

// ---------------------------------------------------------------------
// Stacking-order consistency.

enum class Wrap { kHedged, kFaultAware, kBreaker };

const char* wrap_name(Wrap w) {
  switch (w) {
    case Wrap::kHedged:
      return "H";
    case Wrap::kFaultAware:
      return "F";
    case Wrap::kBreaker:
      return "B";
  }
  return "?";
}

/// Wraps a Least-Load core in the three decorators, innermost first.
std::unique_ptr<Dispatcher> build_stack(const std::array<Wrap, 3>& order,
                                        const std::vector<double>& speeds) {
  std::unique_ptr<Dispatcher> d =
      std::make_unique<LeastLoadDispatcher>(speeds);
  for (Wrap w : order) {
    switch (w) {
      case Wrap::kHedged:
        d = std::make_unique<HedgedDispatcher>(std::move(d),
                                               HedgingConfig{1.5});
        break;
      case Wrap::kFaultAware:
        d = std::make_unique<FaultAwareDispatcher>(std::move(d));
        break;
      case Wrap::kBreaker:
        d = std::make_unique<CircuitBreakerDispatcher>(
            std::move(d), CircuitBreakerConfig{});
        break;
    }
  }
  return d;
}

const std::array<std::array<Wrap, 3>, 6>& all_orders() {
  static const std::array<std::array<Wrap, 3>, 6> kOrders = {{
      {Wrap::kHedged, Wrap::kFaultAware, Wrap::kBreaker},
      {Wrap::kHedged, Wrap::kBreaker, Wrap::kFaultAware},
      {Wrap::kFaultAware, Wrap::kHedged, Wrap::kBreaker},
      {Wrap::kFaultAware, Wrap::kBreaker, Wrap::kHedged},
      {Wrap::kBreaker, Wrap::kHedged, Wrap::kFaultAware},
      {Wrap::kBreaker, Wrap::kFaultAware, Wrap::kHedged},
  }};
  return kOrders;
}

std::string order_label(const std::array<Wrap, 3>& order) {
  // Innermost-first build order; label outermost-first for readability.
  return std::string(wrap_name(order[2])) + "(" + wrap_name(order[1]) + "(" +
         wrap_name(order[0]) + "(LL)))";
}

TEST(Hedged, AllStackOrdersExposeBothFeedbackChannels) {
  const std::vector<double> speeds = {1.0, 1.0, 1.0, 1.0};
  for (const auto& order : all_orders()) {
    auto stack = build_stack(order, speeds);
    EXPECT_TRUE(stack->uses_fault_feedback()) << order_label(order);
    EXPECT_TRUE(stack->uses_overload_feedback()) << order_label(order);
    EXPECT_TRUE(stack->uses_feedback()) << order_label(order);
  }
}

TEST(Hedged, AllStackOrdersProduceConsistentMasks) {
  const std::vector<double> speeds = {1.0, 1.0, 1.0, 1.0};
  const CircuitBreakerConfig breaker_defaults;
  for (const auto& order : all_orders()) {
    auto stack = build_stack(order, speeds);
    // Machine 0 is reported down through the fault channel; machine 1
    // accumulates enough consecutive dispatch failures to trip its
    // breaker. Whatever the stacking order, the events must reach the
    // decorator that consumes them.
    stack->on_machine_state_report(0, false);
    for (size_t i = 0; i < breaker_defaults.trip_threshold; ++i) {
      stack->on_dispatch_result(1, false, 1.0 + static_cast<double>(i));
    }
    hs::rng::Xoshiro256 gen(123);
    std::set<size_t> picked;
    for (int i = 0; i < 200; ++i) {
      picked.insert(stack->pick(gen));
    }
    EXPECT_EQ(picked, (std::set<size_t>{2, 3})) << order_label(order);
    // A hedge pick honors the combined mask too.
    const size_t hedge = stack->pick_hedge(gen, 1.0, 2);
    EXPECT_EQ(hedge, 3u) << order_label(order);
    // Recovery restores machine 0 (breaker 1 stays open until cooldown).
    stack->on_machine_state_report(0, true);
    picked.clear();
    for (int i = 0; i < 200; ++i) {
      picked.insert(stack->pick(gen));
    }
    EXPECT_EQ(picked, (std::set<size_t>{0, 2, 3})) << order_label(order);
  }
}

// ---------------------------------------------------------------------
// Full simulation per ordering: exactly-once conservation holds with
// loss + partition + heartbeat suspicion + hedging active, whatever the
// decorator order.

TEST(Hedged, ConservationHoldsForEveryStackOrder) {
  for (const auto& order : all_orders()) {
    for (uint64_t seed : {11u, 29u, 47u}) {
      hs::cluster::SimulationConfig config;
      config.speeds = {4.0, 2.0, 1.0};
      config.rho = 0.8;
      config.sim_time = 2000.0;
      config.warmup_frac = 0.1;
      config.seed = seed;
      config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
      config.workload.size_kind = hs::workload::SizeKind::kExponential;
      config.workload.fixed_or_mean_size = 1.0;
      config.network.dispatch_link.loss = 0.05;
      config.network.dispatch_link.delay_mean = 0.05;
      config.network.report_link.loss = 0.05;
      config.network.partitions.push_back({500.0, 200.0, {2}});
      config.network.heartbeat.interval = 1.0;
      config.network.heartbeat.phi_threshold = 3.0;
      config.faults.retry.max_attempts = 4;
      config.faults.retry.backoff_initial = 0.5;

      auto stack = build_stack(order, config.speeds);
      const auto result = hs::cluster::run_simulation(config, *stack);
      EXPECT_GT(result.completed_jobs, 0u) << order_label(order);
      EXPECT_GT(result.hedges_issued, 0u) << order_label(order);
      EXPECT_LE(result.hedges_won, result.hedges_issued)
          << order_label(order);
      EXPECT_GT(result.total_arrivals, 0u);
      EXPECT_EQ(result.total_arrivals,
                result.total_completed + result.total_shed +
                    result.total_dropped + result.in_flight_at_end)
          << order_label(order) << " seed=" << seed
          << " arrivals=" << result.total_arrivals
          << " completed=" << result.total_completed
          << " shed=" << result.total_shed
          << " dropped=" << result.total_dropped
          << " in_flight=" << result.in_flight_at_end;
    }
  }
}

// ---------------------------------------------------------------------
// A static policy re-weighted through the hedging layer. A breaker in
// survivor-reallocation mode outside Hedged reaches the policy through
// it (Hedged forwards rebuild_fractions), so hedging survives in either
// stacking order, and both orders trip, re-weight and hedge alike.

TEST(Hedged, ReweightingBreakerKeepsHedgingInEitherOrder) {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 1.0, 2.0, 4.0};
  config.rho = 0.9;
  config.sim_time = 4000.0;
  config.seed = 1;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.overload.queue_capacity = 2;
  const HedgingConfig hedging{5.0};
  const auto orr = [&config] {
    return hs::core::make_policy_dispatcher(hs::core::PolicyKind::kORR,
                                            config.speeds, config.rho);
  };
  const auto reweighter = [&config] {
    return hs::core::policy_masked_reweighter(hs::core::PolicyKind::kORR,
                                              config.speeds, config.rho);
  };

  // CircuitBreaker(Hedged(ORR)).
  CircuitBreakerDispatcher outer_breaker(
      std::make_unique<HedgedDispatcher>(orr(), hedging),
      CircuitBreakerConfig{}, reweighter());
  const auto breaker_outside = hs::cluster::run_simulation(config,
                                                           outer_breaker);

  // Hedged(CircuitBreaker(ORR)).
  auto owned = std::make_unique<CircuitBreakerDispatcher>(
      orr(), CircuitBreakerConfig{}, reweighter());
  const CircuitBreakerDispatcher& inner_breaker = *owned;
  HedgedDispatcher hedged(std::move(owned), hedging);
  const auto hedged_outside = hs::cluster::run_simulation(config, hedged);

  EXPECT_GT(outer_breaker.trips(), 0u);
  EXPECT_GT(outer_breaker.rebuilds(), 0u);
  EXPECT_GT(breaker_outside.hedges_issued, 0u);
  EXPECT_EQ(outer_breaker.trips(), inner_breaker.trips());
  EXPECT_EQ(outer_breaker.rebuilds(), inner_breaker.rebuilds());
  EXPECT_EQ(breaker_outside.hedges_issued, hedged_outside.hedges_issued);
  EXPECT_EQ(breaker_outside.total_completed, hedged_outside.total_completed);
}

}  // namespace
