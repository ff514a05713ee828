// The dispatcher-decorator contract (dispatch/decorator.h).
//
// Each robustness decorator overrides only the hooks it changes; every
// other Dispatcher virtual must reach the wrapped dispatcher verbatim.
// A recording inner dispatcher pins, per decorator and per virtual,
// exactly which calls arrive below. The remaining tests pin what the
// base buys: a layer underneath a circuit breaker sees every dispatch
// outcome, a pass-through Decorator around a full stack leaves the run
// bit-identical, and find_layer() sees through decorators only.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/decorator.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "dispatch/least_load.h"
#include "dispatch/smooth_rr.h"
#include "overload/circuit_breaker.h"
#include "rng/rng.h"
#include "uncertainty/adaptive.h"
#include "util/check.h"

namespace {

using hs::dispatch::Decorator;
using hs::dispatch::Dispatcher;
using hs::dispatch::FaultAwareDispatcher;
using hs::dispatch::find_layer;
using hs::dispatch::HedgedDispatcher;
using hs::dispatch::HedgingConfig;
using hs::overload::CircuitBreakerConfig;
using hs::overload::CircuitBreakerDispatcher;
using Log = std::vector<std::string>;

constexpr size_t kMachines = 3;

/// Logs every virtual it receives. Masks natively unless told not to,
/// and accepts every re-weight.
class RecordingDispatcher final : public Dispatcher {
 public:
  explicit RecordingDispatcher(Log& log, bool native_mask = true)
      : log_(log), native_mask_(native_mask) {}

  size_t pick(hs::rng::Xoshiro256&) override { return note("pick", 0); }
  size_t pick_sized(hs::rng::Xoshiro256&, double) override {
    return note("pick_sized", 0);
  }
  size_t pick_hedge(hs::rng::Xoshiro256&, double, size_t) override {
    return note("pick_hedge", 1);
  }
  bool uses_size() const override { return note("uses_size", false); }
  void reset() override { note("reset", 0); }
  std::string name() const override { return note("name", "rec"); }
  size_t machine_count() const override {
    return note("machine_count", kMachines);
  }
  void on_arrival(double) override { note("on_arrival", 0); }
  void on_departure_report(size_t) override {
    note("on_departure_report/1", 0);
  }
  void on_departure_report(size_t, double) override {
    note("on_departure_report/2", 0);
  }
  void on_departure_report(size_t, double, double) override {
    note("on_departure_report/3", 0);
  }
  void on_load_report(size_t, uint64_t) override {
    note("on_load_report", 0);
  }
  bool uses_feedback() const override { return note("uses_feedback", false); }
  bool rebuild_fractions(std::span<const double>) override {
    return note("rebuild_fractions", true);
  }
  bool set_available_mask(const std::vector<bool>&) override {
    return note("set_available_mask", native_mask_);
  }
  void on_dispatch_result(size_t, bool, double) override {
    note("on_dispatch_result", 0);
  }
  bool uses_overload_feedback() const override {
    return note("uses_overload_feedback", false);
  }
  void on_machine_state_report(size_t, bool) override {
    note("on_machine_state_report", 0);
  }
  bool uses_fault_feedback() const override {
    return note("uses_fault_feedback", false);
  }
  size_t save_state(std::vector<double>&) const override {
    return note("save_state", size_t{0});
  }
  size_t restore_state(std::span<const double>) override {
    return note("restore_state", size_t{0});
  }

 private:
  template <typename T>
  T note(const char* call, T result) const {
    log_.push_back(call);
    return result;
  }

  Log& log_;
  bool native_mask_;
};

/// One of the 21 Dispatcher virtuals, invoked with in-range arguments.
struct Call {
  std::string name;
  std::function<void(Dispatcher&)> invoke;
};

std::vector<Call> all_virtuals() {
  static hs::rng::Xoshiro256 gen(7);
  return {
      {"pick", [](Dispatcher& d) { (void)d.pick(gen); }},
      {"pick_sized", [](Dispatcher& d) { (void)d.pick_sized(gen, 1.0); }},
      {"pick_hedge", [](Dispatcher& d) { (void)d.pick_hedge(gen, 1.0, 0); }},
      {"uses_size", [](Dispatcher& d) { (void)d.uses_size(); }},
      {"reset", [](Dispatcher& d) { d.reset(); }},
      {"name", [](Dispatcher& d) { (void)d.name(); }},
      {"machine_count", [](Dispatcher& d) { (void)d.machine_count(); }},
      {"on_arrival", [](Dispatcher& d) { d.on_arrival(1.0); }},
      {"on_departure_report/1",
       [](Dispatcher& d) { d.on_departure_report(0); }},
      {"on_departure_report/2",
       [](Dispatcher& d) { d.on_departure_report(0, 1.0); }},
      {"on_departure_report/3",
       [](Dispatcher& d) { d.on_departure_report(0, 1.0, 2.0); }},
      {"on_load_report", [](Dispatcher& d) { d.on_load_report(0, 3); }},
      {"uses_feedback", [](Dispatcher& d) { (void)d.uses_feedback(); }},
      {"rebuild_fractions",
       [](Dispatcher& d) {
         const std::vector<double> even(kMachines, 1.0 / kMachines);
         (void)d.rebuild_fractions(even);
       }},
      {"set_available_mask",
       [](Dispatcher& d) {
         (void)d.set_available_mask(std::vector<bool>(kMachines, true));
       }},
      {"on_dispatch_result",
       [](Dispatcher& d) { d.on_dispatch_result(0, true, 1.0); }},
      {"uses_overload_feedback",
       [](Dispatcher& d) { (void)d.uses_overload_feedback(); }},
      {"on_machine_state_report",
       [](Dispatcher& d) { d.on_machine_state_report(0, false); }},
      {"uses_fault_feedback",
       [](Dispatcher& d) { (void)d.uses_fault_feedback(); }},
      {"save_state",
       [](Dispatcher& d) {
         std::vector<double> out;
         (void)d.save_state(out);
       }},
      {"restore_state",
       [](Dispatcher& d) {
         // The layer's own saved prefix (the recording inner saves
         // nothing), so the restore is valid and reaches the inner.
         std::vector<double> saved;
         (void)d.save_state(saved);
         EXPECT_EQ(d.restore_state(saved), saved.size());
       }},
  };
}

using StackBuilder = std::function<std::unique_ptr<Dispatcher>(Log&)>;

/// For every virtual, build a fresh stack over a recording inner, call
/// the virtual on the decorator and compare what reached the inner with
/// `expected` (by default, exactly the call itself).
void expect_reaches_inner(const StackBuilder& build,
                          const std::map<std::string, Log>& expected) {
  const std::vector<Call> calls = all_virtuals();
  ASSERT_EQ(calls.size(), 21u);
  for (const Call& call : calls) {
    SCOPED_TRACE(call.name);
    Log log;
    auto stack = build(log);
    log.clear();  // construction talks to the inner too
    call.invoke(*stack);
    const auto it = expected.find(call.name);
    EXPECT_EQ(log, it != expected.end() ? it->second : Log{call.name});
  }
}

TEST(DecoratorContract, HedgedForwardsEveryVirtual) {
  expect_reaches_inner(
      [](Log& log) {
        return std::make_unique<HedgedDispatcher>(
            std::make_unique<RecordingDispatcher>(log), HedgingConfig{1.0});
      },
      {{"restore_state", {"save_state", "restore_state"}}});
}

TEST(DecoratorContract, FaultAwareConsumesCrashReportsAndOwnsTheMask) {
  expect_reaches_inner(
      [](Log& log) {
        return std::make_unique<FaultAwareDispatcher>(
            std::make_unique<RecordingDispatcher>(log));
      },
      {
          {"reset", {"reset", "set_available_mask"}},
          {"rebuild_fractions", {}},  // declined
          {"on_machine_state_report", {"set_available_mask"}},
          {"uses_fault_feedback", {}},
          {"restore_state",
           {"save_state", "set_available_mask", "restore_state"}},
      });
}

TEST(DecoratorContract, BreakerForwardsEveryFeedbackChannel) {
  expect_reaches_inner(
      [](Log& log) {
        return std::make_unique<CircuitBreakerDispatcher>(
            std::make_unique<RecordingDispatcher>(log),
            CircuitBreakerConfig{});
      },
      {
          {"reset", {"reset", "set_available_mask"}},
          {"rebuild_fractions", {}},  // declined
          // Forwarded, then the crash report trips the breaker.
          {"on_machine_state_report",
           {"on_machine_state_report", "set_available_mask"}},
          {"uses_overload_feedback", {}},
          {"restore_state",
           {"save_state", "set_available_mask", "restore_state"}},
      });
}

TEST(DecoratorContract, ReturnValuesOfTheOverriddenQueries) {
  Log log;
  FaultAwareDispatcher aware(std::make_unique<RecordingDispatcher>(log));
  EXPECT_TRUE(aware.uses_fault_feedback());
  EXPECT_FALSE(aware.uses_overload_feedback());
  EXPECT_TRUE(aware.set_available_mask(std::vector<bool>(kMachines, true)));
  EXPECT_FALSE(aware.rebuild_fractions(std::vector<double>(kMachines, 0.5)));
  EXPECT_EQ(aware.name(), "fault-aware(rec)");

  CircuitBreakerDispatcher breaker(std::make_unique<RecordingDispatcher>(log),
                                   CircuitBreakerConfig{});
  EXPECT_TRUE(breaker.uses_overload_feedback());
  EXPECT_FALSE(breaker.uses_fault_feedback());
  EXPECT_TRUE(breaker.set_available_mask(std::vector<bool>(kMachines, true)));
  EXPECT_FALSE(
      breaker.rebuild_fractions(std::vector<double>(kMachines, 0.5)));
  EXPECT_EQ(breaker.name(), "circuit-breaker(rec)");

  HedgedDispatcher hedged(std::make_unique<RecordingDispatcher>(log),
                          HedgingConfig{1.0});
  EXPECT_TRUE(hedged.rebuild_fractions(std::vector<double>(kMachines, 0.5)));
  EXPECT_EQ(hedged.name(), "hedged(rec)");
}

TEST(DecoratorContract, SurvivorModeReweightsThroughRebuildFractions) {
  const hs::dispatch::Reweighter even = [](const std::vector<bool>& mask,
                                           std::vector<double>& fractions) {
    fractions.assign(mask.size(), 0.0);
    size_t up = 0;
    for (const bool m : mask) {
      up += m ? 1 : 0;
    }
    for (size_t i = 0; i < mask.size(); ++i) {
      fractions[i] = mask[i] ? 1.0 / static_cast<double>(up) : 0.0;
    }
  };
  Log log;
  FaultAwareDispatcher aware(
      std::make_unique<RecordingDispatcher>(log, /*native_mask=*/false),
      even);
  log.clear();
  aware.on_machine_state_report(1, false);
  EXPECT_EQ(log, (Log{"rebuild_fractions"}));
  EXPECT_EQ(aware.rebuilds(), 1u);

  CircuitBreakerConfig config;
  config.trip_threshold = 1;
  CircuitBreakerDispatcher breaker(
      std::make_unique<RecordingDispatcher>(log, /*native_mask=*/false),
      config, even);
  log.clear();
  breaker.on_dispatch_result(2, false, 1.0);
  EXPECT_EQ(log, (Log{"on_dispatch_result", "rebuild_fractions"}));
  EXPECT_EQ(breaker.rebuilds(), 1u);

  // Over an inner that cannot mask, a masking decorator needs a
  // reweighter; every decorator needs an inner.
  EXPECT_THROW(FaultAwareDispatcher(std::make_unique<RecordingDispatcher>(
                   log, /*native_mask=*/false)),
               hs::util::CheckError);
  EXPECT_THROW(HedgedDispatcher(nullptr, HedgingConfig{}),
               hs::util::CheckError);
}

// A governed adaptive core under a breaker must see the same dispatch
// outcomes as a bare one: a rejected dispatch never entered service, so
// the core undoes its busy time (EstimatorBank::forget_dispatch).
TEST(DecoratorContract, BreakerForwardsOutcomesToTheGovernedCore) {
  const std::vector<double> speeds = {1.0, 2.0, 4.0, 8.0};
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  auto bare = hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kORR,
                                                 speeds, 0.7, options);
  CircuitBreakerConfig never_trips;
  never_trips.trip_threshold = 1000;
  CircuitBreakerDispatcher breaker(
      hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kORR, speeds,
                                         0.7, options),
      never_trips);
  hs::rng::Xoshiro256 bare_gen(5);
  hs::rng::Xoshiro256 breaker_gen(5);
  for (int i = 0; i < 40; ++i) {
    const double now = 0.25 * i;
    bare->on_arrival(now);
    breaker.on_arrival(now);
    const size_t machine = bare->pick(bare_gen);
    ASSERT_EQ(breaker.pick(breaker_gen), machine) << "pick " << i;
    const bool accepted = i % 3 != 2;
    bare->on_dispatch_result(machine, accepted, now);
    breaker.on_dispatch_result(machine, accepted, now);
  }
  std::vector<double> bare_state;
  std::vector<double> core_state;
  (void)bare->save_state(bare_state);
  auto* core =
      find_layer<hs::uncertainty::GovernedAdaptiveDispatcher>(breaker);
  ASSERT_NE(core, nullptr);
  (void)core->save_state(core_state);
  EXPECT_EQ(core_state, bare_state);
}

/// Overrides nothing but its name: the shape of a timing or tracing
/// wrapper that must stay invisible to the simulator.
class PassThrough final : public Decorator {
 public:
  explicit PassThrough(std::unique_ptr<Dispatcher> inner)
      : Decorator(std::move(inner)) {}
  [[nodiscard]] std::string name() const override {
    return "pass-through(" + inner().name() + ")";
  }
};

std::unique_ptr<Dispatcher> full_stack(const std::vector<double>& speeds,
                                       double rho) {
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  options.time_constant = 200.0;
  options.reestimate_every = 64;
  options.governor.min_dwell = 100.0;
  return std::make_unique<CircuitBreakerDispatcher>(
      std::make_unique<HedgedDispatcher>(
          std::make_unique<FaultAwareDispatcher>(
              hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kORR,
                                                 speeds, rho, options)),
          HedgingConfig{2.0}),
      CircuitBreakerConfig{});
}

void expect_identical(const hs::cluster::SimulationResult& a,
                      const hs::cluster::SimulationResult& b) {
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.mean_response_ratio, b.mean_response_ratio);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.response_ratio_p95, b.response_ratio_p95);
  EXPECT_EQ(a.response_ratio_p99, b.response_ratio_p99);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.dispatched_jobs, b.dispatched_jobs);
  EXPECT_EQ(a.machine_fractions, b.machine_fractions);
  EXPECT_EQ(a.machine_utilizations, b.machine_utilizations);
  EXPECT_EQ(a.deviations, b.deviations);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.jobs_lost, b.jobs_lost);
  EXPECT_EQ(a.jobs_retried, b.jobs_retried);
  EXPECT_EQ(a.jobs_dropped, b.jobs_dropped);
  EXPECT_EQ(a.goodput, b.goodput);
  EXPECT_EQ(a.machine_downtime, b.machine_downtime);
  EXPECT_EQ(a.mean_response_by_attempts, b.mean_response_by_attempts);
  EXPECT_EQ(a.jobs_rejected, b.jobs_rejected);
  EXPECT_EQ(a.jobs_shed, b.jobs_shed);
  EXPECT_EQ(a.retry_budget_denied, b.retry_budget_denied);
  EXPECT_EQ(a.msgs_lost, b.msgs_lost);
  EXPECT_EQ(a.msgs_duplicated, b.msgs_duplicated);
  EXPECT_EQ(a.hedges_issued, b.hedges_issued);
  EXPECT_EQ(a.hedges_won, b.hedges_won);
  EXPECT_EQ(a.hedges_cancelled, b.hedges_cancelled);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.response_time_p99, b.response_time_p99);
  EXPECT_EQ(a.realloc_commits, b.realloc_commits);
  EXPECT_EQ(a.realloc_rejected, b.realloc_rejected);
  EXPECT_EQ(a.governor_freezes, b.governor_freezes);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.total_completed, b.total_completed);
  EXPECT_EQ(a.total_shed, b.total_shed);
  EXPECT_EQ(a.total_dropped, b.total_dropped);
  EXPECT_EQ(a.in_flight_at_end, b.in_flight_at_end);
}

TEST(DecoratorContract, PassThroughWrapperLeavesTheRunBitIdentical) {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 1.0, 2.0, 4.0};
  config.rho = 0.8;
  config.sim_time = 3000.0;
  config.warmup_frac = 0.1;
  config.seed = 3;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.faults.processes.assign(config.speeds.size(), {600.0, 60.0});
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 0.5;
  config.overload.queue_capacity = 8;
  config.network.heartbeat.interval = 1.0;
  config.network.heartbeat.phi_threshold = 3.0;

  auto bare = full_stack(config.speeds, config.rho);
  const auto expected = hs::cluster::run_simulation(config, *bare);
  PassThrough wrapped(full_stack(config.speeds, config.rho));
  const auto actual = hs::cluster::run_simulation(config, wrapped);

  EXPECT_GT(expected.hedges_issued, 0u);
  EXPECT_GT(expected.jobs_lost, 0u);
  EXPECT_GT(expected.jobs_rejected, 0u);
  EXPECT_GT(expected.suspicions, 0u);
  expect_identical(actual, expected);
}

TEST(DecoratorContract, FindLayerReturnsTheOutermostMatch) {
  const std::vector<double> speeds = {1.0, 2.0};
  auto inner_breaker = std::make_unique<CircuitBreakerDispatcher>(
      std::make_unique<hs::dispatch::LeastLoadDispatcher>(speeds),
      CircuitBreakerConfig{});
  const CircuitBreakerDispatcher* inner_ptr = inner_breaker.get();
  CircuitBreakerDispatcher outer(
      std::make_unique<HedgedDispatcher>(std::move(inner_breaker),
                                         HedgingConfig{1.0}),
      CircuitBreakerConfig{});
  EXPECT_EQ(find_layer<CircuitBreakerDispatcher>(outer), &outer);
  auto* hedged = find_layer<HedgedDispatcher>(outer);
  ASSERT_NE(hedged, nullptr);
  EXPECT_EQ(find_layer<CircuitBreakerDispatcher>(*hedged), inner_ptr);
  EXPECT_NE(find_layer<hs::dispatch::LeastLoadDispatcher>(outer), nullptr);
  EXPECT_EQ(find_layer<FaultAwareDispatcher>(outer), nullptr);
}

TEST(DecoratorContract, FindLayerStopsAtANonDecorator) {
  // The governed dispatcher owns an inner round-robin, but it is not a
  // Decorator: the walk ends there and never reaches its internals.
  const std::vector<double> speeds = {1.0, 2.0};
  HedgedDispatcher hedged(
      hs::core::make_adaptive_dispatcher(hs::core::PolicyKind::kORR, speeds,
                                         0.5),
      HedgingConfig{1.0});
  EXPECT_NE(find_layer<hs::uncertainty::GovernedAdaptiveDispatcher>(hedged),
            nullptr);
  EXPECT_EQ(find_layer<hs::dispatch::SmoothRoundRobinDispatcher>(hedged),
            nullptr);
  hs::dispatch::LeastLoadDispatcher bare(speeds);
  EXPECT_EQ(find_layer<HedgedDispatcher>(bare), nullptr);
}

}  // namespace
