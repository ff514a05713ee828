// Unit tests for the fault-injection layer: config validation, timeline
// expansion, server eviction, and failure-aware dispatching.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/optimized.h"
#include "alloc/scheme.h"
#include "cluster/faults.h"
#include "core/adaptive.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "dispatch/least_load.h"
#include "dispatch/random_dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "queueing/fcfs_server.h"
#include "queueing/ps_server.h"
#include "queueing/rr_server.h"
#include "rng/rng.h"
#include "sim/simulator.h"
#include "uncertainty/adaptive.h"
#include "util/check.h"
#include "util/math_util.h"

namespace {

using namespace hs::cluster;
using hs::core::AdaptiveOrrDispatcher;
using hs::core::PolicyKind;
using hs::dispatch::FaultAwareDispatcher;
using hs::dispatch::LeastLoadDispatcher;
using hs::util::CheckError;

std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

// ---- RetryPolicy / FaultConfig validation ----

TEST(RetryPolicy, DefaultsValid) {
  EXPECT_NO_THROW(RetryPolicy{}.validate());
}

// Per-field rejection coverage (NaN/Inf/negative/zero sweeps) lives in
// test_config_validation.cpp.

TEST(FaultConfig, DisabledByDefault) {
  FaultConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_NO_THROW(config.validate(3, 100.0));
}

TEST(FaultConfig, EnabledByOutageOrProcess) {
  FaultConfig config;
  config.outages.push_back({10.0, 5.0, 0});
  EXPECT_TRUE(config.enabled());

  FaultConfig stochastic;
  stochastic.processes.assign(2, {0.0, 0.0});
  EXPECT_FALSE(stochastic.enabled());  // mtbf 0 disables the process
  stochastic.processes[1] = {100.0, 10.0};
  EXPECT_TRUE(stochastic.enabled());
}

TEST(FaultConfig, ValidationNamesBadEntry) {
  FaultConfig config;
  config.outages.push_back({10.0, 5.0, 0});
  config.outages.push_back({20.0, 5.0, 7});  // machine out of range
  const std::string msg =
      error_message([&] { config.validate(3, 100.0); });
  EXPECT_NE(msg.find("outages[1]"), std::string::npos) << msg;

  FaultConfig late;
  late.outages.push_back({500.0, 5.0, 0});  // start beyond sim_time
  EXPECT_THROW(late.validate(3, 100.0), CheckError);

  FaultConfig zero;
  zero.outages.push_back({10.0, 0.0, 0});  // empty outage
  EXPECT_THROW(zero.validate(3, 100.0), CheckError);

  FaultConfig sized;
  sized.processes.assign(2, {100.0, 10.0});  // 2 entries, 3 machines
  EXPECT_THROW(sized.validate(3, 100.0), CheckError);

  FaultConfig no_repair;
  no_repair.processes.assign(1, {100.0, 0.0});  // crash but never recover
  const std::string repair_msg =
      error_message([&] { no_repair.validate(1, 100.0); });
  EXPECT_NE(repair_msg.find("processes[0]"), std::string::npos) << repair_msg;
}

// ---- Timeline expansion ----

TEST(FaultTimeline, ScriptedOutageExpandsToEdgePair) {
  FaultConfig config;
  config.outages.push_back({10.0, 5.0, 1});
  const auto timeline = build_fault_timeline(config, 3, 100.0, 42);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].time, 10.0);
  EXPECT_EQ(timeline[0].machine, 1u);
  EXPECT_FALSE(timeline[0].up);
  EXPECT_DOUBLE_EQ(timeline[1].time, 15.0);
  EXPECT_TRUE(timeline[1].up);
}

TEST(FaultTimeline, RecoveryBeyondHorizonDropped) {
  FaultConfig config;
  config.outages.push_back({90.0, 50.0, 0});  // recovery at 140 > horizon
  const auto timeline = build_fault_timeline(config, 1, 100.0, 42);
  ASSERT_EQ(timeline.size(), 1u);
  EXPECT_FALSE(timeline[0].up);
}

TEST(FaultTimeline, OverlappingOutagesMerge) {
  FaultConfig config;
  config.outages.push_back({10.0, 10.0, 0});  // [10, 20)
  config.outages.push_back({15.0, 10.0, 0});  // [15, 25) — overlaps
  config.outages.push_back({25.0, 5.0, 0});   // [25, 30) — adjacent
  const auto timeline = build_fault_timeline(config, 1, 100.0, 42);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].time, 10.0);
  EXPECT_FALSE(timeline[0].up);
  EXPECT_DOUBLE_EQ(timeline[1].time, 30.0);
  EXPECT_TRUE(timeline[1].up);
}

TEST(FaultTimeline, StochasticDeterministicInSeed) {
  FaultConfig config;
  config.processes.assign(4, {200.0, 20.0});
  const auto a = build_fault_timeline(config, 4, 50000.0, 7);
  const auto b = build_fault_timeline(config, 4, 50000.0, 7);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].machine, b[i].machine);
    EXPECT_EQ(a[i].up, b[i].up);
  }
  const auto c = build_fault_timeline(config, 4, 50000.0, 8);
  bool any_difference = c.size() != a.size();
  for (size_t i = 0; !any_difference && i < a.size(); ++i) {
    any_difference = a[i].time != c[i].time;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultTimeline, PerMachineEventsAlternateWithinHorizon) {
  FaultConfig config;
  config.processes.assign(3, {100.0, 30.0});
  config.outages.push_back({50.0, 25.0, 1});
  const double horizon = 10000.0;
  const auto timeline = build_fault_timeline(config, 3, horizon, 11);
  ASSERT_GT(timeline.size(), 0u);
  std::vector<bool> down(3, false);
  double last_time = 0.0;
  for (const FaultEvent& event : timeline) {
    EXPECT_GE(event.time, last_time);  // sorted
    last_time = event.time;
    EXPECT_LE(event.time, horizon);
    ASSERT_LT(event.machine, 3u);
    // Strict alternation: crash only while up, recovery only while down.
    EXPECT_EQ(event.up, down[event.machine]);
    down[event.machine] = !event.up;
  }
}

TEST(FaultTimeline, DowntimeFromTimeline) {
  std::vector<FaultEvent> timeline = {
      {10.0, 0, false}, {15.0, 0, true},   // 5 s down
      {20.0, 1, false},                    // down through horizon: 80 s
      {30.0, 0, false}, {40.0, 0, true},   // 10 s down
  };
  const auto downtime = downtime_from_timeline(timeline, 3, 100.0);
  ASSERT_EQ(downtime.size(), 3u);
  EXPECT_DOUBLE_EQ(downtime[0], 15.0);
  EXPECT_DOUBLE_EQ(downtime[1], 80.0);
  EXPECT_DOUBLE_EQ(downtime[2], 0.0);
}

// ---- Server eviction ----

hs::queueing::Job make_job(uint64_t id, double size) {
  hs::queueing::Job job;
  job.id = id;
  job.arrival_time = 0.0;
  job.size = size;
  return job;
}

TEST(Eviction, PsServerDrainsAllResidentJobs) {
  hs::sim::Simulator simulator;
  hs::queueing::PsServer server(simulator, 1.0, 0);
  server.arrive(make_job(1, 5.0));
  server.arrive(make_job(2, 3.0));
  std::vector<hs::queueing::Job> lost;
  server.evict_all(lost);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(server.queue_length(), 0u);
  // No departure event survives the eviction.
  simulator.run_all();
  EXPECT_EQ(simulator.events_fired(), 0u);
}

TEST(Eviction, FcfsServerDrainsServiceAndQueue) {
  hs::sim::Simulator simulator;
  hs::queueing::FcfsServer server(simulator, 1.0, 0);
  server.arrive(make_job(1, 5.0));
  server.arrive(make_job(2, 3.0));
  server.arrive(make_job(3, 1.0));
  std::vector<hs::queueing::Job> lost;
  server.evict_all(lost);
  ASSERT_EQ(lost.size(), 3u);
  EXPECT_EQ(lost[0].id, 1u);  // in-service job first
  EXPECT_EQ(server.queue_length(), 0u);
  simulator.run_all();
  EXPECT_EQ(simulator.events_fired(), 0u);
}

TEST(Eviction, RrServerDrainsReadyRing) {
  hs::sim::Simulator simulator;
  hs::queueing::RrServer server(simulator, 1.0, 0, 0.1);
  server.arrive(make_job(1, 5.0));
  server.arrive(make_job(2, 3.0));
  std::vector<hs::queueing::Job> lost;
  server.evict_all(lost);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(server.queue_length(), 0u);
  simulator.run_all();
  EXPECT_EQ(simulator.events_fired(), 0u);
}

// ---- FaultAwareDispatcher ----

TEST(FaultAware, RebuildModeBlacklistsAndRestores) {
  // ORR over three machines; crash machine 2 (the fastest).
  const std::vector<double> speeds = {1.0, 1.0, 4.0};
  auto dispatcher =
      hs::core::make_fault_aware_dispatcher(PolicyKind::kORR, speeds, 0.6);
  auto* aware = dynamic_cast<FaultAwareDispatcher*>(dispatcher.get());
  ASSERT_NE(aware, nullptr);
  EXPECT_TRUE(aware->uses_fault_feedback());
  EXPECT_EQ(aware->machine_count(), 3u);

  hs::rng::Xoshiro256 gen(3);
  aware->on_machine_state_report(2, /*up=*/false);
  EXPECT_EQ(aware->down_count(), 1u);
  EXPECT_EQ(aware->rebuilds(), 1u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_NE(aware->pick(gen), 2u);
  }

  // Duplicate report is a no-op.
  aware->on_machine_state_report(2, /*up=*/false);
  EXPECT_EQ(aware->rebuilds(), 1u);

  aware->on_machine_state_report(2, /*up=*/true);
  EXPECT_EQ(aware->down_count(), 0u);
  EXPECT_EQ(aware->rebuilds(), 2u);
  bool fast_used = false;
  for (int i = 0; i < 200 && !fast_used; ++i) {
    fast_used = aware->pick(gen) == 2u;
  }
  EXPECT_TRUE(fast_used);
}

TEST(FaultAware, AllDownKeepsRouting) {
  const std::vector<double> speeds = {1.0, 2.0};
  auto dispatcher =
      hs::core::make_fault_aware_dispatcher(PolicyKind::kWRAN, speeds, 0.5);
  auto* aware = dynamic_cast<FaultAwareDispatcher*>(dispatcher.get());
  ASSERT_NE(aware, nullptr);
  aware->on_machine_state_report(0, false);
  const uint64_t rebuilds_after_first = aware->rebuilds();
  aware->on_machine_state_report(1, false);
  // No survivors: the decorator keeps the previous routing instead of
  // rebuilding over an empty set; picks stay in range (the fault layer
  // loses and retries whatever lands on a dead machine).
  EXPECT_EQ(aware->rebuilds(), rebuilds_after_first);
  hs::rng::Xoshiro256 gen(4);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(aware->pick(gen), 2u);
  }
}

TEST(FaultAware, ResetRestoresFullAvailability) {
  const std::vector<double> speeds = {1.0, 1.0};
  auto dispatcher =
      hs::core::make_fault_aware_dispatcher(PolicyKind::kORR, speeds, 0.5);
  auto* aware = dynamic_cast<FaultAwareDispatcher*>(dispatcher.get());
  ASSERT_NE(aware, nullptr);
  aware->on_machine_state_report(0, false);
  EXPECT_EQ(aware->down_count(), 1u);
  aware->reset();
  EXPECT_EQ(aware->down_count(), 0u);
  hs::rng::Xoshiro256 gen(5);
  bool slow_used = false;
  for (int i = 0; i < 50 && !slow_used; ++i) {
    slow_used = aware->pick(gen) == 0u;
  }
  EXPECT_TRUE(slow_used);
}

TEST(FaultAware, NativeMaskModeForLeastLoad) {
  const std::vector<double> speeds = {1.0, 1.0, 1.0};
  auto dispatcher = hs::core::make_fault_aware_dispatcher(
      PolicyKind::kLeastLoad, speeds, 0.5);
  auto* aware = dynamic_cast<FaultAwareDispatcher*>(dispatcher.get());
  ASSERT_NE(aware, nullptr);
  EXPECT_TRUE(aware->uses_feedback());
  hs::rng::Xoshiro256 gen(6);
  aware->on_machine_state_report(1, false);
  EXPECT_EQ(aware->rebuilds(), 0u);  // masked natively, no rebuild
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(aware->pick(gen), 1u);
  }
  aware->on_machine_state_report(1, true);
  bool restored = false;
  for (int i = 0; i < 100 && !restored; ++i) {
    restored = aware->pick(gen) == 1u;
  }
  EXPECT_TRUE(restored);
}

TEST(FaultAware, NameReflectsInner) {
  auto dispatcher =
      hs::core::make_fault_aware_dispatcher(PolicyKind::kORR, {1.0, 2.0}, 0.5);
  EXPECT_EQ(dispatcher->name(), "fault-aware(round-robin)");
}

// ---- LeastLoad native mask ----

TEST(LeastLoadMask, CrashZeroesEstimatesAndBlacklists) {
  LeastLoadDispatcher d({1.0, 1.0});
  hs::rng::Xoshiro256 gen(7);
  (void)d.pick(gen);
  (void)d.pick(gen);
  EXPECT_EQ(d.estimated_queue(0), 1u);
  EXPECT_EQ(d.estimated_queue(1), 1u);
  EXPECT_TRUE(d.set_available_mask({true, false}));
  EXPECT_EQ(d.estimated_queue(1), 0u);  // resident jobs died with the crash
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(d.pick(gen), 0u);
  }
  // A departure report for a pre-crash job arrives late: ignored.
  EXPECT_NO_THROW(d.on_departure_report(1));
  EXPECT_EQ(d.estimated_queue(1), 0u);
  d.set_available_mask({true, true});
  EXPECT_EQ(d.pick(gen), 1u);  // recovered machine is empty → preferred
}

TEST(LeastLoadMask, AllDownFallsBackToAllMachines) {
  LeastLoadDispatcher d({1.0, 1.0});
  hs::rng::Xoshiro256 gen(8);
  EXPECT_TRUE(d.set_available_mask({false, false}));
  EXPECT_LT(d.pick(gen), 2u);  // still routes somewhere
}

// ---- AdaptiveORR native mask ----

TEST(AdaptiveMask, MaskedMachineGetsZeroAllocation) {
  AdaptiveOrrDispatcher d({1.0, 1.0, 4.0});
  const uint64_t arrivals_before = d.estimator().observed();
  EXPECT_TRUE(d.set_available_mask({true, false, true}));
  EXPECT_EQ(d.estimator().observed(), arrivals_before);
  const auto& fractions = d.allocation().fractions();
  ASSERT_EQ(fractions.size(), 3u);
  EXPECT_EQ(fractions[1], 0.0);
  EXPECT_GT(fractions[2], 0.0);
  // ρ̂ machinery stays sane: assumed load within the configured clamp.
  EXPECT_GE(d.assumed_rho(), 0.02);
  EXPECT_LE(d.assumed_rho(), 0.98);
  hs::rng::Xoshiro256 gen(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(d.pick(gen), 1u);
  }
  EXPECT_TRUE(d.set_available_mask({true, true, true}));
  EXPECT_GT(d.allocation().fractions()[1], 0.0);
}

TEST(AdaptiveMask, AllFalseTreatedAsAllTrue) {
  AdaptiveOrrDispatcher d({1.0, 2.0});
  EXPECT_TRUE(d.set_available_mask({false, false}));
  EXPECT_GT(d.allocation().fractions()[0], 0.0);
  EXPECT_GT(d.allocation().fractions()[1], 0.0);
}

// ---- Masked allocation ----

TEST(MaskedAllocation, AllTrueMatchesUnmasked) {
  const std::vector<double> speeds = {1.0, 2.0, 5.0};
  const auto plain =
      hs::core::policy_allocation(PolicyKind::kORR, speeds, 0.7);
  const auto masked = hs::core::policy_allocation_masked(
      PolicyKind::kORR, speeds, 0.7, {true, true, true});
  ASSERT_EQ(masked.size(), plain.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(masked[i], plain[i]);
  }
}

TEST(MaskedAllocation, SurvivorsAbsorbFullLoad) {
  const std::vector<double> speeds = {1.0, 1.0, 2.0};
  const auto masked = hs::core::policy_allocation_masked(
      PolicyKind::kORR, speeds, 0.5, {true, true, false});
  EXPECT_DOUBLE_EQ(masked[2], 0.0);
  EXPECT_GT(masked[0] + masked[1], 0.999999);
  // Survivor utilization reflects the degraded effective load: with the
  // speed-2 machine gone, ρ_eff = 0.5·4/2 = 1 clamped below 1, so the
  // allocation must remain valid (non-negative, sums to 1).
  EXPECT_GE(masked[0], 0.0);
  EXPECT_GE(masked[1], 0.0);
}

TEST(MaskedAllocation, HighLoadClampDoesNotThrow)
{
  // Killing most of the capacity pushes effective ρ far beyond 1; the
  // clamp keeps Algorithm 1 well-defined.
  const std::vector<double> speeds = {1.0, 10.0, 10.0};
  EXPECT_NO_THROW({
    const auto masked = hs::core::policy_allocation_masked(
        PolicyKind::kORR, speeds, 0.9, {true, false, false});
    EXPECT_DOUBLE_EQ(masked[0], 1.0);
  });
}

// ---- Survivor reallocation: the in-place path against its reference ----
//
// policy_allocation_masked() is the reference; the decorators re-weight
// in place through policy_fractions_masked_into(). Both must agree bit
// for bit on every mask of a 5-machine cluster, and a stack re-weighted
// in place must route exactly like a dispatcher built fresh over the
// reference allocation.

const std::vector<double> kFiveSpeeds = {1.0, 2.0, 3.0, 5.0, 8.0};

std::vector<bool> mask_of(uint32_t bits) {
  std::vector<bool> mask(kFiveSpeeds.size());
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = ((bits >> i) & 1u) != 0;
  }
  return mask;
}

TEST(MaskedAllocation, InPlaceFractionsMatchReferenceBitForBit) {
  hs::core::MaskedReweightScratch scratch;
  std::vector<double> fractions;
  for (const PolicyKind kind : hs::core::static_policies()) {
    for (const double rho : {0.3, 0.7, 0.95}) {
      for (uint32_t bits = 0; bits < 32; ++bits) {
        const std::vector<bool> mask = mask_of(bits);
        hs::core::policy_fractions_masked_into(kind, kFiveSpeeds, rho, mask,
                                               1.0, fractions, scratch);
        const hs::alloc::Allocation in_place(fractions);
        const hs::alloc::Allocation reference =
            hs::core::policy_allocation_masked(kind, kFiveSpeeds, rho, mask);
        ASSERT_EQ(in_place.size(), reference.size());
        for (size_t i = 0; i < reference.size(); ++i) {
          EXPECT_EQ(std::bit_cast<uint64_t>(in_place[i]),
                    std::bit_cast<uint64_t>(reference[i]))
              << hs::core::policy_name(kind) << " rho " << rho << " mask "
              << bits << " machine " << i;
        }
      }
    }
  }
}

// The adaptive dispatchers' survivor re-solves against the same
// construct-and-expand chain: solve the survivors at the clamped
// survivor-effective ρ, expand with zeros, construct.
hs::alloc::Allocation survivor_reference(
    const hs::alloc::AllocationScheme& scheme, const std::vector<bool>& mask,
    double assumed, double lo, double hi, double& effective) {
  std::vector<double> survivors;
  for (size_t i = 0; i < kFiveSpeeds.size(); ++i) {
    if (mask[i]) {
      survivors.push_back(kFiveSpeeds[i]);
    }
  }
  effective = std::clamp(assumed * hs::util::kahan_sum(kFiveSpeeds) /
                             hs::util::kahan_sum(survivors),
                         lo, hi);
  const hs::alloc::Allocation solved = scheme.compute(survivors, effective);
  std::vector<double> expanded(kFiveSpeeds.size(), 0.0);
  size_t next = 0;
  for (size_t i = 0; i < kFiveSpeeds.size(); ++i) {
    if (mask[i]) {
      expanded[i] = solved[next++];
    }
  }
  return hs::alloc::Allocation(std::move(expanded));
}

void expect_bits_equal(const hs::alloc::Allocation& got,
                       const hs::alloc::Allocation& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got[i]), std::bit_cast<uint64_t>(want[i]))
        << label << " machine " << i;
  }
}

TEST(MaskedAllocation, AdaptiveSurvivorSolvesMatchReferenceBitForBit) {
  const hs::alloc::OptimizedAllocation optimized;
  const hs::alloc::WeightedAllocation weighted;
  for (const double rho : {0.3, 0.7, 0.95}) {
    // Every restricting mask: some machines down, not all.
    for (uint32_t bits = 1; bits < 31; ++bits) {
      const std::vector<bool> mask = mask_of(bits);
      const std::string label =
          "rho " + std::to_string(rho) + " mask " + std::to_string(bits);
      for (const auto scheme : {hs::uncertainty::AdaptiveScheme::kOptimized,
                                hs::uncertainty::AdaptiveScheme::kWeighted}) {
        hs::uncertainty::AdaptiveOptions options;
        options.scheme = scheme;
        hs::uncertainty::GovernedAdaptiveDispatcher governed(kFiveSpeeds, rho,
                                                             options);
        ASSERT_TRUE(governed.set_available_mask(mask));
        const double assumed = std::clamp(rho * options.safety_factor,
                                          options.min_rho, options.max_rho);
        double effective = 0.0;
        const hs::alloc::Allocation want = survivor_reference(
            scheme == hs::uncertainty::AdaptiveScheme::kOptimized
                ? static_cast<const hs::alloc::AllocationScheme&>(optimized)
                : weighted,
            mask, assumed, options.min_rho, options.max_rho, effective);
        expect_bits_equal(governed.allocation(), want, "governed " + label);
        EXPECT_EQ(governed.assumed_rho(), effective) << label;
      }
      hs::core::AdaptiveOrrOptions orr_options;
      orr_options.initial_rho = rho;
      AdaptiveOrrDispatcher orr(kFiveSpeeds, orr_options);
      ASSERT_TRUE(orr.set_available_mask(mask));
      const double assumed =
          std::clamp(rho * orr_options.safety_factor, orr_options.min_rho,
                     orr_options.max_rho);
      double effective = 0.0;
      expect_bits_equal(orr.allocation(),
                        survivor_reference(optimized, mask, assumed,
                                           orr_options.min_rho,
                                           orr_options.max_rho, effective),
                        "adaptive-orr " + label);
    }
  }
}

TEST(MaskedAllocation, InPlaceReweightPicksMatchFreshRebuild) {
  const double rho = 0.7;
  const auto fresh = [rho](PolicyKind kind, hs::dispatch::SamplerKind sampler,
                           const std::vector<bool>& mask)
      -> std::unique_ptr<hs::dispatch::Dispatcher> {
    hs::alloc::Allocation allocation =
        hs::core::policy_allocation_masked(kind, kFiveSpeeds, rho, mask);
    if (kind == PolicyKind::kORR) {
      return std::make_unique<hs::dispatch::SmoothRoundRobinDispatcher>(
          std::move(allocation));
    }
    return std::make_unique<hs::dispatch::RandomDispatcher>(
        std::move(allocation), sampler);
  };
  for (const auto& [kind, sampler] :
       {std::pair{PolicyKind::kORR, hs::dispatch::SamplerKind::kCdf},
        std::pair{PolicyKind::kORAN, hs::dispatch::SamplerKind::kAlias}}) {
    auto stack = hs::core::make_fault_aware_dispatcher(kind, kFiveSpeeds, rho,
                                                       1.0, sampler);
    std::unique_ptr<hs::dispatch::Dispatcher> reference;
    hs::rng::Xoshiro256 stack_gen(17);
    hs::rng::Xoshiro256 reference_gen(17);
    // All-true first, all-false last: with no machine routable the stack
    // keeps its previous routing, so the previous reference continues.
    for (int bits = 31; bits >= 0; --bits) {
      const std::vector<bool> mask = mask_of(static_cast<uint32_t>(bits));
      EXPECT_TRUE(stack->set_available_mask(mask));
      if (bits != 0) {
        reference = fresh(kind, sampler, mask);
      }
      for (int i = 0; i < 10000; ++i) {
        ASSERT_EQ(stack->pick(stack_gen), reference->pick(reference_gen))
            << hs::core::policy_name(kind) << " mask " << bits << " pick "
            << i;
      }
    }
  }
}

}  // namespace
