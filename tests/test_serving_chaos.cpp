// Deterministic chaos harness for the fault-tolerant serving runtime.
//
// Every scenario scripts a failure on a ManualClock — kill (drop
// releases), stall (release late), partition (stop heartbeats), revive
// — and asserts the serving invariants after each step:
//
//  * conservation: acquired − released == requests actually held;
//  * detection: a dead backend is Suspect within its deadline budget
//    (release_deadline × timeout_threshold + tick cadence) and receives
//    no picks afterwards;
//  * re-admission: a revived backend is routable again after one
//    success signal;
//  * degradation: brownout/fail-static/never-empty engage and disengage
//    exactly at their configured boundaries;
//  * persistence: snapshot → save → load → restore resumes the session
//    bit-identically, and corrupted HSTRACE1, HSSNAP1 and HSSCHED1 files
//    are rejected cleanly.
//
// Scenarios are deterministic (fixed seeds, scripted clocks). The one
// randomized soak reads HS_CHAOS_SEED from the environment (CI passes a
// random seed and logs it) so a failure is reproducible by exporting
// the logged seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/allocation.h"
#include "core/policy.h"
#include "dispatch/decorator.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "dispatch/least_load.h"
#include "dispatch/random_dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "explore/schedule.h"
#include "obs/trace.h"
#include "overload/admission.h"
#include "rng/rng.h"
#include "serving/clock.h"
#include "serving/health.h"
#include "serving/serving_dispatcher.h"
#include "serving/snapshot.h"
#include "serving/trace_io.h"
#include "uncertainty/adaptive.h"
#include "util/check.h"
#include "util/env.h"

namespace {

using hs::serving::ManualClock;
using hs::serving::MachineHealth;
using hs::serving::ServingConfig;
using hs::serving::ServingDispatcher;
using hs::serving::ServingSnapshot;
using hs::serving::ServingStatus;

const std::vector<double> kSpeeds{1.0, 2.0, 4.0, 8.0};

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "hs_chaos_" + name;
}

/// FaultAware (survivor reallocation) over equal-fraction random
/// dispatch: the policy keeps sending traffic to a dead backend until a
/// health transition masks it out — exactly the stack that needs
/// detection.
std::unique_ptr<hs::dispatch::Dispatcher> make_fault_aware_random() {
  auto equal_shares = [](const std::vector<bool>& available,
                         std::vector<double>& fractions) {
    size_t up = 0;
    for (const bool a : available) {
      up += a ? 1 : 0;
    }
    fractions.assign(available.size(), 0.0);
    for (size_t i = 0; i < available.size(); ++i) {
      fractions[i] = available[i] ? 1.0 / static_cast<double>(up) : 0.0;
    }
  };
  std::vector<double> fractions;
  equal_shares(std::vector<bool>(kSpeeds.size(), true), fractions);
  return std::make_unique<hs::dispatch::FaultAwareDispatcher>(
      std::make_unique<hs::dispatch::RandomDispatcher>(
          hs::alloc::Allocation(std::move(fractions))),
      equal_shares);
}

// ---- Detection ----------------------------------------------------------

TEST(ChaosDetectionTest, KilledBackendIsSuspectedAndRoutedAround) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.seed = 42;
  config.clock = &clock;
  config.health.release_deadline = 1.0;
  config.health.timeout_threshold = 3;
  ServingDispatcher serving(*stack, config);

  constexpr size_t kVictim = 2;
  uint64_t held_on_victim = 0;
  double suspected_at = -1.0;
  double victim_last_sent = -1.0;
  // 0.05 s arrival cadence; the victim never releases. Suspicion must
  // land within the detection budget: three victim deadlines must
  // expire, so at most (3 gaps between victim picks) + release_deadline
  // after the third pick. With p = 1/4 per pick the victim collects its
  // third request quickly; assert the hard bound against the scripted
  // timeline below instead of a probabilistic one.
  for (int i = 0; i < 400; ++i) {
    clock.advance(0.05);
    const size_t machine = serving.acquire(1.0);
    if (serving.health()->state(kVictim) == MachineHealth::kSuspect &&
        suspected_at < 0.0) {
      suspected_at = clock.now();
    }
    if (machine == kVictim) {
      if (suspected_at >= 0.0) {
        // Never-empty is off and three machines are healthy: a pick on
        // the suspect after detection is a routing bug.
        ADD_FAILURE() << "pick landed on suspected machine at t="
                      << clock.now();
      }
      ++held_on_victim;
      victim_last_sent = clock.now();
    } else {
      ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
    }
  }

  ASSERT_GE(held_on_victim, 3u) << "script never exercised the victim";
  ASSERT_GT(suspected_at, 0.0) << "victim was never suspected";
  // Detection latency: the third unanswered request was sent no later
  // than victim_last_sent, and its deadline expired release_deadline
  // later; the next acquire's opportunistic tick processes it. One
  // arrival gap of slack covers that tick.
  EXPECT_LE(suspected_at, victim_last_sent + 1.0 + 0.05 + 1e-9);
  EXPECT_EQ(serving.healthy_machines(), kSpeeds.size() - 1);
  EXPECT_GE(serving.timeouts(), 3u);
  // Conservation: everything not held on the victim was released.
  EXPECT_EQ(serving.in_flight(), static_cast<int64_t>(held_on_victim));
}

TEST(ChaosDetectionTest, LateReleasesRecoverAStalledBackend) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.seed = 7;
  config.clock = &clock;
  config.health.release_deadline = 0.5;
  config.health.timeout_threshold = 2;
  ServingDispatcher serving(*stack, config);

  constexpr size_t kStalled = 1;
  std::vector<size_t> held;
  for (int i = 0; i < 200 && held.size() < 2; ++i) {
    clock.advance(0.05);
    const size_t machine = serving.acquire(1.0);
    if (machine == kStalled) {
      held.push_back(machine);
    } else {
      ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
    }
  }
  ASSERT_EQ(held.size(), 2u);
  clock.advance(1.0);  // both deadlines expire
  serving.tick();
  ASSERT_EQ(serving.health()->state(kStalled), MachineHealth::kSuspect);
  EXPECT_EQ(serving.healthy_machines(), kSpeeds.size() - 1);

  // The stall ends: the held requests complete late. A late release is
  // a success signal (slow ≠ dead) — one recovers the backend.
  ASSERT_EQ(serving.release(kStalled, 1.0), ServingStatus::kOk);
  EXPECT_EQ(serving.health()->state(kStalled), MachineHealth::kHealthy);
  EXPECT_EQ(serving.healthy_machines(), kSpeeds.size());
  ASSERT_EQ(serving.release(kStalled, 1.0), ServingStatus::kOk);
  EXPECT_EQ(serving.in_flight(), 0);

  // Re-admission: the revived backend receives traffic again.
  bool revisited = false;
  for (int i = 0; i < 100 && !revisited; ++i) {
    clock.advance(0.05);
    const size_t machine = serving.acquire(1.0);
    revisited = machine == kStalled;
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  EXPECT_TRUE(revisited);
}

TEST(ChaosDetectionTest, HeartbeatPartitionIsDetectedAndHeals) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.seed = 5;
  config.clock = &clock;
  config.health.heartbeat.interval = 0.5;
  config.health.heartbeat.phi_threshold = 1.0;  // timeout ≈ mean·ln10
  ServingDispatcher serving(*stack, config);

  constexpr size_t kPartitioned = 3;
  // Establish every backend's cadence (≥ 2 beats each), then cut
  // kPartitioned off. No request traffic at all: heartbeat detection
  // must catch an *idle* backend.
  for (int beat = 0; beat < 4; ++beat) {
    clock.advance(0.5);
    for (size_t m = 0; m < kSpeeds.size(); ++m) {
      ASSERT_EQ(serving.report_heartbeat(m), ServingStatus::kOk);
    }
  }
  EXPECT_EQ(serving.healthy_machines(), kSpeeds.size());

  // Silence timeout = φ*·mean·ln10 ≈ 0.5 · 2.303 ≈ 1.15 s. Tick every
  // 0.25 s; the partitioned backend must be Suspect once its silence
  // exceeds the timeout (plus one tick of cadence).
  double suspected_at = -1.0;
  const double cut_at = clock.now();
  for (int step = 0; step < 12; ++step) {
    clock.advance(0.25);
    for (size_t m = 0; m < kSpeeds.size(); ++m) {
      if (m != kPartitioned) {
        ASSERT_EQ(serving.report_heartbeat(m), ServingStatus::kOk);
      }
    }
    serving.tick();
    if (suspected_at < 0.0 &&
        serving.health()->state(kPartitioned) == MachineHealth::kSuspect) {
      suspected_at = clock.now();
    }
  }
  ASSERT_GT(suspected_at, 0.0) << "partition was never detected";
  const double timeout = 0.5 * std::log(10.0);
  EXPECT_LE(suspected_at, cut_at + timeout + 0.25 + 1e-9);
  EXPECT_EQ(serving.healthy_machines(), kSpeeds.size() - 1);

  // Partition heals: the first heartbeat through recovers it.
  clock.advance(0.25);
  ASSERT_EQ(serving.report_heartbeat(kPartitioned), ServingStatus::kOk);
  EXPECT_EQ(serving.health()->state(kPartitioned), MachineHealth::kHealthy);
  EXPECT_EQ(serving.healthy_machines(), kSpeeds.size());
}

// ---- Degradation modes --------------------------------------------------

TEST(ChaosDegradationTest, BrownoutShedsWhileDegradedOnly) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  hs::overload::ProbabilisticShed shed(0.5);
  ServingConfig config;
  config.seed = 11;
  config.clock = &clock;
  config.health.release_deadline = 1.0;
  config.health.timeout_threshold = 1;
  config.degradation.brownout_below = 0.8;  // engage below 4·0.8 healthy
  config.degradation.brownout_policy = &shed;
  ServingDispatcher serving(*stack, config);

  // Healthy cluster: try_acquire never sheds.
  for (int i = 0; i < 100; ++i) {
    clock.advance(0.01);
    size_t machine = 0;
    ASSERT_EQ(serving.try_acquire(1.0, machine), ServingStatus::kOk);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  EXPECT_EQ(serving.sheds(), 0u);
  EXPECT_EQ(serving.degraded_modes(), 0u);

  // One rejected result suspects machine 0 (threshold 1) → 3 healthy
  // < 3.2 → brownout engages.
  clock.advance(0.01);
  ASSERT_EQ(serving.report_result(0, false), ServingStatus::kOk);
  EXPECT_EQ(serving.degraded_modes(), 1u);

  uint64_t ok = 0;
  for (int i = 0; i < 400; ++i) {
    clock.advance(0.01);
    size_t machine = 0;
    const ServingStatus status = serving.try_acquire(1.0, machine);
    if (status == ServingStatus::kOk) {
      ++ok;
      ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
    } else {
      ASSERT_EQ(status, ServingStatus::kShed);
    }
  }
  const uint64_t sheds = serving.sheds();
  EXPECT_EQ(ok + sheds, 400u);
  // p = 0.5 over 400 deterministic draws; a band of ±100 around the
  // mean is ~10 sigma — failure means the admission wiring broke, not
  // bad luck.
  EXPECT_GT(sheds, 100u);
  EXPECT_LT(sheds, 300u);
  // acquire() keeps its always-routes contract even while degraded.
  for (int i = 0; i < 50; ++i) {
    clock.advance(0.01);
    const size_t machine = serving.acquire(1.0);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  EXPECT_EQ(serving.sheds(), sheds);

  // Recovery disengages brownout; goodput returns to 100%.
  clock.advance(0.01);
  ASSERT_EQ(serving.report_result(0, true), ServingStatus::kOk);
  EXPECT_EQ(serving.degraded_modes(), 0u);
  for (int i = 0; i < 100; ++i) {
    clock.advance(0.01);
    size_t machine = 0;
    ASSERT_EQ(serving.try_acquire(1.0, machine), ServingStatus::kOk);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  EXPECT_EQ(serving.sheds(), sheds);
}

TEST(ChaosDegradationTest, NeverEmptyRoutesToLeastRecentlySuspected) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.seed = 3;
  config.clock = &clock;
  config.health.release_deadline = 1.0;
  config.health.timeout_threshold = 1;
  config.degradation.never_empty = true;
  ServingDispatcher serving(*stack, config);

  // Suspect every backend, one per 0.1 s: machine 0 first, then 1, 2, 3.
  for (size_t m = 0; m < kSpeeds.size(); ++m) {
    clock.advance(0.1);
    ASSERT_EQ(serving.report_result(m, false), ServingStatus::kOk);
  }
  EXPECT_EQ(serving.healthy_machines(), 0u);
  EXPECT_EQ(serving.degraded_modes(), 4u);

  // All-suspect: acquire still answers, and with the backend suspected
  // longest ago — machine 0.
  for (int i = 0; i < 20; ++i) {
    clock.advance(0.01);
    EXPECT_EQ(serving.acquire(1.0), 0u);
  }
  EXPECT_EQ(serving.in_flight(), 20);

  // One backend recovers → never-empty disengages and normal routing
  // resumes on the sole healthy machine.
  clock.advance(0.01);
  ASSERT_EQ(serving.report_result(2, true), ServingStatus::kOk);
  EXPECT_EQ(serving.degraded_modes(), 0u);
  EXPECT_EQ(serving.healthy_machines(), 1u);
  for (int i = 0; i < 20; ++i) {
    clock.advance(0.01);
    EXPECT_EQ(serving.acquire(1.0), 2u);
  }
}

TEST(ChaosDegradationTest, FailStaticPinsFractionsUntilFeedbackResumes) {
  // Skewed round-robin; the pinned fallback is the equal split, whose
  // smooth-RR cycle visits every machine once per 4 picks.
  hs::dispatch::SmoothRoundRobinDispatcher inner(
      hs::alloc::Allocation({0.7, 0.1, 0.1, 0.1}));
  ManualClock clock;
  ServingConfig config;
  config.seed = 9;
  config.clock = &clock;
  config.degradation.fail_static_after = 5.0;
  config.degradation.fail_static_fractions = {0.25, 0.25, 0.25, 0.25};
  ServingDispatcher serving(inner, config);

  clock.advance(1.0);
  const size_t first = serving.acquire(1.0);
  (void)first;
  // Feedback goes silent with work in flight; past the staleness budget
  // the watchdog pins the stack to the last-known-good fractions.
  clock.advance(4.0);
  serving.tick();
  EXPECT_EQ(serving.degraded_modes(), 0u) << "engaged before the budget";
  clock.advance(1.5);
  serving.tick();
  EXPECT_EQ(serving.degraded_modes(), 2u);

  // Pinned equal fractions: each window of 4 picks covers all machines.
  std::vector<int> seen(kSpeeds.size(), 0);
  for (int i = 0; i < 8; ++i) {
    clock.advance(0.01);
    ++seen[serving.acquire(1.0)];
  }
  for (size_t m = 0; m < kSpeeds.size(); ++m) {
    EXPECT_EQ(seen[m], 2) << "machine " << m;
  }

  // A release is fresh feedback: fail-static disengages.
  clock.advance(0.01);
  ASSERT_EQ(serving.release(first, 1.0), ServingStatus::kOk);
  EXPECT_EQ(serving.degraded_modes(), 0u);
}

// ---- Bit-identical-when-off pins ---------------------------------------

TEST(ChaosPinTest, IdleHealthLayerDoesNotPerturbPicks) {
  // Health compiled in and *enabled* but never firing (deadline far
  // beyond the session) must yield the same pick sequence as a plain
  // config: detection costs nothing until something actually expires.
  auto baseline_stack = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORAN, kSpeeds, 0.7);
  auto health_stack = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORAN, kSpeeds, 0.7);
  ManualClock baseline_clock;
  ManualClock health_clock;
  ServingConfig baseline_config;
  baseline_config.seed = 21;
  baseline_config.clock = &baseline_clock;
  ServingConfig health_config = baseline_config;
  health_config.clock = &health_clock;
  health_config.health.release_deadline = 1e9;
  ServingDispatcher baseline(*baseline_stack, baseline_config);
  ServingDispatcher with_health(*health_stack, health_config);
  EXPECT_EQ(baseline.health(), nullptr);
  ASSERT_NE(with_health.health(), nullptr);

  for (int i = 0; i < 300; ++i) {
    baseline_clock.advance(0.01);
    health_clock.advance(0.01);
    const double size = 0.5 + 0.1 * (i % 5);
    const size_t expected = baseline.acquire(size);
    EXPECT_EQ(with_health.acquire(size), expected);
    ASSERT_EQ(baseline.release(expected, size), ServingStatus::kOk);
    ASSERT_EQ(with_health.release(expected, size), ServingStatus::kOk);
  }
}

// ---- Snapshot / restore -------------------------------------------------

using StackFactory = std::function<std::unique_ptr<hs::dispatch::Dispatcher>()>;

/// Warm a session on a stack from `make_stack`, checkpoint it to disk,
/// restore it into a fresh stack from the same factory, and require both
/// sessions to continue with the same picks and counters. `at_checkpoint`
/// inspects the warmed stack just before the capture.
void expect_restore_resumes_bit_identically(
    const StackFactory& make_stack,
    const std::function<void(hs::dispatch::Dispatcher&)>& at_checkpoint =
        {}) {
  auto original_stack = make_stack();
  ManualClock original_clock;
  ServingConfig config;
  config.seed = 77;
  config.clock = &original_clock;
  ServingDispatcher original(*original_stack, config);

  // Warm up with mixed traffic, leaving three requests in flight.
  std::vector<size_t> in_flight;
  for (int i = 0; i < 250; ++i) {
    original_clock.advance(0.02);
    const size_t machine = original.acquire(1.0 + 0.1 * (i % 3));
    if (i % 80 == 79) {
      in_flight.push_back(machine);  // stranded across the "crash"
    } else {
      ASSERT_EQ(original.release(machine, 1.0), ServingStatus::kOk);
    }
  }
  ASSERT_EQ(in_flight.size(), 3u);
  if (at_checkpoint) {
    at_checkpoint(*original_stack);
  }

  // Checkpoint → disk → fresh process (fresh identically shaped stack).
  const ServingSnapshot captured = original.capture_snapshot();
  // Every stack passed here routes on learned state, so an empty policy
  // checkpoint means a layer dropped it.
  ASSERT_FALSE(captured.policy_state.empty());
  // One file per stack: ctest runs the tests that share this helper in
  // parallel processes.
  const std::string path =
      temp_path("resume_" + original_stack->name() + ".snap");
  hs::serving::save_snapshot_binary(path, captured);
  const ServingSnapshot loaded = hs::serving::load_snapshot_binary(path);
  EXPECT_EQ(loaded.seed, captured.seed);
  EXPECT_EQ(loaded.acquired, captured.acquired);
  EXPECT_EQ(loaded.released, captured.released);
  EXPECT_EQ(loaded.rng_state, captured.rng_state);
  EXPECT_EQ(loaded.policy, captured.policy);
  ASSERT_EQ(loaded.policy_state.size(), captured.policy_state.size());
  for (size_t i = 0; i < loaded.policy_state.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded.policy_state[i]),
              std::bit_cast<uint64_t>(captured.policy_state[i]));
  }
  EXPECT_EQ(loaded.outstanding, captured.outstanding);

  auto restored_stack = make_stack();
  ManualClock restored_clock(captured.session_time);
  ServingConfig restored_config;
  restored_config.seed = 1;  // overwritten by restore
  restored_config.clock = &restored_clock;
  ServingDispatcher restored(*restored_stack, restored_config);
  restored.restore(loaded);
  EXPECT_EQ(restored.seed(), 77u);
  EXPECT_EQ(restored.acquired(), original.acquired());
  EXPECT_EQ(restored.in_flight(), original.in_flight());

  // Releases for requests the dead process had in flight are accepted.
  ASSERT_EQ(restored.release(in_flight[0], 1.0), ServingStatus::kOk);
  ASSERT_EQ(original.release(in_flight[0], 1.0), ServingStatus::kOk);

  // Resume: both sessions must continue identically — same picks, same
  // RNG draws, same counters.
  for (int i = 0; i < 250; ++i) {
    original_clock.advance(0.02);
    restored_clock.advance(0.02);
    const double size = 0.8 + 0.05 * (i % 7);
    const size_t expected = original.acquire(size);
    ASSERT_EQ(restored.acquire(size), expected) << "diverged at step " << i;
    ASSERT_EQ(original.release(expected, size), ServingStatus::kOk);
    ASSERT_EQ(restored.release(expected, size), ServingStatus::kOk);
  }
  EXPECT_EQ(restored.acquired(), original.acquired());
  EXPECT_EQ(restored.released(), original.released());
}

TEST(ChaosSnapshotTest, RestoreResumesBitIdentically) {
  // Random policy (draws the RNG every pick) — the strictest test of
  // the restored decision stream.
  expect_restore_resumes_bit_identically([] {
    return hs::core::make_policy_dispatcher(hs::core::PolicyKind::kORAN,
                                            kSpeeds, 0.7);
  });
}

TEST(ChaosSnapshotTest, HedgedStacksResumeBitIdentically) {
  // The hedging layer routes nothing itself, so its checkpoint is the
  // wrapped policy's: Least-Load's load estimates, ORR's cadence.
  for (const auto kind :
       {hs::core::PolicyKind::kLeastLoad, hs::core::PolicyKind::kORR}) {
    SCOPED_TRACE(hs::core::policy_name(kind));
    expect_restore_resumes_bit_identically([kind] {
      return std::make_unique<hs::dispatch::HedgedDispatcher>(
          hs::core::make_policy_dispatcher(kind, kSpeeds, 0.7),
          hs::dispatch::HedgingConfig{5.0});
    });
  }
}

/// A governed adaptive ORR that believes every backend has speed 1
/// (they are kSpeeds) and re-estimates fast, with a dwell gate longer
/// than the session: after its first committed re-allocation, only the
/// governor's saved history keeps it from committing again at once.
std::unique_ptr<hs::dispatch::Dispatcher> make_governed_stack() {
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  options.time_constant = 1.0;
  options.reestimate_every = 32;
  options.governor.min_improvement = 0.0;
  options.governor.min_dwell = 1000.0;
  return hs::core::make_adaptive_dispatcher(
      hs::core::PolicyKind::kORR, std::vector<double>(kSpeeds.size(), 1.0),
      0.7, options);
}

const hs::uncertainty::GovernedAdaptiveDispatcher& governed_core(
    hs::dispatch::Dispatcher& stack) {
  const auto* core =
      hs::dispatch::find_layer<hs::uncertainty::GovernedAdaptiveDispatcher>(
          stack);
  HS_CHECK(core != nullptr, "no governed core in " << stack.name());
  return *core;
}

TEST(ChaosSnapshotTest, GovernedStackResumesBitIdentically) {
  expect_restore_resumes_bit_identically(
      make_governed_stack, [](hs::dispatch::Dispatcher& stack) {
        // The dwell gate is live: one re-allocation committed.
        EXPECT_EQ(governed_core(stack).governor().commits(), 1u);
      });
}

TEST(ChaosSnapshotTest, GovernedCheckpointWithoutGovernorIsRefused) {
  auto stack = make_governed_stack();
  ManualClock clock;
  ServingConfig config;
  config.clock = &clock;
  ServingDispatcher serving(*stack, config);
  for (int i = 0; i < 250; ++i) {
    clock.advance(0.02);
    const size_t machine = serving.acquire(1.0);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  ServingSnapshot snap = serving.capture_snapshot();
  // The governor block sits between the committed fractions and the
  // inner round-robin's cadence; cut it out, as a checkpoint written
  // before the block existed would lack it.
  std::vector<double> governor_block;
  const size_t block_len =
      governed_core(*stack).governor().save_state(governor_block);
  const size_t n = kSpeeds.size();
  const size_t at = 3 + n + (4 + 5 * n) + n;
  ASSERT_GE(snap.policy_state.size(), at + block_len);
  ASSERT_TRUE(std::equal(governor_block.begin(), governor_block.end(),
                         snap.policy_state.begin() + at));
  snap.policy_state.erase(snap.policy_state.begin() + at,
                          snap.policy_state.begin() + at + block_len);

  auto restored_stack = make_governed_stack();
  ServingDispatcher restored(*restored_stack);
  EXPECT_THROW(restored.restore(snap), hs::util::CheckError);
}

// A governed checkpoint whose committed-fraction block is out of range
// is refused whole: restore_state returns 0 before changing anything
// (the estimator bank, ρ̂, the tick counter and the mask come first in
// the block), and the serving runtime throws with the stack unchanged.
TEST(ChaosSnapshotTest, GovernedCheckpointWithBadFractionLeavesStackUnchanged) {
  auto stack = make_governed_stack();
  ManualClock clock;
  ServingConfig config;
  config.clock = &clock;
  ServingDispatcher serving(*stack, config);
  for (int i = 0; i < 250; ++i) {
    clock.advance(0.02);
    const size_t machine = serving.acquire(1.0);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  const size_t n = kSpeeds.size();
  const size_t first_fraction = 3 + n + (4 + 5 * n);
  std::vector<double> saved;
  (void)stack->save_state(saved);
  saved[first_fraction] = 2.0;

  auto fresh = make_governed_stack();
  std::vector<double> before;
  (void)fresh->save_state(before);
  EXPECT_EQ(fresh->restore_state(saved), 0u);
  std::vector<double> after;
  (void)fresh->save_state(after);
  EXPECT_EQ(after, before);

  ServingSnapshot snap = serving.capture_snapshot();
  snap.policy_state[first_fraction] = 2.0;
  auto restored_stack = make_governed_stack();
  ServingDispatcher restored(*restored_stack);
  EXPECT_THROW(restored.restore(snap), hs::util::CheckError);
  after.clear();
  (void)restored_stack->save_state(after);
  EXPECT_EQ(after, before);
}

TEST(ChaosSnapshotTest, HealthStateSurvivesTheRoundTrip) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.seed = 13;
  config.clock = &clock;
  config.health.release_deadline = 1.0;
  config.health.timeout_threshold = 1;
  ServingDispatcher serving(*stack, config);

  clock.advance(0.5);
  ASSERT_EQ(serving.report_result(1, false), ServingStatus::kOk);
  ASSERT_EQ(serving.health()->state(1), MachineHealth::kSuspect);

  const ServingSnapshot snap = serving.capture_snapshot();
  ASSERT_EQ(snap.health.size(), kSpeeds.size());
  const std::string path = temp_path("health.snap");
  hs::serving::save_snapshot_binary(path, snap);

  auto restored_stack = make_fault_aware_random();
  ManualClock restored_clock(snap.session_time);
  ServingConfig restored_config = config;
  restored_config.clock = &restored_clock;
  ServingDispatcher restored(*restored_stack, restored_config);
  restored.restore(hs::serving::load_snapshot_binary(path));
  EXPECT_EQ(restored.health()->state(1), MachineHealth::kSuspect);
  EXPECT_EQ(restored.healthy_machines(), kSpeeds.size() - 1);
  // The restored stack routes around the suspect without re-detecting.
  for (int i = 0; i < 50; ++i) {
    restored_clock.advance(0.01);
    EXPECT_NE(restored.acquire(1.0), 1u);
  }
}

TEST(ChaosSnapshotTest, MismatchedStackIsRefused) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.clock = &clock;
  ServingDispatcher serving(*stack, config);
  ServingSnapshot snap = serving.capture_snapshot();

  hs::dispatch::LeastLoadDispatcher other(kSpeeds);
  ServingDispatcher wrong_policy(other);
  EXPECT_THROW(wrong_policy.restore(snap), hs::util::CheckError);

  hs::dispatch::LeastLoadDispatcher small({1.0, 2.0});
  ServingDispatcher wrong_count(small);
  EXPECT_THROW(wrong_count.restore(snap), hs::util::CheckError);
}

// ---- Corruption sweeps --------------------------------------------------

std::vector<char> slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  std::vector<char> bytes(static_cast<size_t>(file.tellg()));
  file.seekg(0);
  file.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Flip single bits through the whole header and seeded-random payload
/// bytes, plus truncate at every prefix length; `load` must either
/// succeed or throw CheckError — anything else (UB under ASan/UBSan, a
/// different exception, a crash) fails the test. A path that opens but
/// is not a regular file (a directory) must throw CheckError too.
template <typename LoadFn>
void corruption_sweep(const std::string& path,
                      const std::vector<char>& valid, LoadFn load) {
  const std::string directory = path + ".d";
  std::filesystem::create_directories(directory);
  EXPECT_THROW(load(directory), hs::util::CheckError);
  const size_t header_sweep = std::min<size_t>(valid.size(), 96);
  for (size_t byte = 0; byte < header_sweep; ++byte) {
    for (const unsigned mask : {0x01u, 0x80u}) {
      std::vector<char> corrupt = valid;
      corrupt[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[byte]) ^ mask);
      spit(path, corrupt);
      try {
        load(path);
      } catch (const hs::util::CheckError&) {
        // clean rejection — the acceptable failure mode
      }
    }
  }
  hs::rng::Xoshiro256 gen(0xC0FFEE);
  for (int trial = 0; trial < 128; ++trial) {
    std::vector<char> corrupt = valid;
    const size_t byte = gen.next_below(corrupt.size());
    corrupt[byte] = static_cast<char>(gen.next_u64() & 0xFF);
    spit(path, corrupt);
    try {
      load(path);
    } catch (const hs::util::CheckError&) {
    }
  }
  for (size_t len = 0; len < valid.size(); len += 7) {
    std::vector<char> prefix(valid.begin(),
                             valid.begin() + static_cast<long>(len));
    spit(path, prefix);
    try {
      load(path);
    } catch (const hs::util::CheckError&) {
    }
  }
}

TEST(ChaosCorruptionTest, TraceFileFlipsAreRejectedCleanly) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ManualClock clock;
  ServingConfig config;
  config.clock = &clock;
  config.record_capacity = 32;
  ServingDispatcher serving(inner, config);
  for (int i = 0; i < 32; ++i) {
    clock.advance(0.1);
    const size_t machine = serving.acquire(1.0);
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  const std::string path = temp_path("sweep.trace");
  hs::serving::save_trace_binary(path, serving.snapshot());
  const std::vector<char> valid = slurp(path);
  ASSERT_GT(valid.size(), 40u);

  corruption_sweep(path, valid, [](const std::string& p) {
    (void)hs::serving::load_trace_binary(p);
  });
}

TEST(ChaosCorruptionTest, SnapshotFileFlipsAreRejectedCleanly) {
  auto stack = make_fault_aware_random();
  ManualClock clock;
  ServingConfig config;
  config.seed = 17;
  config.clock = &clock;
  config.health.release_deadline = 1.0;
  ServingDispatcher serving(*stack, config);
  for (int i = 0; i < 64; ++i) {
    clock.advance(0.05);
    const size_t machine = serving.acquire(1.0);
    if (i % 5 != 4) {
      ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
    }
  }
  const std::string path = temp_path("sweep.snap");
  hs::serving::save_snapshot_binary(path, serving.capture_snapshot());
  const std::vector<char> valid = slurp(path);
  ASSERT_GT(valid.size(), 80u);

  corruption_sweep(path, valid, [](const std::string& p) {
    (void)hs::serving::load_snapshot_binary(p);
  });
}

TEST(ChaosCorruptionTest, ScheduleFileFlipsAreRejectedCleanly) {
  using hs::cluster::ChoiceKind;
  using hs::explore::Override;
  hs::explore::Schedule schedule;
  schedule.ops = {
      Override::force_bool(ChoiceKind::kDispatchLoss, 1, 3, true),
      Override::force_double(ChoiceKind::kLinkDelay, 0, 200, 0.1),
      Override::force_bool(ChoiceKind::kHedgeIssue, 300, 0, false),
      Override::force_double(ChoiceKind::kFaultDowntime, 2, 1, 1e300),
  };
  const std::string path = temp_path("sweep.hssched");
  hs::explore::save_schedule(schedule, path);
  const std::vector<char> valid = slurp(path);
  ASSERT_GT(valid.size(), 30u);

  corruption_sweep(path, valid, [](const std::string& p) {
    (void)hs::explore::load_schedule(p);
  });
}

// ---- Randomized soak (seed logged for reproduction) ---------------------

TEST(ChaosSoakTest, RandomizedScheduleKeepsInvariants) {
  const uint64_t seed = hs::util::seed_from_env("HS_CHAOS_SEED", 1);
  hs::rng::Xoshiro256 chaos(seed);

  auto stack = make_fault_aware_random();
  ManualClock clock;
  hs::overload::ProbabilisticShed shed(0.25);
  ServingConfig config;
  config.seed = seed ^ 0x5eed;
  config.clock = &clock;
  config.health.release_deadline = 0.3;
  config.health.timeout_threshold = 2;
  config.health.heartbeat.interval = 0.2;
  config.degradation.brownout_below = 0.6;
  config.degradation.brownout_policy = &shed;
  config.degradation.never_empty = true;
  ServingDispatcher serving(*stack, config);

  std::vector<size_t> held;
  uint64_t dropped = 0;  // releases deliberately never sent
  uint64_t last_timeouts = 0;
  for (int step = 0; step < 5000; ++step) {
    const uint64_t op = chaos.next_below(100);
    clock.advance(0.001 + 0.01 * static_cast<double>(chaos.next_below(5)));
    if (op < 45) {
      size_t machine = 0;
      const ServingStatus status = serving.try_acquire(1.0, machine);
      if (status == ServingStatus::kOk) {
        held.push_back(machine);
      } else {
        ASSERT_EQ(status, ServingStatus::kShed);
      }
    } else if (op < 75) {
      if (!held.empty()) {
        const size_t idx = chaos.next_below(held.size());
        const size_t machine = held[idx];
        held[idx] = held.back();
        held.pop_back();
        if (chaos.next_below(8) == 0) {
          ++dropped;  // simulate a lost completion → timeout fodder
        } else {
          ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
        }
      }
    } else if (op < 85) {
      ASSERT_EQ(serving.report_heartbeat(chaos.next_below(kSpeeds.size())),
                ServingStatus::kOk);
    } else if (op < 92) {
      ASSERT_EQ(serving.report_result(chaos.next_below(kSpeeds.size()),
                                      chaos.next_below(4) != 0),
                ServingStatus::kOk);
    } else {
      serving.tick();
    }

    // Invariants after every step.
    ASSERT_EQ(serving.in_flight(),
              static_cast<int64_t>(held.size() + dropped));
    ASSERT_LE(serving.healthy_machines(), kSpeeds.size());
    ASSERT_GE(serving.timeouts(), last_timeouts) << "timeouts regressed";
    last_timeouts = serving.timeouts();
  }

  // Drain what we still hold; dropped releases stay in flight forever.
  for (const size_t machine : held) {
    ASSERT_EQ(serving.release(machine, 1.0), ServingStatus::kOk);
  }
  EXPECT_EQ(serving.in_flight(), static_cast<int64_t>(dropped));
}

// ---- Watchdog concurrency (runs under TSan in CI) -----------------------

TEST(ChaosConcurrencyTest, WatchdogTicksWhileWorkersServe) {
  hs::dispatch::LeastLoadDispatcher inner(kSpeeds);
  ServingConfig config;  // WallClock: real time drives the deadlines
  config.health.release_deadline = 1e-4;
  config.health.timeout_threshold = 4;
  config.health.heartbeat.interval = 1e-3;
  ServingDispatcher serving(inner, config);

  constexpr size_t kThreads = 4;
  constexpr size_t kOpsPerThread = 5000;
  std::atomic<uint64_t> dropped{0};
  std::atomic<bool> stop{false};

  std::thread watchdog([&serving, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      serving.tick();
      std::this_thread::yield();
    }
    serving.tick();
  });

  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&serving, &dropped, t] {
      hs::rng::Xoshiro256 gen(t + 1);
      for (size_t i = 0; i < kOpsPerThread; ++i) {
        const size_t machine = serving.acquire(1.0);
        if (gen.next_below(64) == 0) {
          dropped.fetch_add(1, std::memory_order_relaxed);  // timeout fodder
        } else {
          if (serving.release(machine, 1.0) != ServingStatus::kOk) {
            std::abort();  // conservation broken under contention
          }
        }
        if (gen.next_below(16) == 0) {
          (void)serving.report_heartbeat(machine);
        }
      }
    });
  }
  for (auto& worker : pool) {
    worker.join();
  }
  stop.store(true, std::memory_order_relaxed);
  watchdog.join();

  EXPECT_EQ(serving.acquired(), kThreads * kOpsPerThread);
  EXPECT_EQ(serving.in_flight(),
            static_cast<int64_t>(dropped.load(std::memory_order_relaxed)));
  EXPECT_LE(serving.healthy_machines(), kSpeeds.size());
}

}  // namespace
