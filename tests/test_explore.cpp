// The fault-space explorer: schedule format, hook semantics, invariant
// registry, search drivers, shrinker, and the committed repro corpus.
//
// The replay tests load tests/repros/*.hssched via HS_REPRO_DIR (set by
// tests/CMakeLists.txt) — those files are the repo's regression corpus:
// each must reproduce its violation with the planted bug armed and run
// clean without it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cluster/choice.h"
#include "cluster/sim.h"
#include "dispatch/least_load.h"
#include "explore/explorer.h"
#include "explore/hook.h"
#include "explore/invariants.h"
#include "explore/schedule.h"
#include "explore/shrink.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/check.h"

namespace {

using hs::cluster::ChoiceKind;
using hs::explore::ExploreConfig;
using hs::explore::Explorer;
using hs::explore::InvariantRegistry;
using hs::explore::Override;
using hs::explore::RunOutcome;
using hs::explore::Schedule;
using hs::explore::ScheduleHook;
using hs::explore::SearchStats;
using hs::explore::Violation;
using hs::obs::TraceEventKind;
using hs::obs::TraceSink;
using hs::util::CheckError;

// ---- HSSCHED1 round-trip and rejection -----------------------------------

Schedule gnarly_schedule() {
  Schedule schedule;
  schedule.ops.push_back(
      Override::force_bool(ChoiceKind::kDispatchLoss, 1, 3, true));
  schedule.ops.push_back(
      Override::force_bool(ChoiceKind::kHedgeIssue, 2, 0, false));
  schedule.ops.push_back(Override::force_double(
      ChoiceKind::kLinkDelay, 0, 7, 0.1));  // not exactly representable
  schedule.ops.push_back(Override::force_double(
      ChoiceKind::kFaultUptime, 5, 0, std::numeric_limits<double>::min()));
  schedule.ops.push_back(Override::force_double(
      ChoiceKind::kFaultDowntime, 0, 0,
      std::numeric_limits<double>::denorm_min()));
  schedule.ops.push_back(Override::force_double(
      ChoiceKind::kArrivalGap, 0, 12, std::numeric_limits<double>::max()));
  schedule.ops.push_back(
      Override::force_double(ChoiceKind::kFeedbackDelay, 3, 1, 0.0));
  return schedule;
}

TEST(ScheduleFormat, RoundTripsGnarlyDoublesBitExactly) {
  const Schedule schedule = gnarly_schedule();
  const std::vector<uint8_t> bytes = schedule.encode();
  const Schedule decoded = Schedule::decode(bytes);
  ASSERT_EQ(decoded.ops.size(), schedule.ops.size());
  for (size_t i = 0; i < schedule.ops.size(); ++i) {
    EXPECT_EQ(decoded.ops[i], schedule.ops[i]) << "op " << i;
    EXPECT_EQ(decoded.ops[i].value_bits, schedule.ops[i].value_bits);
  }
  EXPECT_EQ(decoded, schedule);
}

TEST(ScheduleFormat, EmptyScheduleRoundTrips) {
  const std::vector<uint8_t> bytes = Schedule{}.encode();
  EXPECT_TRUE(Schedule::decode(bytes).empty());
}

TEST(ScheduleFormat, CommittedReproReencodesToTheSameBytes) {
  // Format pin: the committed repro decodes, and encoding the result
  // gives back the file's exact bytes.
  const std::vector<uint8_t> bytes = hs::util::read_file(
      std::string(HS_REPRO_DIR) + "/drop_leak_conservation.hssched");
  const Schedule repro = Schedule::decode(bytes);
  EXPECT_FALSE(repro.empty());
  EXPECT_EQ(repro.encode(), bytes);
}

TEST(ScheduleFormat, RejectsMalformedBytes) {
  const std::vector<uint8_t> bytes = gnarly_schedule().encode();

  std::vector<uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(Schedule::decode(bad_magic), CheckError);

  for (size_t cut : {size_t{0}, size_t{4}, size_t{9}, bytes.size() - 1}) {
    const std::vector<uint8_t> truncated(bytes.begin(),
                                         bytes.begin() + cut);
    EXPECT_THROW(Schedule::decode(truncated), CheckError) << cut;
  }

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_THROW(Schedule::decode(trailing), CheckError);
}

TEST(ScheduleFormat, RejectsInvalidOps) {
  // force_bool/force_double validate eagerly, so malformed ops (as a
  // corrupted file would decode them) are built as raw aggregates.
  Schedule bad_kind;
  bad_kind.ops.push_back(Override{static_cast<ChoiceKind>(200), 0, 0, 1});
  EXPECT_THROW(bad_kind.validate(), CheckError);

  Schedule bad_bool;
  bad_bool.ops.push_back(
      Override{ChoiceKind::kDispatchLoss, 0, 0, 2});  // non-canonical
  EXPECT_THROW(bad_bool.validate(), CheckError);

  Schedule nan_double;
  nan_double.ops.push_back(Override{ChoiceKind::kLinkDelay, 0, 0,
                                    0x7ff8000000000000ull});  // quiet NaN
  EXPECT_THROW(nan_double.validate(), CheckError);

  Schedule negative_double;
  negative_double.ops.push_back(Override{ChoiceKind::kLinkDelay, 0, 0,
                                         0xbff0000000000000ull});  // -1.0
  EXPECT_THROW(negative_double.validate(), CheckError);

  EXPECT_THROW(
      (void)Override::force_double(ChoiceKind::kLinkDelay, 0, 0, -1.0),
      CheckError);
  EXPECT_THROW(
      (void)Override::force_bool(ChoiceKind::kLinkDelay, 0, 0, true),
      CheckError);  // double kind cannot take a bool

  Schedule duplicate;
  duplicate.ops.push_back(
      Override::force_bool(ChoiceKind::kDispatchLoss, 1, 2, true));
  duplicate.ops.push_back(
      Override::force_bool(ChoiceKind::kDispatchLoss, 1, 2, false));
  EXPECT_THROW(duplicate.validate(), CheckError);
}

// ---- Hook parity: instrumentation off == empty schedule ------------------

hs::cluster::SimulationConfig small_faulty_config() {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 2.0, 3.0};
  config.rho = 0.8;
  config.sim_time = 200.0;
  config.warmup_frac = 0.0;
  config.seed = 7;
  config.faults.processes.assign(3, {300.0, 20.0});
  config.network.dispatch_link.loss = 0.01;
  config.network.report_link.loss = 0.01;
  config.network.heartbeat.interval = 1.0;
  return config;
}

std::vector<double> result_fingerprint(
    const hs::cluster::SimulationResult& result) {
  std::vector<double> print = {
      result.mean_response_time,
      result.mean_response_ratio,
      static_cast<double>(result.completed_jobs),
      static_cast<double>(result.dispatched_jobs),
      static_cast<double>(result.total_arrivals),
      static_cast<double>(result.total_completed),
      static_cast<double>(result.total_dropped),
      static_cast<double>(result.msgs_lost),
      static_cast<double>(result.suspicions),
      static_cast<double>(result.events_fired),
  };
  print.insert(print.end(), result.machine_fractions.begin(),
               result.machine_fractions.end());
  print.insert(print.end(), result.machine_downtime.begin(),
               result.machine_downtime.end());
  return print;
}

TEST(ChoiceHook, NullHookAndEmptyScheduleAreBitIdentical) {
  hs::cluster::SimulationConfig config = small_faulty_config();
  hs::dispatch::LeastLoadDispatcher baseline_dispatcher(config.speeds);
  const auto baseline =
      hs::cluster::run_simulation(config, baseline_dispatcher);

  ScheduleHook hook((Schedule()));
  config.choice_hook = &hook;
  hs::dispatch::LeastLoadDispatcher hooked_dispatcher(config.speeds);
  const auto hooked = hs::cluster::run_simulation(config, hooked_dispatcher);

  EXPECT_EQ(hook.applied(), 0u);
  EXPECT_FALSE(hook.sites().empty());  // it observed the run's draws
  const auto a = result_fingerprint(baseline);
  const auto b = result_fingerprint(hooked);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "fingerprint field " << i;
  }
}

TEST(ChoiceHook, ForcedCrashIsObservable) {
  const Explorer explorer(ExploreConfig{});

  const RunOutcome natural = explorer.run_schedule(Schedule{});
  ASSERT_EQ(natural.result.machine_downtime.size(), 3u);
  // The scenario's MTBF (1e8 s) makes a natural crash impossible within
  // the 120 s horizon.
  EXPECT_EQ(natural.result.machine_downtime[1], 0.0);
  EXPECT_TRUE(natural.violations.empty());

  Schedule crash;
  crash.ops.push_back(
      Override::force_double(ChoiceKind::kFaultUptime, 1, 0, 20.0));
  const RunOutcome crashed = explorer.run_schedule(crash);
  EXPECT_EQ(crashed.overrides_applied, 1u);
  EXPECT_GT(crashed.result.machine_downtime[1], 0.0);
  EXPECT_EQ(crashed.result.machine_downtime[0], 0.0);
  EXPECT_TRUE(crashed.violations.empty())
      << crashed.violations.front().to_string();
}

TEST(ChoiceHook, ScheduledRunsReplayBitIdentically) {
  const Explorer explorer(ExploreConfig{});
  Schedule schedule;
  schedule.ops.push_back(
      Override::force_double(ChoiceKind::kFaultUptime, 0, 0, 30.0));
  schedule.ops.push_back(
      Override::force_bool(ChoiceKind::kDispatchLoss, 1, 0, true));

  const RunOutcome first = explorer.run_schedule(schedule);
  const RunOutcome second = explorer.run_schedule(schedule);
  EXPECT_EQ(result_fingerprint(first.result),
            result_fingerprint(second.result));
  EXPECT_EQ(first.coverage, second.coverage);
  EXPECT_EQ(first.overrides_applied, second.overrides_applied);
}

// ---- Invariant registry: each invariant fires on violating state ---------

hs::cluster::SimulationResult consistent_result() {
  hs::cluster::SimulationResult result;
  result.machine_fractions = {1.0, 0.0, 0.0};
  result.machine_utilizations = {0.5, 0.5, 0.5};
  return result;
}

std::vector<std::string> violated_names(const TraceSink& trace,
                                        const hs::cluster::SimulationResult& r,
                                        const InvariantRegistry& registry) {
  std::vector<std::string> names;
  for (const Violation& violation :
       hs::explore::check_run(registry, trace, r, 3)) {
    names.push_back(violation.invariant);
  }
  return names;
}

TEST(Invariants, CleanTracePasses) {
  TraceSink trace(64);
  trace.record(1.0, TraceEventKind::kArrival, 1, TraceSink::kScheduler);
  trace.record(1.0, TraceEventKind::kDispatch, 1, 0);
  trace.record(2.0, TraceEventKind::kCompletion, 1, 0);
  hs::cluster::SimulationResult result = consistent_result();
  result.total_arrivals = 1;
  result.total_completed = 1;
  EXPECT_TRUE(violated_names(trace, result, InvariantRegistry{}).empty());
}

TEST(Invariants, TimeMonotoneFires) {
  TraceSink trace(64);
  trace.record(5.0, TraceEventKind::kArrival, 1, TraceSink::kScheduler);
  trace.record(1.0, TraceEventKind::kArrival, 2, TraceSink::kScheduler);
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"time-monotone"});
}

TEST(Invariants, ExactlyOnceFires) {
  TraceSink trace(64);
  trace.record(1.0, TraceEventKind::kDispatch, 1, 0);
  trace.record(2.0, TraceEventKind::kCompletion, 1, 0);
  trace.record(3.0, TraceEventKind::kCompletion, 1, 1);
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names,
            std::vector<std::string>{"exactly-once-completion"});
}

TEST(Invariants, LifecycleFiresOnDispatchAfterDrop) {
  TraceSink trace(64);
  trace.record(1.0, TraceEventKind::kDispatch, 1, 0);
  trace.record(2.0, TraceEventKind::kDrop, 1, TraceSink::kScheduler);
  trace.record(3.0, TraceEventKind::kDispatch, 1, 1);
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"job-lifecycle"});
}

TEST(Invariants, LifecycleFiresOnCompletionWithoutDispatch) {
  TraceSink trace(64);
  trace.record(1.0, TraceEventKind::kCompletion, 1, 0);
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"job-lifecycle"});
}

TEST(Invariants, DispatchLegalityFiresOnBadMachine) {
  TraceSink trace(64);
  trace.record(1.0, TraceEventKind::kDispatch, 1, 7);  // only 3 machines
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"dispatch-legality"});
}

TEST(Invariants, BreakerLegalityFiresOnIllegalTransition) {
  TraceSink trace(64);
  // Half-open is only legal from open; machine 0 starts closed.
  trace.record(1.0, TraceEventKind::kBreakerHalfOpen, TraceSink::kNoJob, 0);
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"breaker-legality"});

  TraceSink legal(64);
  legal.record(1.0, TraceEventKind::kBreakerOpen, TraceSink::kNoJob, 0);
  legal.record(2.0, TraceEventKind::kBreakerHalfOpen, TraceSink::kNoJob, 0);
  legal.record(3.0, TraceEventKind::kBreakerClose, TraceSink::kNoJob, 0);
  EXPECT_TRUE(
      violated_names(legal, consistent_result(), InvariantRegistry{})
          .empty());
}

TEST(Invariants, DetectorMonotoneFires) {
  TraceSink trace(64);
  trace.record(1.0, TraceEventKind::kSuspect, TraceSink::kNoJob, 0);
  trace.record(2.0, TraceEventKind::kSuspect, TraceSink::kNoJob, 0);
  const auto names =
      violated_names(trace, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"detector-monotone"});

  TraceSink cleared(64);
  cleared.record(1.0, TraceEventKind::kSuspectCleared, TraceSink::kNoJob, 1);
  const auto cleared_names =
      violated_names(cleared, consistent_result(), InvariantRegistry{});
  EXPECT_EQ(cleared_names,
            std::vector<std::string>{"detector-monotone"});
}

TEST(Invariants, JobConservationFires) {
  TraceSink trace(64);
  hs::cluster::SimulationResult result = consistent_result();
  result.total_arrivals = 10;
  result.total_completed = 9;  // one job vanished
  const auto names = violated_names(trace, result, InvariantRegistry{});
  EXPECT_EQ(names, std::vector<std::string>{"job-conservation"});
}

TEST(Invariants, ResultSanityFires) {
  TraceSink trace(64);
  hs::cluster::SimulationResult nan_result = consistent_result();
  nan_result.mean_response_time =
      std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(violated_names(trace, nan_result, InvariantRegistry{}),
            std::vector<std::string>{"result-sanity"});

  hs::cluster::SimulationResult bad_fraction = consistent_result();
  bad_fraction.dispatched_jobs = 10;
  bad_fraction.machine_fractions = {0.5, 0.7, 0.0};  // sums to 1.2
  EXPECT_EQ(violated_names(trace, bad_fraction, InvariantRegistry{}),
            std::vector<std::string>{"result-sanity"});

  hs::cluster::SimulationResult bad_util = consistent_result();
  bad_util.machine_utilizations = {0.5, 1.5, 0.5};
  EXPECT_EQ(violated_names(trace, bad_util, InvariantRegistry{}),
            std::vector<std::string>{"result-sanity"});
}

TEST(Invariants, RegistryTogglesSuppressChecks) {
  TraceSink trace(64);
  trace.record(5.0, TraceEventKind::kArrival, 1, TraceSink::kScheduler);
  trace.record(1.0, TraceEventKind::kArrival, 2, TraceSink::kScheduler);
  InvariantRegistry registry;
  registry.set_enabled(hs::explore::invariant::kTimeMonotone, false);
  EXPECT_TRUE(
      violated_names(trace, consistent_result(), registry).empty());
}

TEST(Invariants, RegistryRejectsUnknownNames) {
  InvariantRegistry registry;
  EXPECT_THROW(registry.set_enabled("no-such-invariant", true), CheckError);
  EXPECT_THROW((void)registry.enabled("no-such-invariant"), CheckError);
  EXPECT_EQ(registry.names().size(), 9u);
}

TEST(Invariants, RejectsWrappedTrace) {
  TraceSink trace(2);
  for (int i = 0; i < 5; ++i) {
    trace.record(i, TraceEventKind::kArrival, static_cast<uint64_t>(i),
                 TraceSink::kScheduler);
  }
  ASSERT_GT(trace.overwritten(), 0u);
  EXPECT_THROW(hs::explore::check_run(InvariantRegistry{}, trace,
                                      consistent_result(), 3),
               CheckError);
}

// ---- Search drivers ------------------------------------------------------

TEST(ExplorerSearch, ExhaustiveSpaceIsDocumentedSize) {
  const Explorer explorer(ExploreConfig{});
  // (1 + 2 crash times)^3 machines * 2^2 loss machines = 27 * 4.
  EXPECT_EQ(explorer.exhaustive_space_size(), 108u);
  EXPECT_TRUE(explorer.exhaustive_schedule(0).empty());
  EXPECT_THROW(explorer.exhaustive_schedule(108), CheckError);

  // Every index yields a valid, distinct schedule.
  std::vector<std::vector<uint8_t>> encodings;
  for (uint64_t i = 0; i < 108; ++i) {
    encodings.push_back(explorer.exhaustive_schedule(i).encode());
  }
  for (size_t i = 0; i < encodings.size(); ++i) {
    for (size_t j = i + 1; j < encodings.size(); ++j) {
      EXPECT_NE(encodings[i], encodings[j]) << i << " vs " << j;
    }
  }
}

TEST(ExplorerSearch, ExhaustiveCleanWithoutPlantedBug) {
  const Explorer explorer(ExploreConfig{});
  const SearchStats stats = explorer.run_exhaustive();
  EXPECT_EQ(stats.runs, 108u);
  EXPECT_FALSE(stats.found_violation);
  EXPECT_GT(stats.coverage_tuples(), 0u);

  // Deterministic: the same enumeration again, bit-identical stats.
  const SearchStats again = explorer.run_exhaustive();
  EXPECT_EQ(again.runs, stats.runs);
  EXPECT_EQ(again.coverage, stats.coverage);
}

TEST(ExplorerSearch, ExhaustiveFindsPlantedBug) {
  ExploreConfig config;
  config.plant_bug = true;
  const Explorer explorer(config);
  const SearchStats stats = explorer.run_exhaustive();
  ASSERT_TRUE(stats.found_violation);
  EXPECT_EQ(stats.violation.invariant,
            hs::explore::invariant::kJobConservation);
  EXPECT_LT(stats.runs, 108u);  // stops at the first violating schedule
  EXPECT_FALSE(stats.counterexample.empty());

  // The counterexample replays to the same violation.
  const RunOutcome replay = explorer.run_schedule(stats.counterexample);
  ASSERT_FALSE(replay.violations.empty());
  EXPECT_EQ(replay.violations.front().invariant,
            hs::explore::invariant::kJobConservation);
  EXPECT_EQ(replay.violations.front().detail, stats.violation.detail);
}

TEST(ExplorerSearch, GuidedSearchBeatsSeedSoakCoverage) {
  const Explorer explorer(ExploreConfig{});
  const uint64_t budget = 60;
  const SearchStats guided = explorer.run_search(budget, /*seed=*/1);
  const SearchStats soak = explorer.run_random(budget, /*seed=*/1);
  EXPECT_EQ(guided.runs, budget);
  EXPECT_EQ(soak.runs, budget);
  // The acceptance criterion: strictly more coverage tuples at the
  // same run count (the soak cannot force crashes/partitions/breaker
  // trips that the guided mutations reach).
  EXPECT_GT(guided.coverage_tuples(), soak.coverage_tuples());
}

TEST(ExplorerSearch, GuidedSearchIsDeterministicInItsSeed) {
  const Explorer explorer(ExploreConfig{});
  const SearchStats a = explorer.run_search(30, 99);
  const SearchStats b = explorer.run_search(30, 99);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.runs, b.runs);
}

// ---- Shrinker ------------------------------------------------------------

TEST(Shrinker, ReducesPlantedScheduleToMinimalRepro) {
  ExploreConfig config;
  config.plant_bug = true;
  const Explorer explorer(config);

  // The two ops that actually trigger the conservation leak...
  Schedule planted;
  planted.ops.push_back(
      Override::force_double(ChoiceKind::kFaultUptime, 0, 0, 70.0));
  planted.ops.push_back(
      Override::force_double(ChoiceKind::kFaultUptime, 1, 0, 70.0));
  // ...buried in 198 dead ops (occurrences the run never reaches), with
  // the live ops scattered mid-list so chunk deletion has to work for
  // them to survive.
  for (uint32_t i = 0; i < 99; ++i) {
    planted.ops.insert(
        planted.ops.begin() + (i % 2),
        Override::force_double(ChoiceKind::kFaultUptime, 0, 50 + i, 5.0));
    planted.ops.push_back(
        Override::force_double(ChoiceKind::kFaultUptime, 2, 50 + i, 5.0));
  }
  ASSERT_EQ(planted.ops.size(), 200u);
  ASSERT_FALSE(explorer.run_schedule(planted).violations.empty());

  const hs::explore::ShrinkResult result = hs::explore::shrink(
      explorer, planted, hs::explore::invariant::kJobConservation);
  EXPECT_EQ(result.initial_ops, 200u);
  EXPECT_LE(result.schedule.ops.size(), 10u);
  EXPECT_EQ(result.violation.invariant,
            hs::explore::invariant::kJobConservation);

  // Deterministic: shrinking again yields the identical schedule.
  const hs::explore::ShrinkResult again = hs::explore::shrink(
      explorer, planted, hs::explore::invariant::kJobConservation);
  EXPECT_EQ(again.schedule, result.schedule);

  // 1-minimal: removing any surviving op loses the violation.
  for (size_t i = 0; i < result.schedule.ops.size(); ++i) {
    Schedule weakened = result.schedule;
    weakened.ops.erase(weakened.ops.begin() + static_cast<ptrdiff_t>(i));
    bool still_fails = false;
    for (const Violation& violation :
         explorer.run_schedule(weakened).violations) {
      still_fails |= violation.invariant ==
                     hs::explore::invariant::kJobConservation;
    }
    EXPECT_FALSE(still_fails) << "op " << i << " is removable";
  }
}

TEST(Shrinker, RejectsNonViolatingInput) {
  const Explorer explorer(ExploreConfig{});
  EXPECT_THROW(hs::explore::shrink(
                   explorer, Schedule{},
                   hs::explore::invariant::kJobConservation),
               CheckError);
}

// ---- Committed repro corpus ----------------------------------------------

TEST(ReproCorpus, DropLeakConservationReplays) {
  const std::string path =
      std::string(HS_REPRO_DIR) + "/drop_leak_conservation.hssched";
  const Schedule repro = hs::explore::load_schedule(path);
  EXPECT_FALSE(repro.empty());

  // With the planted bug armed the repro must reproduce the violation…
  ExploreConfig buggy;
  buggy.plant_bug = true;
  const RunOutcome bad = Explorer(buggy).run_schedule(repro);
  bool reproduced = false;
  for (const Violation& violation : bad.violations) {
    reproduced |= violation.invariant ==
                  hs::explore::invariant::kJobConservation;
  }
  EXPECT_TRUE(reproduced);

  // …and bit-identically so across replays.
  const RunOutcome bad_again = Explorer(buggy).run_schedule(repro);
  ASSERT_EQ(bad.violations.size(), bad_again.violations.size());
  for (size_t i = 0; i < bad.violations.size(); ++i) {
    EXPECT_EQ(bad.violations[i].detail, bad_again.violations[i].detail);
  }

  // Without the bug, the same schedule runs clean — the corpus file is
  // a regression test for the fix.
  const RunOutcome clean = Explorer(ExploreConfig{}).run_schedule(repro);
  EXPECT_TRUE(clean.violations.empty())
      << clean.violations.front().to_string();
}

}  // namespace
