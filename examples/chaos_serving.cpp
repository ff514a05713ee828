// Chaos drill: the fault-tolerant serving runtime walked through a
// scripted failure storm on a ManualClock, with every invariant checked
// as it goes.
//
// The scenario is the one the chaos test suite automates, narrated:
//
//   phase 1  steady state      — all backends healthy, traffic flows
//   phase 2  kill              — backend 2 stops releasing; its release
//                                deadlines expire, it turns Suspect, and
//                                the FaultAware stack routes around it
//   phase 3  brownout          — a second backend is rejected into
//                                Suspect; the healthy fraction drops
//                                below the floor and try_acquire starts
//                                shedding a configured share of traffic
//   phase 4  checkpoint        — the full serving state (counters, RNG,
//                                policy stack, health records) is
//                                snapshotted to disk, "the process
//                                crashes", and a fresh stack restores
//                                and resumes the session bit-identically
//   phase 5  revive            — the dead backends come back (late
//                                releases / accepted results), brownout
//                                disengages, goodput returns to 100%
//
// Every phase ends with invariant checks (conservation identity, no
// traffic on detected-dead backends, shed accounting); any violation
// exits nonzero, so CI can run this binary as an end-to-end drill.
// Deterministic by construction: ManualClock + fixed seed.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocation.h"
#include "dispatch/fault_aware.h"
#include "dispatch/random_dispatcher.h"
#include "overload/admission.h"
#include "serving/clock.h"
#include "serving/serving_dispatcher.h"
#include "serving/snapshot.h"
#include "util/check.h"

namespace {

using hs::serving::ManualClock;
using hs::serving::MachineHealth;
using hs::serving::ServingConfig;
using hs::serving::ServingDispatcher;
using hs::serving::ServingSnapshot;
using hs::serving::ServingStatus;

constexpr size_t kMachines = 4;
constexpr size_t kKilled = 2;
constexpr size_t kRejected = 0;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("    %-58s %s\n", what, ok ? "ok" : "VIOLATED");
  if (!ok) {
    ++g_failures;
  }
}

/// FaultAware over equal-share random dispatch, re-weighted in place over
/// the backends believed up.
std::unique_ptr<hs::dispatch::Dispatcher> make_stack() {
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
  equal_shares(std::vector<bool>(kMachines, true), fractions);
  return std::make_unique<hs::dispatch::FaultAwareDispatcher>(
      std::make_unique<hs::dispatch::RandomDispatcher>(
          hs::alloc::Allocation(std::move(fractions))),
      equal_shares);
}

ServingConfig make_config(ManualClock* clock,
                          hs::overload::AdmissionPolicy* shed) {
  ServingConfig config;
  config.seed = 2026;
  config.clock = clock;
  config.health.release_deadline = 1.0;
  config.health.timeout_threshold = 3;
  config.degradation.brownout_below = 0.6;  // engage under 3/4 healthy
  config.degradation.brownout_policy = shed;
  config.degradation.never_empty = true;
  return config;
}

struct PhaseStats {
  uint64_t issued = 0;
  uint64_t shed = 0;
  std::vector<uint64_t> picks = std::vector<uint64_t>(kMachines, 0);
};

/// Drive `steps` arrivals at 20 ms cadence; backends in `dead` hold
/// their requests forever (the "kill" primitive), everyone else
/// completes instantly.
PhaseStats drive(ServingDispatcher& serving, ManualClock& clock, int steps,
                 const std::vector<bool>& dead,
                 std::vector<size_t>* stranded) {
  PhaseStats stats;
  for (int i = 0; i < steps; ++i) {
    clock.advance(0.02);
    size_t machine = 0;
    const ServingStatus status = serving.try_acquire(1.0, machine);
    if (status == ServingStatus::kShed) {
      ++stats.shed;
      continue;
    }
    HS_CHECK(status == ServingStatus::kOk,
             "unexpected acquire status: " << to_string(status));
    ++stats.issued;
    ++stats.picks[machine];
    if (dead[machine]) {
      stranded->push_back(machine);
    } else {
      HS_CHECK(serving.release(machine, 1.0) == ServingStatus::kOk,
               "release refused for a routed request");
    }
  }
  return stats;
}

void print_phase(const char* title, const ServingDispatcher& serving,
                 const PhaseStats& stats) {
  std::printf("  %s\n", title);
  std::printf("    issued %llu  shed %llu  picks [",
              static_cast<unsigned long long>(stats.issued),
              static_cast<unsigned long long>(stats.shed));
  for (size_t m = 0; m < kMachines; ++m) {
    std::printf("%s%llu", m == 0 ? "" : " ",
                static_cast<unsigned long long>(stats.picks[m]));
  }
  std::printf("]  healthy %zu/%zu  timeouts %llu  in-flight %lld\n",
              serving.healthy_machines(), kMachines,
              static_cast<unsigned long long>(serving.timeouts()),
              static_cast<long long>(serving.in_flight()));
}

}  // namespace

int main() {
  std::printf("chaos drill: detection -> degradation -> checkpoint -> "
              "recovery\n\n");

  auto stack = make_stack();
  ManualClock clock;
  hs::overload::ProbabilisticShed shed(0.5);
  ServingDispatcher serving(*stack, make_config(&clock, &shed));

  std::vector<bool> dead(kMachines, false);
  std::vector<size_t> stranded;

  // Phase 1: steady state.
  PhaseStats p1 = drive(serving, clock, 200, dead, &stranded);
  print_phase("phase 1: steady state", serving, p1);
  check(serving.healthy_machines() == kMachines, "all backends healthy");
  check(p1.shed == 0, "no sheds while healthy");
  check(serving.in_flight() == 0, "conservation: nothing in flight");

  // Phase 2: kill backend 2 — it stops releasing.
  dead[kKilled] = true;
  PhaseStats p2 = drive(serving, clock, 400, dead, &stranded);
  serving.tick();
  print_phase("phase 2: backend 2 killed", serving, p2);
  check(serving.health()->state(kKilled) == MachineHealth::kSuspect,
        "killed backend detected Suspect");
  check(serving.timeouts() >= 3, "release deadlines expired");
  check(serving.in_flight() == static_cast<int64_t>(stranded.size()),
        "conservation: in-flight == stranded requests");
  // No pick may land on the dead backend once it is Suspect.
  PhaseStats p2b = drive(serving, clock, 200, dead, &stranded);
  check(p2b.picks[kKilled] == 0, "no traffic to detected-dead backend");

  // Phase 3: a second backend rejects into Suspect -> brownout.
  clock.advance(0.02);
  HS_CHECK(serving.report_result(kRejected, false) == ServingStatus::kOk,
           "report_result refused");
  HS_CHECK(serving.report_result(kRejected, false) == ServingStatus::kOk,
           "report_result refused");
  HS_CHECK(serving.report_result(kRejected, false) == ServingStatus::kOk,
           "report_result refused");
  PhaseStats p3 = drive(serving, clock, 400, dead, &stranded);
  print_phase("phase 3: brownout (2/4 healthy, shed p=0.5)", serving, p3);
  check((serving.degraded_modes() & 1u) != 0, "brownout engaged");
  check(p3.shed > 100 && p3.shed < 300, "sheds near the configured rate");
  check(p3.picks[kKilled] == 0 && p3.picks[kRejected] == 0,
        "degraded traffic stays on survivors");

  // Phase 4: checkpoint, "crash", restore into a fresh stack.
  const ServingSnapshot snap = serving.capture_snapshot();
  const std::string path = "/tmp/hs_chaos_serving.snap";
  hs::serving::save_snapshot_binary(path, snap);
  auto restored_stack = make_stack();
  ManualClock restored_clock(snap.session_time);
  ServingDispatcher restored(*restored_stack,
                             make_config(&restored_clock, &shed));
  restored.restore(hs::serving::load_snapshot_binary(path));
  std::printf("  phase 4: checkpoint -> crash -> restore (%s)\n",
              path.c_str());
  check(restored.acquired() == serving.acquired() &&
            restored.released() == serving.released(),
        "restored conservation counters match");
  check(restored.healthy_machines() == serving.healthy_machines(),
        "restored health state matches");
  bool identical = true;
  for (int i = 0; i < 300; ++i) {
    clock.advance(0.02);
    restored_clock.advance(0.02);
    size_t a = 0;
    size_t b = 0;
    const ServingStatus sa = serving.try_acquire(1.0, a);
    const ServingStatus sb = restored.try_acquire(1.0, b);
    identical = identical && sa == sb && (sa != ServingStatus::kOk || a == b);
    if (sa == ServingStatus::kOk && !dead[a]) {
      (void)serving.release(a, 1.0);
    }
    if (sb == ServingStatus::kOk && !dead[b]) {
      (void)restored.release(b, 1.0);
    }
  }
  check(identical, "restored session resumes bit-identically");

  // Phase 5: revive — stranded releases finally arrive, results accept.
  for (const size_t machine : stranded) {
    HS_CHECK(serving.release(machine, 1.0) == ServingStatus::kOk,
             "stranded release refused");
  }
  clock.advance(0.02);
  HS_CHECK(serving.report_result(kRejected, true) == ServingStatus::kOk,
           "report_result refused");
  dead[kKilled] = false;
  std::vector<size_t> none;
  PhaseStats p5 = drive(serving, clock, 200, dead, &none);
  print_phase("phase 5: revival", serving, p5);
  check(serving.healthy_machines() == kMachines, "all backends recovered");
  check(p5.shed == 0, "brownout disengaged, goodput back to 100%");
  check(serving.in_flight() == 0, "conservation: drill drains to zero");
  check(p5.picks[kKilled] > 0, "revived backend re-admitted to rotation");

  std::printf("\n%s (%d violation%s)\n",
              g_failures == 0 ? "drill passed" : "drill FAILED", g_failures,
              g_failures == 1 ? "" : "s");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
