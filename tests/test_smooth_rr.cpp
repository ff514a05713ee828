// Tree vs scan differential tests for SmoothRoundRobinDispatcher (the
// paper's Algorithm 2). The O(log k) tree engine must route every job
// exactly where the O(k) reference scan routes it — through exact ties,
// near-ties inside the ε window, the guard value, re-allocation churn and
// checkpoint/restore — because the golden determinism suite pins the
// scan's historical sequences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/optimized.h"
#include "dispatch/smooth_rr.h"
#include "rng/rng.h"

namespace {

using hs::alloc::Allocation;
using hs::dispatch::SmoothRoundRobinDispatcher;
using hs::dispatch::SmoothRrEngine;

constexpr double kTieEps = 1e-9;  // the dispatcher's tie tolerance

// Both engines side by side; every mutation is applied to both.
class EngineHarness {
 public:
  explicit EngineHarness(const std::vector<double>& fractions)
      : tree_(Allocation(fractions), SmoothRrEngine::kTree),
        scan_(Allocation(fractions), SmoothRrEngine::kScan) {}

  /// Run `count` picks on both engines; fails at the first divergence.
  void picks(uint64_t count) {
    hs::rng::Xoshiro256 gen(1);
    for (uint64_t i = 0; i < count; ++i) {
      const size_t from_tree = tree_.pick(gen);
      const size_t from_scan = scan_.pick(gen);
      if (from_tree != from_scan) {
        FAIL() << "pick " << picked_ << ": tree " << from_tree << ", scan "
               << from_scan;
      }
      ++picked_;
    }
  }

  void rebuild(const std::vector<double>& fractions) {
    ASSERT_TRUE(tree_.rebuild_fractions(fractions));
    ASSERT_TRUE(scan_.rebuild_fractions(fractions));
  }

  /// Checkpoint both engines; a dispatcher restored from each
  /// checkpoint must pick exactly what its donor picks from there on.
  void save_and_restore(uint64_t probe_picks) {
    for (SmoothRoundRobinDispatcher* donor : {&tree_, &scan_}) {
      std::vector<double> state;
      ASSERT_EQ(donor->save_state(state), 4 * donor->machine_count());
      std::vector<double> even(
          donor->machine_count(),
          1.0 / static_cast<double>(donor->machine_count()));
      SmoothRoundRobinDispatcher restored(Allocation(even),
                                          donor->engine());
      ASSERT_EQ(restored.restore_state(state), state.size());
      hs::rng::Xoshiro256 gen(2);
      for (uint64_t i = 0; i < probe_picks; ++i) {
        ASSERT_EQ(restored.pick(gen), donor->pick(gen))
            << "restored pick " << i << ", engine "
            << (donor->engine() == SmoothRrEngine::kTree ? "tree" : "scan");
      }
    }
  }

  /// The tree engine holds the scan's `next` values bit for bit.
  void expect_same_state() const {
    for (size_t m = 0; m < tree_.machine_count(); ++m) {
      ASSERT_EQ(tree_.assigned(m), scan_.assigned(m)) << "machine " << m;
      ASSERT_EQ(tree_.next_value(m), scan_.next_value(m)) << "machine " << m;
    }
  }

 private:
  SmoothRoundRobinDispatcher tree_;
  SmoothRoundRobinDispatcher scan_;
  uint64_t picked_ = 0;
};

std::vector<double> cluster15_speeds() {
  return {1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5,
          1.5, 2.0, 2.0, 2.0, 5.0, 10.0, 12.0};
}

/// Algorithm 1's fractions for the 15-machine cluster: equal-speed
/// groups get bit-identical fractions.
std::vector<double> orr15_fractions() {
  return hs::alloc::OptimizedAllocation()
      .compute(cluster15_speeds(), 0.7)
      .fractions();
}

/// Fractions whose `next` values collide on integers, up to the
/// rounding noise of 1/3 and 1/6: near-ties recur for the whole run.
/// Fifteen machines (the churn sets below), six of them active.
std::vector<double> near_tie_fractions() {
  return {0.25, 0.0,      0.25,     1.0 / 6, 0.0, 1.0 / 6, 0.0, 0.0,
          0.0,  1.0 / 12, 1.0 / 12, 0.0,     0.0, 0.0,     0.0};
}

/// One machine with 1/α = 2 + c·ε placed at `position` among small
/// equal-fraction machines: its `next` passes 1 + s·c·ε while the small
/// machines still wait at the guard value 1, so successive selections
/// walk it through the ε and 2ε tie windows around the guard.
std::vector<double> near_guard_fractions(double c, size_t position) {
  constexpr size_t kMachines = 7;
  const double big = 1.0 / (2.0 + c * kTieEps);
  std::vector<double> fractions(
      kMachines, (1.0 - big) / static_cast<double>(kMachines - 1));
  fractions[position] = big;
  return fractions;
}

TEST(SmoothRrCountDown, MatchesStepByStepCountdown) {
  // Values around every place a step can round: just below 0.5, around
  // zero, negative powers of two, significands whose low bits are all
  // ones or alternate (long carry chains in the round-half-even
  // halvings), and magnitudes near 2⁵⁰ and beyond.
  hs::rng::Xoshiro256 gen(7);
  std::vector<double> starts = {0.0,  -0.0, 0.5,    0.25,  -0.5, -1.0,
                                -2.0, 1.0,  1e-300, -1e-300, 0x1p50 - 0.5,
                                -0x1p50 + 3.0, 0x1p52, -0x1p53 - 2.0};
  for (int e = -4; e <= 24; ++e) {
    for (const uint64_t low :
         {uint64_t{0xFFFFFFFFFFFFF}, uint64_t{0x5555555555555},
          uint64_t{0xAAAAAAAAAAAAA}, uint64_t{1}}) {
      const double magnitude = std::ldexp(
          static_cast<double>((uint64_t{1} << 52) | low), e - 52);
      starts.push_back(magnitude);
      starts.push_back(-magnitude);
      starts.push_back(0.5 - magnitude * 0x1p-30);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    const double scale =
        std::ldexp(1.0, static_cast<int>(gen.next_u64() % 24) - 8);
    starts.push_back((gen.next_double() * 2.0 - 1.0) * scale);
  }
  for (const double start : starts) {
    double stepwise = start;
    for (uint64_t steps = 0; steps <= 2100; ++steps) {
      ASSERT_EQ(hs::dispatch::count_down(start, steps), stepwise)
          << "start " << start << ", steps " << steps;
      stepwise -= 1.0;
    }
  }
  // Long countdowns cross many binades in one call.
  for (int i = 0; i < 40; ++i) {
    const double start = (gen.next_double() - 0.3) * 40.0;
    const uint64_t steps = gen.next_u64() % (uint64_t{1} << 21);
    double stepwise = start;
    for (uint64_t k = 0; k < steps; ++k) {
      stepwise -= 1.0;
    }
    ASSERT_EQ(hs::dispatch::count_down(start, steps), stepwise)
        << "start " << start << ", steps " << steps;
  }
}

TEST(SmoothRrDifferential, DefaultEngineIsTree) {
  SmoothRoundRobinDispatcher d(Allocation({0.5, 0.5}));
  EXPECT_EQ(d.engine(), SmoothRrEngine::kTree);
  SmoothRoundRobinDispatcher ref(Allocation({0.5, 0.5}),
                                 SmoothRrEngine::kScan);
  EXPECT_EQ(ref.engine(), SmoothRrEngine::kScan);
}

TEST(SmoothRrDifferential, PaperWorkedExample) {
  // §3.2: {1/8, 1/8, 1/4, 1/2} → c4 c3 c4 c1 c4 c3 c4 c2 (0-based below).
  const std::vector<double> fractions = {1.0 / 8, 1.0 / 8, 1.0 / 4, 1.0 / 2};
  for (const SmoothRrEngine engine :
       {SmoothRrEngine::kTree, SmoothRrEngine::kScan}) {
    SmoothRoundRobinDispatcher d(Allocation(fractions), engine);
    hs::rng::Xoshiro256 gen(1);
    const std::vector<size_t> expected = {3, 2, 3, 0, 3, 2, 3, 1};
    for (int cycle = 0; cycle < 3; ++cycle) {
      for (const size_t machine : expected) {
        ASSERT_EQ(d.pick(gen), machine);
      }
    }
  }
  EngineHarness harness(fractions);
  harness.picks(100000);
  harness.expect_same_state();
}

TEST(SmoothRrDifferential, Orr15EqualSpeedGroups) {
  EngineHarness harness(orr15_fractions());
  harness.picks(300000);
  harness.expect_same_state();
}

TEST(SmoothRrDifferential, DyadicExactTies) {
  // Power-of-two fractions make every `next` exact, so ties are exact
  // and recur; the second set has 64 equal machines (a first cycle of
  // 64 tied guard values) and the third excludes machines.
  const std::vector<std::vector<double>> sets = {
      {0.5, 0.125, 0.125, 0.0625, 0.0625, 0.125},
      std::vector<double>(64, 1.0 / 64),
      {0.25, 0.0, 0.25, 0.125, 0.0, 0.125, 0.25},
  };
  for (const auto& fractions : sets) {
    EngineHarness harness(fractions);
    harness.picks(50000);
    harness.expect_same_state();
  }
}

TEST(SmoothRrDifferential, NearTiesAroundGuard) {
  for (const double c : {-2.5, -1.5, -0.5, 0.5, 1.5, 2.5, 3.5}) {
    for (const size_t position : {size_t{0}, size_t{3}, size_t{6}}) {
      SCOPED_TRACE("c " + std::to_string(c) + ", position " +
                   std::to_string(position));
      EngineHarness harness(near_guard_fractions(c, position));
      harness.picks(20000);
      harness.expect_same_state();
    }
  }
}

TEST(SmoothRrDifferential, LargeClusterRandomSpeeds) {
  hs::rng::Xoshiro256 gen(2024);
  std::vector<double> speeds(1000);
  for (double& s : speeds) {
    s = gen.uniform(0.5, 20.0);
  }
  EngineHarness harness(
      hs::alloc::OptimizedAllocation().compute(speeds, 0.7).fractions());
  harness.picks(200000);
  harness.expect_same_state();
}

// One sequence: ten million picks — past t ≈ 10⁷, where a key's ULP
// would exceed the tie tolerance were keys not re-based, with the
// recurring near-ties of near_tie_fractions() — then churn:
// re-allocations that change the active set (zeros), with checkpoints
// restored mid-cycle on both engines.
TEST(SmoothRrDifferential, TenMillionPicksWithChurnAndRestore) {
  EngineHarness harness(near_tie_fractions());
  harness.picks(10'000'000);
  harness.expect_same_state();

  std::vector<double> with_zeros = orr15_fractions();
  with_zeros[1] = 0.0;
  with_zeros[6] = 0.0;
  with_zeros[13] = 0.0;
  double sum = 0.0;
  for (const double f : with_zeros) {
    sum += f;
  }
  for (double& f : with_zeros) {
    f /= sum;
  }
  const std::vector<std::vector<double>> churn = {
      orr15_fractions(),
      with_zeros,
      {0.25, 0.0, 0.125, 0.125, 0.0, 0.0, 0.125, 0.125, 0.0, 0.0, 0.0, 0.0,
       0.0, 0.25, 0.0},
      {0.0, 0.25, 0.25, 1.0 / 6, 1.0 / 6, 1.0 / 12, 1.0 / 12, 0.0, 0.0, 0.0,
       0.0, 0.0, 0.0, 0.0, 0.0},
  };
  for (int round = 0; round < 40; ++round) {
    harness.rebuild(churn[static_cast<size_t>(round) % churn.size()]);
    harness.picks(25'000);
    if (round % 5 == 4) {
      harness.save_and_restore(5'000);
    }
    harness.picks(25'000);
    harness.expect_same_state();
  }
}

// Mid-schedule states built directly (through restore_state) with
// `next` values clustered a fraction of the tie tolerance apart — chains
// of near-ties in every machine order, against the guard value and
// across it — the cases where the tree engine must widen its candidate
// window and replay the scan's ε-hysteresis rule.
TEST(SmoothRrDifferential, CraftedNearTieStates) {
  hs::rng::Xoshiro256 gen(42);
  const double offsets[] = {0.0, 0.4, 0.9, 1.0, 1.1, 1.5, 1.6, 2.0,
                            2.1, 2.6, 3.1, 3.5, -0.6, -1.2, -2.2};
  for (int round = 0; round < 20000; ++round) {
    const size_t n = 4 + gen.next_u64() % 9;
    std::vector<double> fractions(n);
    double sum = 0.0;
    for (double& f : fractions) {
      const uint64_t kind = gen.next_u64() % 6;
      f = kind == 0 ? 0.0 : kind == 1 ? 1.0 : 0.5 + gen.next_double();
      sum += f;
    }
    if (sum == 0.0) {
      continue;
    }
    for (double& f : fractions) {
      f /= sum;
    }
    const double anchor = gen.next_u64() % 2 == 0 ? 1.0 : -0.3;
    std::vector<double> state(fractions);
    state.resize(4 * n);
    for (size_t m = 0; m < n; ++m) {
      double& assign = state[n + m];
      double& next = state[2 * n + m];
      double& started = state[3 * n + m];
      if (fractions[m] == 0.0 || gen.next_u64() % 3 == 0) {
        assign = 0.0;
        next = 1.0;
        started = 0.0;
      } else {
        assign = static_cast<double>(1 + gen.next_u64() % 4);
        next = anchor + offsets[gen.next_u64() % std::size(offsets)] * kTieEps;
        started = 1.0;
      }
    }
    SmoothRoundRobinDispatcher tree(Allocation(fractions),
                                    SmoothRrEngine::kTree);
    SmoothRoundRobinDispatcher scan(Allocation(fractions),
                                    SmoothRrEngine::kScan);
    ASSERT_EQ(tree.restore_state(state), state.size());
    ASSERT_EQ(scan.restore_state(state), state.size());
    hs::rng::Xoshiro256 pick_gen(1);
    for (int i = 0; i < 12; ++i) {
      ASSERT_EQ(tree.pick(pick_gen), scan.pick(pick_gen))
          << "round " << round << ", pick " << i;
    }
  }
}

TEST(SmoothRrDifferential, RestoreRejectsUnreachableStates) {
  for (const SmoothRrEngine engine :
       {SmoothRrEngine::kTree, SmoothRrEngine::kScan}) {
    SmoothRoundRobinDispatcher d(Allocation({0.5, 0.25, 0.25}), engine);
    hs::rng::Xoshiro256 gen(1);
    (void)d.pick(gen);
    std::vector<double> state;
    ASSERT_EQ(d.save_state(state), 12u);
    // Layout: fractions, assign, next, started (3 each).
    std::vector<double> started_without_jobs = state;
    started_without_jobs[9 + 1] = 1.0;
    EXPECT_EQ(d.restore_state(started_without_jobs), 0u);
    std::vector<double> unstarted_off_guard = state;
    unstarted_off_guard[6 + 2] = 0.5;
    EXPECT_EQ(d.restore_state(unstarted_off_guard), 0u);
    EXPECT_EQ(d.restore_state(state), 12u);
  }
}

}  // namespace
