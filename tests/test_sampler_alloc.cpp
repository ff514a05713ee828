// Allocation accounting for the weighted samplers and the in-place
// dispatcher rebuild paths.
//
// The million-machine dispatch work's core promise: once a sampler or
// dispatcher has been built for a cluster size, re-weighting it — the
// survivor re-allocations of the fault/breaker decorators and the
// governed adaptive mask rebuilds — performs ZERO heap allocations.
// These tests pin that with instrumented global operator new/delete,
// mirroring tests/test_event_alloc.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "alloc/optimized.h"
#include "core/policy.h"
#include "dispatch/random_dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "dispatch/swrr.h"
#include "rng/alias_table.h"
#include "rng/distributions.h"
#include "rng/rng.h"
#include "uncertainty/adaptive.h"

namespace {

std::atomic<uint64_t> g_news{0};

}  // namespace

// Count every allocation in the binary; tests diff the counter around
// the section under scrutiny.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using hs::core::PolicyKind;
using hs::dispatch::RandomDispatcher;
using hs::dispatch::SamplerKind;
using hs::dispatch::SmoothRoundRobinDispatcher;
using hs::dispatch::SmoothRrEngine;
using hs::dispatch::SwrrDispatcher;
using hs::rng::AliasTable;
using hs::rng::DiscreteChoice;
using hs::rng::Xoshiro256;

class AllocGuard {
 public:
  AllocGuard() : start_(g_news.load(std::memory_order_relaxed)) {}
  [[nodiscard]] uint64_t count() const {
    return g_news.load(std::memory_order_relaxed) - start_;
  }

 private:
  uint64_t start_;
};

constexpr size_t kMachines = 256;

std::vector<double> varied_weights(uint64_t round) {
  std::vector<double> weights(kMachines);
  for (size_t i = 0; i < kMachines; ++i) {
    weights[i] = 1.0 + static_cast<double>((i + round) % 17);
  }
  return weights;
}

// Same values scaled to sum to 1 (what rebuild_fractions requires).
std::vector<double> varied_fractions(uint64_t round) {
  std::vector<double> fractions = varied_weights(round);
  double sum = 0.0;
  for (double f : fractions) {
    sum += f;
  }
  for (double& f : fractions) {
    f /= sum;
  }
  return fractions;
}

TEST(SamplerAllocation, DiscreteChoiceRebuildIsAllocationFree) {
  DiscreteChoice choice(varied_weights(0));
  const std::vector<double> weights_a = varied_weights(1);
  const std::vector<double> weights_b = varied_weights(2);
  Xoshiro256 gen(3);
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    choice.rebuild(i % 2 == 0 ? weights_a : weights_b);
    (void)choice.sample(gen);
  }
  EXPECT_EQ(guard.count(), 0u);
}

TEST(SamplerAllocation, AliasTableRebuildIsAllocationFree) {
  const std::vector<double> weights_a = varied_weights(1);
  const std::vector<double> weights_b = varied_weights(2);
  AliasTable table{std::span<const double>(weights_a)};
  Xoshiro256 gen(5);
  AllocGuard guard;
  for (int i = 0; i < 1000; ++i) {
    table.rebuild(i % 2 == 0 ? weights_a : weights_b);
    (void)table.sample(gen);
  }
  EXPECT_EQ(guard.count(), 0u);
}

TEST(SamplerAllocation, RandomDispatcherRebuildIsAllocationFree) {
  for (const SamplerKind sampler : {SamplerKind::kCdf, SamplerKind::kAlias}) {
    RandomDispatcher dispatcher(hs::alloc::Allocation(varied_fractions(0)),
                                sampler);
    const std::vector<double> fractions_a = varied_fractions(1);
    const std::vector<double> fractions_b = varied_fractions(2);
    Xoshiro256 gen(7);
    ASSERT_TRUE(dispatcher.rebuild_fractions(fractions_a));  // warm
    AllocGuard guard;
    for (int i = 0; i < 500; ++i) {
      EXPECT_TRUE(
          dispatcher.rebuild_fractions(i % 2 == 0 ? fractions_a
                                                  : fractions_b));
      (void)dispatcher.pick(gen);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "sampler " << (sampler == SamplerKind::kAlias ? "alias" : "cdf");
  }
}

// Same values with every `stride`-th machine excluded (fraction 0),
// rescaled to sum to 1: rebuilds between these change the active count.
std::vector<double> fractions_with_zeros(uint64_t round, size_t stride) {
  std::vector<double> fractions = varied_weights(round);
  double sum = 0.0;
  for (size_t i = 0; i < kMachines; ++i) {
    if (i % stride == 0) {
      fractions[i] = 0.0;
    }
    sum += fractions[i];
  }
  for (double& f : fractions) {
    f /= sum;
  }
  return fractions;
}

TEST(SamplerAllocation, SmoothRoundRobinRebuildIsAllocationFree) {
  for (const SmoothRrEngine engine :
       {SmoothRrEngine::kTree, SmoothRrEngine::kScan}) {
    // No warm-up: construction sizes every buffer for all machines, so
    // even the first rebuild to a larger active set reuses them.
    SmoothRoundRobinDispatcher dispatcher(
        hs::alloc::Allocation(fractions_with_zeros(0, 3)), engine);
    const std::vector<std::vector<double>> churn = {
        varied_fractions(1), fractions_with_zeros(2, 2),
        varied_fractions(3), fractions_with_zeros(4, 5)};
    Xoshiro256 gen(9);
    AllocGuard guard;
    for (size_t i = 0; i < 500; ++i) {
      EXPECT_TRUE(dispatcher.rebuild_fractions(churn[i % churn.size()]));
      for (int j = 0; j < 300; ++j) {
        (void)dispatcher.pick(gen);
      }
    }
    EXPECT_EQ(guard.count(), 0u)
        << "engine " << (engine == SmoothRrEngine::kTree ? "tree" : "scan");
  }
}

// Construction cost is part of every adaptive re-solve and of the
// policy factories: it must stay a fixed handful of allocations (the
// copied fractions plus one buffer per piece of pick state), whatever
// the cluster size — never one per push_back growth step.
TEST(SamplerAllocation, SmoothRoundRobinConstructionAllocationsAreBounded) {
  std::vector<double> speeds15 = {1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5,
                                  1.5, 2.0, 2.0, 2.0, 5.0, 10.0, 12.0};
  std::vector<double> speeds1000(1000);
  Xoshiro256 speed_gen(2024);
  for (double& s : speeds1000) {
    s = speed_gen.uniform(0.5, 20.0);
  }
  for (const std::vector<double>* speeds : {&speeds15, &speeds1000}) {
    const hs::alloc::Allocation allocation =
        hs::alloc::OptimizedAllocation().compute(*speeds, 0.7);
    AllocGuard guard;
    SmoothRoundRobinDispatcher dispatcher(allocation);
    EXPECT_LE(guard.count(), 8u) << "n = " << speeds->size();
    // And picking allocates nothing.
    Xoshiro256 gen(3);
    AllocGuard pick_guard;
    for (int i = 0; i < 20000; ++i) {
      (void)dispatcher.pick(gen);
    }
    EXPECT_EQ(pick_guard.count(), 0u) << "n = " << speeds->size();
  }
}

TEST(SamplerAllocation, SwrrRebuildIsAllocationFree) {
  SwrrDispatcher dispatcher(hs::alloc::Allocation(varied_fractions(0)));
  const std::vector<double> fractions_a = varied_fractions(1);
  const std::vector<double> fractions_b = varied_fractions(2);
  Xoshiro256 gen(11);
  ASSERT_TRUE(dispatcher.rebuild_fractions(fractions_a));  // warm
  AllocGuard guard;
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(dispatcher.rebuild_fractions(i % 2 == 0 ? fractions_a
                                                        : fractions_b));
    (void)dispatcher.pick(gen);
  }
  EXPECT_EQ(guard.count(), 0u);
}

// The tentpole promise end-to-end: fault transitions on a static-policy
// stack (ORAN + alias sampler here) re-weight the live inner dispatcher
// through the policy reweighter — zero allocations per crash/recovery
// once the scratch buffers have seen each survivor-set size.
TEST(SamplerAllocation, FaultAwareSurvivorRebuildIsAllocationFree) {
  const std::vector<double> speeds = {4.0, 4.0, 2.0, 2.0, 1.0, 1.0};
  auto dispatcher = hs::core::make_fault_aware_dispatcher(
      PolicyKind::kORAN, speeds, 0.7, 1.0, SamplerKind::kAlias);
  Xoshiro256 gen(13);
  // Warm-up: visit every survivor-set size the loop below will touch.
  dispatcher->on_machine_state_report(1, false);
  dispatcher->on_machine_state_report(4, false);
  dispatcher->on_machine_state_report(1, true);
  dispatcher->on_machine_state_report(4, true);
  AllocGuard guard;
  for (int i = 0; i < 200; ++i) {
    dispatcher->on_machine_state_report(1, false);
    (void)dispatcher->pick(gen);
    dispatcher->on_machine_state_report(4, false);
    (void)dispatcher->pick(gen);
    dispatcher->on_machine_state_report(1, true);
    dispatcher->on_machine_state_report(4, true);
    (void)dispatcher->pick(gen);
  }
  EXPECT_EQ(guard.count(), 0u);
}

// Same promise for the CDF sampler (the default golden-pinned path).
TEST(SamplerAllocation, FaultAwareSurvivorRebuildCdfIsAllocationFree) {
  const std::vector<double> speeds = {4.0, 4.0, 2.0, 2.0, 1.0, 1.0};
  auto dispatcher = hs::core::make_fault_aware_dispatcher(
      PolicyKind::kORR, speeds, 0.7);
  Xoshiro256 gen(15);
  dispatcher->on_machine_state_report(2, false);
  dispatcher->on_machine_state_report(2, true);
  AllocGuard guard;
  for (int i = 0; i < 200; ++i) {
    dispatcher->on_machine_state_report(2, false);
    (void)dispatcher->pick(gen);
    dispatcher->on_machine_state_report(2, true);
    (void)dispatcher->pick(gen);
  }
  EXPECT_EQ(guard.count(), 0u);
}

// Governed adaptive mask rebuilds: the survivor re-solve (Algorithm 1
// over the estimated speeds), the normalization, the expansion, and the
// in-place install must all run out of retained scratch.
TEST(SamplerAllocation, GovernedAdaptiveMaskFlipIsAllocationFree) {
  const std::vector<double> speeds = {4.0, 2.0, 2.0, 1.0};
  hs::uncertainty::GovernedAdaptiveDispatcher dispatcher(speeds, 0.6);
  Xoshiro256 gen(17);
  std::vector<bool> degraded = {true, false, true, true};
  std::vector<bool> healthy = {true, true, true, true};
  // Warm-up: one full degrade/heal cycle sizes every scratch buffer.
  ASSERT_TRUE(dispatcher.set_available_mask(degraded));
  ASSERT_TRUE(dispatcher.set_available_mask(healthy));
  AllocGuard guard;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(dispatcher.set_available_mask(degraded));
    (void)dispatcher.pick(gen);
    EXPECT_TRUE(dispatcher.set_available_mask(healthy));
    (void)dispatcher.pick(gen);
  }
  EXPECT_EQ(guard.count(), 0u);
}

// Governed re-estimation: each tick re-solves Algorithm 1 from the fresh
// estimates into retained scratch and normalizes it into a reused
// proposal, so a tick the governor rejects allocates nothing.
TEST(SamplerAllocation, GovernedReestimationIsAllocationFree) {
  const std::vector<double> speeds = {4.0, 2.0, 2.0, 1.0};
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = 1.0;
  options.time_constant = 50.0;
  options.reestimate_every = 8;
  options.governor.min_improvement = 0.9;  // no proposal is good enough
  hs::uncertainty::GovernedAdaptiveDispatcher dispatcher(speeds, 0.6,
                                                         options);
  Xoshiro256 gen(19);
  double now = 0.0;
  size_t previous = speeds.size();
  // One job at a time, each busy until the next arrival with the work
  // its machine's true speed does in that time.
  const auto drive = [&](int arrivals) {
    for (int i = 0; i < arrivals; ++i) {
      now += 0.2;
      if (previous < speeds.size()) {
        dispatcher.on_departure_report(previous, now,
                                       0.2 * speeds[previous]);
      }
      dispatcher.on_arrival(now);
      previous = dispatcher.pick(gen);
    }
  };
  drive(400);  // warms the estimators and makes the proposal buffer
  const uint64_t rejections = dispatcher.governor().rejections();
  ASSERT_GT(rejections, 0u);
  AllocGuard guard;
  drive(4000);
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(dispatcher.governor().commits(), 0u);
  EXPECT_EQ(dispatcher.governor().rejections(), rejections + 500);
}

}  // namespace
