// Microbenchmarks for the serving runtime: the cost of one routed
// request through ServingDispatcher (lock + clock read + policy pick +
// feedback) and how it scales under thread contention.
//
//   * BM_ServingAcquireRelease — sustained acquire+release pairs/sec on
//     a shared dispatcher from 1..16 threads (UseRealTime, so the
//     reported rate is wall-clock aggregate throughput). The 1-thread
//     row is the uncontended library overhead over a bare pick();
//     higher rows measure the TTAS spinlock under load.
//   * BM_ServingAcquireP99 — tail decision latency. Manual-time trick:
//     each iteration times a batch of individual acquires and reports
//     the batch's p99 as its iteration time, so the benchmark's
//     real_time IS the p99 (and bench_to_json's min-over-rounds keeps
//     the most contention-free estimate). The acceptance target is
//     p99 <= 1µs at n = 10⁴ for Least-Load and alias-sampled ORAN; ORR
//     (BM_ServingAcquireP99Orr) is measured alongside.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "core/policy.h"
#include "dispatch/dispatcher.h"
#include "rng/rng.h"
#include "serving/serving_dispatcher.h"

namespace {

using hs::core::PolicyKind;
using hs::dispatch::SamplerKind;

std::vector<double> random_speeds(size_t n) {
  hs::rng::Xoshiro256 gen(2024);
  std::vector<double> speeds(n);
  for (double& s : speeds) {
    s = gen.uniform(0.5, 20.0);
  }
  return speeds;
}

// Threaded benchmarks share one stack across all threads; Setup/Teardown
// run once per benchmark run, outside the timed region.
struct ServingStack {
  std::unique_ptr<hs::dispatch::Dispatcher> inner;
  std::unique_ptr<hs::serving::ServingDispatcher> serving;
};
ServingStack g_stack;  // NOLINT(cert-err58-cpp)

void build_stack(PolicyKind kind, SamplerKind sampler, size_t n,
                 bool health = false) {
  g_stack.inner =
      hs::core::make_policy_dispatcher(kind, random_speeds(n), 0.7, 1.0,
                                       sampler);
  hs::serving::ServingConfig config;
  config.seed = 99;
  if (health) {
    // Armed but never firing (the deadline is beyond any bench run):
    // measures the detection layer's steady-state hot-path cost — one
    // ring store per acquire, one FIFO absorb per release, one expired
    // compare per pick.
    config.health.release_deadline = 1e9;
  }
  g_stack.serving = std::make_unique<hs::serving::ServingDispatcher>(
      *g_stack.inner, config);
}

void teardown_stack(const benchmark::State&) {
  g_stack.serving.reset();
  g_stack.inner.reset();
}

// --- Sustained throughput under contention -------------------------------

void acquire_release_loop(benchmark::State& state) {
  hs::serving::ServingDispatcher& serving = *g_stack.serving;
  for (auto _ : state) {
    const size_t machine = serving.acquire(1.0);
    (void)serving.release(machine, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ServingAcquireRelease(benchmark::State& state) {
  acquire_release_loop(state);
}
BENCHMARK(BM_ServingAcquireRelease)
    ->Setup([](const benchmark::State& state) {
      build_stack(PolicyKind::kLeastLoad, SamplerKind::kCdf,
                  static_cast<size_t>(state.range(0)));
    })
    ->Teardown(teardown_stack)
    ->Arg(10000)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Threads(16)
    ->UseRealTime();

void BM_ServingAcquireReleaseAlias(benchmark::State& state) {
  acquire_release_loop(state);
}
BENCHMARK(BM_ServingAcquireReleaseAlias)
    ->Setup([](const benchmark::State& state) {
      build_stack(PolicyKind::kORAN, SamplerKind::kAlias,
                  static_cast<size_t>(state.range(0)));
    })
    ->Teardown(teardown_stack)
    ->Arg(10000)
    ->Threads(1)
    ->Threads(4)
    ->Threads(16)
    ->UseRealTime();

// --- Tail decision latency ----------------------------------------------

// One iteration = one batch; the iteration's manual time is the batch
// p99 of individual acquire() wall times, so the benchmark's real_time
// column reads directly in seconds-at-p99. Single-threaded by design —
// the acceptance gate targets uncontended tail latency.
//
// Iterations must be pinned explicitly: manual time accrues ~10³×
// slower than the wall (a ~1 ms batch credits only its ~1 µs p99), so
// google-benchmark's default accrue-until-min_time targeting would run
// for minutes. 64 batches ≈ 130k timed acquires in well under a second.
void acquire_p99_loop(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  constexpr size_t kBatch = 2048;
  hs::serving::ServingDispatcher& serving = *g_stack.serving;
  std::vector<double> lat(kBatch);
  for (auto _ : state) {
    for (size_t i = 0; i < kBatch; ++i) {
      const auto t0 = Clock::now();
      const size_t machine = serving.acquire(1.0);
      const auto t1 = Clock::now();
      (void)serving.release(machine, 1.0);
      lat[i] = std::chrono::duration<double>(t1 - t0).count();
    }
    const size_t k = (kBatch * 99) / 100;
    std::nth_element(lat.begin(), lat.begin() + static_cast<long>(k),
                     lat.end());
    state.SetIterationTime(lat[k]);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ServingAcquireP99LeastLoad(benchmark::State& state) {
  acquire_p99_loop(state);
}
BENCHMARK(BM_ServingAcquireP99LeastLoad)
    ->Setup([](const benchmark::State& state) {
      build_stack(PolicyKind::kLeastLoad, SamplerKind::kCdf,
                  static_cast<size_t>(state.range(0)));
    })
    ->Teardown(teardown_stack)
    ->Arg(10000)
    ->Iterations(64)
    ->UseManualTime();

void BM_ServingAcquireP99Alias(benchmark::State& state) {
  acquire_p99_loop(state);
}
BENCHMARK(BM_ServingAcquireP99Alias)
    ->Setup([](const benchmark::State& state) {
      build_stack(PolicyKind::kORAN, SamplerKind::kAlias,
                  static_cast<size_t>(state.range(0)));
    })
    ->Teardown(teardown_stack)
    ->Arg(10000)
    ->Iterations(64)
    ->UseManualTime();

// The paper's own policy: ORR (Algorithm 1's allocation dispatched by
// Algorithm 2's smooth round-robin) behind the same serving path.
void BM_ServingAcquireP99Orr(benchmark::State& state) {
  acquire_p99_loop(state);
}
BENCHMARK(BM_ServingAcquireP99Orr)
    ->Setup([](const benchmark::State& state) {
      build_stack(PolicyKind::kORR, SamplerKind::kCdf,
                  static_cast<size_t>(state.range(0)));
    })
    ->Teardown(teardown_stack)
    ->Arg(10000)
    ->Iterations(64)
    ->UseManualTime();

// The health layer's tax on the tail: deadline tracking armed on every
// acquire (but never expiring), against the same Least-Load stack as
// BM_ServingAcquireP99LeastLoad. The acceptance gate holds this within
// 1% of the health-free p99.
void BM_ServingAcquireP99Health(benchmark::State& state) {
  acquire_p99_loop(state);
}
BENCHMARK(BM_ServingAcquireP99Health)
    ->Setup([](const benchmark::State& state) {
      build_stack(PolicyKind::kLeastLoad, SamplerKind::kCdf,
                  static_cast<size_t>(state.range(0)), /*health=*/true);
    })
    ->Teardown(teardown_stack)
    ->Arg(10000)
    ->Iterations(64)
    ->UseManualTime();

}  // namespace
