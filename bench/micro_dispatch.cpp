// Microbenchmarks for the per-job dispatching decision — the operation
// on the request hot path of a deployed scheduler.
//
// The argument is the cluster size n, swept to 10⁶ machines so the
// complexity claims of docs/PERFORMANCE.md are measured, not assumed:
//   * random dispatch — O(log n) CDF binary search vs the O(1) alias
//     table (BM_RandomPick / BM_RandomPickAlias),
//   * least-load — O(log n) tournament tree vs the O(n) reference scan
//     (BM_LeastLoadPick / BM_LeastLoadPickScan),
//   * smooth round-robin (the paper's Algorithm 2) — O(log n) keyed
//     tournament trees vs the O(n) reference scan (BM_SmoothRrPick /
//     BM_SmoothRrPickScan), and its O(n) construction (BM_SmoothRrBuild),
//   * SWRR, whose per-pick scan is O(active machines) (BM_SwrrPick).
// Sampling *quality* (empirical vs target fractions) is evaluated by the
// self-asserting harness in bench/eval_sampling.cpp.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "alloc/optimized.h"
#include "dispatch/least_load.h"
#include "dispatch/random_dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "dispatch/swrr.h"
#include "rng/rng.h"

namespace {

std::vector<double> random_speeds(size_t n) {
  hs::rng::Xoshiro256 gen(2024);
  std::vector<double> speeds(n);
  for (double& s : speeds) {
    s = gen.uniform(0.5, 20.0);
  }
  return speeds;
}

hs::alloc::Allocation allocation_for(size_t n) {
  return hs::alloc::OptimizedAllocation().compute(random_speeds(n), 0.7);
}

// The simulation only ever calls pick() through a Dispatcher* (the
// policy factories return unique_ptr<Dispatcher>), so the pick loops
// measure that indirect call, not a devirtualized concrete call the
// production hot path never makes. DoNotOptimize on the pointer keeps
// the compiler from proving the dynamic type and inlining anyway.
template <typename Concrete>
void pick_loop(benchmark::State& state, std::unique_ptr<Concrete> owned) {
  std::unique_ptr<hs::dispatch::Dispatcher> dispatcher = std::move(owned);
  benchmark::DoNotOptimize(dispatcher);
  hs::rng::Xoshiro256 gen(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatcher->pick(gen));
  }
  state.SetItemsProcessed(state.iterations());
}

// n ∈ {8, 64, 512} are the original small-cluster points (kept so the
// regression gate's history stays comparable); 10²–10⁶ is the scaling
// surface.
void large_n_args(benchmark::internal::Benchmark* bench) {
  bench->Arg(8)->Arg(64)->Arg(100)->Arg(512)->Arg(1000)->Arg(10000)
      ->Arg(100000)->Arg(1000000);
}

void BM_SmoothRrPick(benchmark::State& state) {
  pick_loop(state,
            std::make_unique<hs::dispatch::SmoothRoundRobinDispatcher>(
                allocation_for(static_cast<size_t>(state.range(0)))));
}
BENCHMARK(BM_SmoothRrPick)->Apply(large_n_args);

void BM_SmoothRrPickScan(benchmark::State& state) {
  pick_loop(state,
            std::make_unique<hs::dispatch::SmoothRoundRobinDispatcher>(
                allocation_for(static_cast<size_t>(state.range(0))),
                hs::dispatch::SmoothRrEngine::kScan));
}
BENCHMARK(BM_SmoothRrPickScan)->Apply(large_n_args);

// Construction from an Allocation lvalue, as the adaptive dispatchers
// re-solve it: a copy of the fractions plus the O(n) build of the pick
// state. n = 15 is the paper's cluster size.
void BM_SmoothRrBuild(benchmark::State& state) {
  const hs::alloc::Allocation allocation =
      allocation_for(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    hs::dispatch::SmoothRoundRobinDispatcher dispatcher(allocation);
    benchmark::DoNotOptimize(dispatcher);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SmoothRrBuild)->Arg(15)->Arg(1000)->Arg(100000);

void BM_SwrrPick(benchmark::State& state) {
  pick_loop(state, std::make_unique<hs::dispatch::SwrrDispatcher>(
                       allocation_for(static_cast<size_t>(state.range(0)))));
}
BENCHMARK(BM_SwrrPick)->Apply(large_n_args);

void BM_RandomPick(benchmark::State& state) {
  pick_loop(state, std::make_unique<hs::dispatch::RandomDispatcher>(
                       allocation_for(static_cast<size_t>(state.range(0)))));
}
BENCHMARK(BM_RandomPick)->Apply(large_n_args);

void BM_RandomPickAlias(benchmark::State& state) {
  pick_loop(state, std::make_unique<hs::dispatch::RandomDispatcher>(
                       allocation_for(static_cast<size_t>(state.range(0))),
                       hs::dispatch::SamplerKind::kAlias));
}
BENCHMARK(BM_RandomPickAlias)->Apply(large_n_args);

void least_load_loop(benchmark::State& state,
                     hs::dispatch::LeastLoadEngine engine) {
  std::unique_ptr<hs::dispatch::Dispatcher> dispatcher =
      std::make_unique<hs::dispatch::LeastLoadDispatcher>(
          random_speeds(static_cast<size_t>(state.range(0))), engine);
  benchmark::DoNotOptimize(dispatcher);
  hs::rng::Xoshiro256 gen(1);
  size_t since_report = 0;
  for (auto _ : state) {
    const size_t machine = dispatcher->pick(gen);
    benchmark::DoNotOptimize(machine);
    // Keep queues bounded: report a departure for every pick.
    if (++since_report > 1) {
      dispatcher->on_departure_report(machine);
      since_report = 0;
    }
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_LeastLoadPick(benchmark::State& state) {
  least_load_loop(state, hs::dispatch::LeastLoadEngine::kTree);
}
BENCHMARK(BM_LeastLoadPick)->Apply(large_n_args);

void BM_LeastLoadPickScan(benchmark::State& state) {
  least_load_loop(state, hs::dispatch::LeastLoadEngine::kScan);
}
BENCHMARK(BM_LeastLoadPickScan)->Apply(large_n_args);

// Survivor re-weighting cost: one allocation-free rebuild_fractions()
// call on a live random dispatcher (the fault/adaptive re-allocation
// path), per sampler. O(n) either way — the point is the constant and
// the zero allocations, pinned by tests/test_sampler_alloc.cpp.
void random_rebuild_loop(benchmark::State& state,
                         hs::dispatch::SamplerKind sampler) {
  const size_t n = static_cast<size_t>(state.range(0));
  hs::dispatch::RandomDispatcher dispatcher{allocation_for(n), sampler};
  const std::vector<double> fractions = allocation_for(n).fractions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dispatcher.rebuild_fractions(fractions));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RandomRebuild(benchmark::State& state) {
  random_rebuild_loop(state, hs::dispatch::SamplerKind::kCdf);
}
BENCHMARK(BM_RandomRebuild)->Arg(100)->Arg(10000)->Arg(1000000);

void BM_RandomRebuildAlias(benchmark::State& state) {
  random_rebuild_loop(state, hs::dispatch::SamplerKind::kAlias);
}
BENCHMARK(BM_RandomRebuildAlias)->Arg(100)->Arg(10000)->Arg(1000000);

}  // namespace
