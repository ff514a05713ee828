// Microbenchmarks for the simulation engine: event queue throughput and
// end-to-end jobs/second of the full cluster simulation. The tracked
// numbers live in BENCH_sim.json (see docs/PERFORMANCE.md for the
// update workflow).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "cluster/sim.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "queueing/ps_server.h"
#include "rng/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace {

/// No-op target for typed-event benchmarks.
class NullTarget final : public hs::sim::EventTarget {
 public:
  void on_event(uint32_t kind, const hs::sim::EventArgs&) override {
    benchmark::DoNotOptimize(kind);
  }
};

// Steady-state push+pop at a fixed heap depth, through the SBO callback
// fallback path (what tests and ad-hoc hooks use).
void BM_EventQueuePushPop(benchmark::State& state) {
  hs::sim::EventQueue queue;
  hs::rng::Xoshiro256 gen(3);
  const size_t depth = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < depth; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), [] {});
  }
  for (auto _ : state) {
    queue.push(gen.uniform(0.0, 1000.0), [] {});
    auto event = queue.pop();
    benchmark::DoNotOptimize(event.time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueuePushPop)->Arg(64)->Arg(4096)->Arg(65536);

// Steady-state push+pop of typed events — the hot path the simulation
// itself runs on.
void BM_EventQueueTypedPushPop(benchmark::State& state) {
  hs::sim::EventQueue queue;
  NullTarget target;
  hs::rng::Xoshiro256 gen(3);
  const size_t depth = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < depth; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  for (auto _ : state) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
    auto event = queue.pop();
    benchmark::DoNotOptimize(event.time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTypedPushPop)->Arg(64)->Arg(4096)->Arg(65536);

// Steady-state push+cancel at a fixed heap depth. The pre-filled window
// keeps the depth constant: cancellation removes its entry eagerly, so
// the heap holds exactly `depth` + 1 entries throughout and the loop
// measures real cancel cost, not an ever-deeper sift on a heap that
// only grows (the bug the original bench had under lazy deletion).
void BM_EventQueueCancel(benchmark::State& state) {
  hs::sim::EventQueue queue;
  NullTarget target;
  hs::rng::Xoshiro256 gen(5);
  const size_t depth = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < depth; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  for (auto _ : state) {
    auto handle = queue.push(gen.uniform(0.0, 1000.0), target, 0);
    benchmark::DoNotOptimize(queue.cancel(handle));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueCancel)->Arg(64)->Arg(4096);

// In-place reschedule of one event in a heap of `depth` others — the
// operation the PS server performs on every arrival.
void BM_EventQueueReschedule(benchmark::State& state) {
  hs::sim::EventQueue queue;
  NullTarget target;
  hs::rng::Xoshiro256 gen(9);
  const size_t depth = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < depth; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  auto handle = queue.push(gen.uniform(0.0, 1000.0), target, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        queue.reschedule(handle, gen.uniform(0.0, 1000.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueReschedule)->Arg(64)->Arg(4096);

void BM_PsServerArrivalDeparture(benchmark::State& state) {
  hs::sim::Simulator sim;
  hs::queueing::PsServer server(sim, 1.0, 0);
  hs::rng::Xoshiro256 gen(7);
  uint64_t id = 0;
  double t = 0.0;
  for (auto _ : state) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] {
      server.arrive(hs::queueing::Job{id, t, 0.4});
    });
    ++id;
    sim.run_until(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsServerArrivalDeparture);

// Hedge cancellation on a PS server at a steady depth: evict one random
// resident job, then arrive one in its place. Sizes are large enough
// that nothing departs, so each iteration is exactly one evict plus one
// arrive.
void BM_PsServerEvict(benchmark::State& state) {
  hs::sim::Simulator sim;
  hs::queueing::PsServer server(sim, 1.0, 0);
  hs::rng::Xoshiro256 gen(11);
  const auto depth = static_cast<size_t>(state.range(0));
  std::vector<uint64_t> resident(depth);
  uint64_t id = 0;
  for (uint64_t& slot : resident) {
    slot = id;
    server.arrive(hs::queueing::Job{id++, 0.0, gen.uniform(1e6, 2e6)});
  }
  for (auto _ : state) {
    uint64_t& victim = resident[gen.next_below(depth)];
    benchmark::DoNotOptimize(server.evict(victim));
    victim = id;
    server.arrive(hs::queueing::Job{id++, 0.0, gen.uniform(1e6, 2e6)});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PsServerEvict)->Arg(16)->Arg(64)->Arg(1024);

hs::cluster::SimulationConfig cluster_bench_config() {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5,
                   2.0, 2.0, 2.0, 5.0, 10.0, 12.0};
  config.rho = 0.7;
  config.sim_time = 50000.0;
  config.warmup_frac = 0.25;
  return config;
}

// End-to-end jobs/second of a full cluster run under a policy. The
// counters make the simulator's throughput visible so the cost of
// --paper-scale runs can be predicted.
void run_cluster_bench(benchmark::State& state, hs::core::PolicyKind kind) {
  hs::cluster::SimulationConfig config = cluster_bench_config();
  uint64_t jobs = 0;
  uint64_t events = 0;
  uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    auto dispatcher =
        hs::core::make_policy_dispatcher(kind, config.speeds, config.rho);
    const auto result = hs::cluster::run_simulation(config, *dispatcher);
    jobs += result.completed_jobs;
    events += result.events_fired;
    benchmark::DoNotOptimize(result.mean_response_ratio);
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

// ORR: the paper's headline static policy; pure typed-event hot loop.
void BM_FullClusterSimulation(benchmark::State& state) {
  run_cluster_bench(state, hs::core::PolicyKind::kORR);
}
BENCHMARK(BM_FullClusterSimulation)->Unit(benchmark::kMillisecond);

// Dynamic Least-Load: adds the delayed departure-report feedback path.
void BM_FullClusterSimulationLeastLoad(benchmark::State& state) {
  run_cluster_bench(state, hs::core::PolicyKind::kLeastLoad);
}
BENCHMARK(BM_FullClusterSimulationLeastLoad)->Unit(benchmark::kMillisecond);

// Same ORR run with full observability attached (trace sink + sampled
// metrics registry, no file I/O). The gap to BM_FullClusterSimulation
// is the recording overhead when observability is ON; the zero-overhead
// -off claim is pinned separately by the interleaved A/B runs recorded
// in BENCH_sim.json.
void BM_FullClusterSimulationTraced(benchmark::State& state) {
  hs::cluster::SimulationConfig config = cluster_bench_config();
  hs::obs::TraceSink sink;
  hs::obs::MetricsRegistry registry;
  hs::obs::Observer observer;
  observer.trace = &sink;
  observer.metrics = &registry;
  observer.sample_interval = 60.0;
  config.observer = &observer;
  uint64_t jobs = 0;
  uint64_t events = 0;
  uint64_t seed = 0;
  for (auto _ : state) {
    config.seed = ++seed;
    sink.clear();
    auto dispatcher = hs::core::make_policy_dispatcher(
        hs::core::PolicyKind::kORR, config.speeds, config.rho);
    const auto result = hs::cluster::run_simulation(config, *dispatcher);
    jobs += result.completed_jobs;
    events += result.events_fired;
    benchmark::DoNotOptimize(result.mean_response_ratio);
    benchmark::DoNotOptimize(sink.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(jobs));
  state.counters["jobs/s"] = benchmark::Counter(
      static_cast<double>(jobs), benchmark::Counter::kIsRate);
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullClusterSimulationTraced)->Unit(benchmark::kMillisecond);

}  // namespace
