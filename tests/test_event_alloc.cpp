// Allocation accounting for the event engine.
//
// The typed-event refactor's core promise: once a run's backing arrays
// have grown to their working depth, scheduling, firing, cancelling and
// rescheduling events performs ZERO heap allocations. These tests pin
// that with instrumented global operator new/delete — if a std::function
// or stray container growth sneaks back onto the hot path, the counters
// catch it. The last two extend the pin from the engine to whole
// cluster runs, where a per-job hash node would otherwise go unseen.
//
// The counters are only read around explicitly bracketed sections, so
// the instrumentation does not interfere with gtest's own allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "cluster/config.h"
#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/decorator.h"
#include "dispatch/fault_aware.h"
#include "dispatch/hedged.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "overload/circuit_breaker.h"
#include "queueing/job.h"
#include "queueing/ps_server.h"
#include "rng/rng.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "uncertainty/adaptive.h"

namespace {

std::atomic<uint64_t> g_news{0};

}  // namespace

// Count every allocation in the binary; tests diff the counter around
// the section under scrutiny. All six are kept out of line: GCC 12
// inlines one side of a make_unique's new/delete pair and then warns
// that malloc() or free() meets the other (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using hs::queueing::Job;
using hs::queueing::PsServer;
using hs::rng::Xoshiro256;
using hs::sim::EventArgs;
using hs::sim::EventQueue;
using hs::sim::EventTarget;
using hs::sim::Simulator;

class AllocGuard {
 public:
  AllocGuard() : start_(g_news.load(std::memory_order_relaxed)) {}
  [[nodiscard]] uint64_t count() const {
    return g_news.load(std::memory_order_relaxed) - start_;
  }

 private:
  uint64_t start_;
};

class CountingTarget final : public EventTarget {
 public:
  void on_event(uint32_t, const EventArgs&) override { ++fired; }
  uint64_t fired = 0;
};

TEST(EventAllocation, TypedPushPopSteadyStateIsAllocationFree) {
  EventQueue queue;
  CountingTarget target;
  Xoshiro256 gen(11);
  // Grow the backing arrays past the working depth first (the loop below
  // reaches depth 257 for one push).
  queue.reserve(512);
  for (int i = 0; i < 256; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0,
               EventArgs::pack(i));
    queue.pop().fire();
    queue.push(gen.uniform(0.0, 1000.0), target, 1);  // no-args variant
    queue.pop().fire();
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(target.fired, 20000u);
}

TEST(EventAllocation, CancelAndRescheduleAreAllocationFree) {
  EventQueue queue;
  CountingTarget target;
  Xoshiro256 gen(13);
  for (int i = 0; i < 256; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), target, 0);
  }
  auto moving = queue.push(gen.uniform(0.0, 1000.0), target, 0);
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(queue.reschedule(moving, gen.uniform(0.0, 1000.0)));
    auto handle = queue.push(gen.uniform(0.0, 1000.0), target, 0);
    EXPECT_TRUE(queue.cancel(handle));
  }
  EXPECT_EQ(guard.count(), 0u);
}

TEST(EventAllocation, SmallCallbackCapturesStayInline) {
  EventQueue queue;
  Xoshiro256 gen(17);
  uint64_t sum = 0;
  // Warm the slot pool through the callback path so steady state below
  // only reuses slots (the loop reaches depth 257 for one push).
  queue.reserve(512);
  for (int i = 0; i < 256; ++i) {
    queue.push(gen.uniform(0.0, 1000.0), [&sum] { ++sum; });
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    // Capture well under InlineFn::kInlineCapacity: pointer + value.
    const uint64_t value = static_cast<uint64_t>(i);
    queue.push(gen.uniform(0.0, 1000.0), [&sum, value] { sum += value; });
    queue.pop().fire();  // earliest event: warm-up or freshly pushed
  }
  EXPECT_EQ(guard.count(), 0u);
  while (!queue.empty()) {
    queue.pop().fire();
  }
  // Every scheduled callback fired exactly once, in some time order.
  EXPECT_EQ(sum, 256u + 10000u * 9999u / 2u);
}

// With observability disabled (the default: no trace sink attached),
// the server's instrumentation sites are single never-taken branches —
// steady state stays allocation-free per event, exactly as before the
// obs/ subsystem existed.
TEST(EventAllocation, PsServerSteadyStateIsAllocationFree) {
  Simulator sim;
  PsServer server(sim, 1.0, 0);
  uint64_t completions = 0;
  server.set_completion_callback(
      [&completions](const hs::queueing::Completion&) { ++completions; });
  uint64_t id = 0;
  double t = 0.0;
  // Warm-up: grow the event queue, the server's active-job heap, and the
  // completion callback's storage.
  for (int i = 0; i < 512; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  EXPECT_EQ(guard.count(), 0u);
  sim.run_all();
  EXPECT_EQ(completions, id);
}

// Observability ON is allocation-free too: the trace ring is
// preallocated at construction, so record() is a handful of stores even
// across ring wrap-around.
TEST(EventAllocation, PsServerSteadyStateWithTracingIsAllocationFree) {
  Simulator sim;
  PsServer server(sim, 1.0, 0);
  // Small capacity so the steady-state loop wraps the ring many times.
  hs::obs::TraceSink sink(1024);
  server.set_trace_sink(&sink);
  uint64_t id = 0;
  double t = 0.0;
  for (int i = 0; i < 512; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&server, id, t] { server.arrive(Job{id, t, 0.4}); });
    ++id;
    sim.run_until(t);
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(sink.size(), sink.capacity());  // wrapped, silently counted
  EXPECT_GT(sink.overwritten(), 0u);
}

// A bounded queue in steady rejection churn allocates nothing either:
// arrive() refuses a job with a comparison against the resident count —
// the rejected Job never touches the server's storage.
TEST(EventAllocation, BoundedQueueRejectionsAreAllocationFree) {
  Simulator sim;
  PsServer server(sim, 1.0, 0);
  server.set_capacity(4);
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t id = 0;
  double t = 0.0;
  // Warm-up: arrivals outpace service (1.0 work every 0.5 s on a
  // speed-1 server), so the queue pins at capacity and most arrivals
  // bounce.
  for (int i = 0; i < 512; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&] {
      if (server.arrive(Job{id, t, 1.0})) {
        ++accepted;
      } else {
        ++rejected;
      }
    });
    ++id;
    sim.run_until(t);
  }
  EXPECT_GT(rejected, 0u);
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    t += 0.5;
    sim.schedule_at(t, [&] {
      if (server.arrive(Job{id, t, 1.0})) {
        ++accepted;
      } else {
        ++rejected;
      }
    });
    ++id;
    sim.run_until(t);
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_LE(server.queue_length(), 4u);
  sim.run_all();
  EXPECT_EQ(accepted + rejected, id);
}

// Sampling a reserved registry touches no allocator either: the flat
// sample matrix is grown once by reserve_samples().
TEST(EventAllocation, ReservedMetricsSamplingIsAllocationFree) {
  hs::obs::MetricsRegistry registry;
  double gauge_value = 0.0;
  uint64_t counter = 0;
  registry.register_gauge("g", [&gauge_value] { return gauge_value; });
  registry.register_counter("c", &counter);
  registry.reserve_samples(10000);
  AllocGuard guard;
  for (int i = 0; i < 10000; ++i) {
    gauge_value += 0.5;
    ++counter;
    registry.sample(static_cast<double>(i));
  }
  EXPECT_EQ(guard.count(), 0u);
  EXPECT_EQ(registry.sample_count(), 10000u);
}

struct SteadyState {
  uint64_t allocations = 0;
  uint64_t completions = 0;
  hs::cluster::SimulationResult result;  // the whole run's
};

/// Run `config` to the end and count the allocations made between its
/// first completion at or after 0.4·T and its first at or after 0.9·T:
/// by then the event heap, the PS heaps and the flight slab have grown
/// to their working depth, so every allocation left is per-job work.
/// `at_edge`, when set, runs at the window's open and at its close.
SteadyState steady_state_allocations(
    hs::cluster::SimulationConfig config,
    const std::vector<hs::dispatch::Dispatcher*>& schedulers,
    const std::function<void()>& at_edge = {}) {
  const double open = 0.4 * config.sim_time;
  const double close = 0.9 * config.sim_time;
  SteadyState window;
  uint64_t start = 0;
  bool opened = false;
  bool closed = false;
  config.completion_hook = [&](const hs::queueing::Completion& c, bool) {
    if (closed || (!opened && c.departure_time < open)) {
      return;
    }
    const uint64_t news = g_news.load(std::memory_order_relaxed);
    if (!opened) {
      opened = true;
      start = news;
    } else if (c.departure_time >= close) {
      closed = true;
      window.allocations = news - start;
    } else {
      ++window.completions;
      return;
    }
    if (at_edge) {
      at_edge();
    }
  };
  window.result = hs::cluster::run_simulation_multi(config, schedulers);
  EXPECT_TRUE(closed);
  return window;
}

SteadyState steady_state_allocations(
    hs::cluster::SimulationConfig config, hs::dispatch::Dispatcher& dispatcher,
    const std::function<void()>& at_edge = {}) {
  return steady_state_allocations(std::move(config), {&dispatcher}, at_edge);
}

// Least-Load on the paper's cluster and workload, with per-departure
// reports.
TEST(EventAllocation, LeastLoadFullRunIsAllocationFree) {
  hs::cluster::SimulationConfig config;
  config.speeds = hs::cluster::ClusterConfig::paper_base().speeds();
  config.rho = 0.7;
  config.sim_time = 2e5;
  config.seed = 1;
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  const SteadyState window = steady_state_allocations(config, *dispatcher);
  EXPECT_GT(window.completions, 30000u);
  EXPECT_EQ(window.allocations, 0u);
}

// Two Least-Load front-ends on the same cluster: each departure report
// goes back to the job's sender, which the job record carries, so no
// per-job state is kept on the side (a sender map cost one allocation
// per completion). The window still sees the PS heaps' last high-water
// doublings: split across two front-ends, Least-Load gives the slow
// machines their second to fourth concurrent job for the first time late
// in the run. A probe traced all 3 at this seed to PsServer::arrive.
TEST(EventAllocation, MultiSchedulerFullRunIsAllocationFree) {
  hs::cluster::SimulationConfig config;
  config.speeds = hs::cluster::ClusterConfig::paper_base().speeds();
  config.rho = 0.7;
  config.sim_time = 2e5;
  config.seed = 1;
  auto first = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  auto second = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  const SteadyState window =
      steady_state_allocations(config, {first.get(), second.get()});
  EXPECT_GT(window.completions, 30000u);
  EXPECT_LE(window.allocations, 3u);
}

// Hedged Least-Load on the asynchronous dispatch path, with lossy and
// duplicating links, heartbeats and bounded queues: flights live in a
// reused slab and a losing copy is evicted in place.
TEST(EventAllocation, HedgedNetworkFullRunIsAllocationFree) {
  hs::cluster::SimulationConfig config;
  config.speeds = {4.0, 2.0, 1.0, 1.0};
  config.rho = 0.7;
  config.sim_time = 1e5;
  config.seed = 1;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.network.dispatch_link.loss = 0.05;
  config.network.dispatch_link.duplicate = 0.02;
  config.network.report_link.loss = 0.05;
  config.network.heartbeat.interval = 2.0;
  config.overload.queue_capacity = 64;
  hs::dispatch::HedgedDispatcher dispatcher(
      hs::core::make_policy_dispatcher(hs::core::PolicyKind::kLeastLoad,
                                       config.speeds, config.rho),
      hs::dispatch::HedgingConfig{5.0});
  const SteadyState window = steady_state_allocations(config, dispatcher);
  EXPECT_GT(window.completions, 100000u);
  EXPECT_GT(dispatcher.issued(), 0u);
  EXPECT_EQ(window.allocations, 0u);
}

// The sim-chaos15 benchmark stack and config (bench/e2e): crashes with
// retries, bounded queues with shedding, a retry budget, biased beliefs,
// speed drift, stale load reports, a partition, heartbeats, hedging and
// a breaker over the governed adaptive ORR. A crash evicts into one
// reused buffer and a re-estimation the governor rejects re-solves in
// retained scratch, so the window allocates nothing.
TEST(EventAllocation, ChaosStackFullRunIsAllocationFree) {
  hs::cluster::SimulationConfig c;
  c.speeds = {1.0, 1.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5,
              1.5, 2.0, 2.0, 2.0, 5.0, 10.0, 12.0};
  c.rho = 0.7;
  c.warmup_frac = 0.25;
  c.sim_time = 3e4;
  c.seed = 1;
  c.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  c.workload.size_kind = hs::workload::SizeKind::kExponential;
  c.workload.fixed_or_mean_size = 1.0;
  c.faults.processes.assign(c.speeds.size(), {2000.0, 150.0});
  c.faults.retry.max_attempts = 4;
  c.faults.retry.backoff_initial = 1.0;
  c.overload.queue_capacity = 64;
  c.overload.admission = hs::overload::AdmissionKind::kQueueBoundShed;
  c.overload.retry_budget.enabled = true;
  c.uncertainty.lambda_error.bias = 0.7;
  c.uncertainty.speed_error.noise_cv = 0.1;
  c.uncertainty.drift.kind = hs::uncertainty::DriftKind::kRamp;
  c.uncertainty.drift.ramp_start = 2000.0;
  c.uncertainty.drift.ramp_end = 10000.0;
  c.uncertainty.drift.start_factor = 0.8;
  c.uncertainty.drift.end_factor = 1.2;
  c.uncertainty.staleness.update_interval = 50.0;
  c.uncertainty.staleness.report_delay = 5.0;
  c.network.partitions.push_back({5000.0, 400.0, {1}});
  c.network.heartbeat.interval = 2.0;
  c.network.heartbeat.phi_threshold = 4.0;
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size = c.workload.mean_job_size();
  options.time_constant = 1000.0;
  options.reestimate_every = 256;
  hs::overload::CircuitBreakerDispatcher stack(
      std::make_unique<hs::dispatch::HedgedDispatcher>(
          std::make_unique<hs::dispatch::FaultAwareDispatcher>(
              hs::core::make_adaptive_dispatcher(
                  hs::core::PolicyKind::kORR, c.speeds,
                  c.rho * c.uncertainty.lambda_error.bias, options)),
          hs::dispatch::HedgingConfig{/*delay=*/5.0}),
      hs::overload::CircuitBreakerConfig{});
  const auto* core = hs::dispatch::find_layer<
      hs::uncertainty::GovernedAdaptiveDispatcher>(stack);
  ASSERT_NE(core, nullptr);
  uint64_t proposals[2] = {0, 0};
  uint64_t mask_rebuilds[2] = {0, 0};
  size_t edge = 0;
  const SteadyState window = steady_state_allocations(c, stack, [&] {
    proposals[edge] = core->governor().proposals();
    mask_rebuilds[edge] = core->mask_rebuilds();
    ++edge;
  });
  EXPECT_GT(window.completions, 300000u);
  EXPECT_GT(window.result.jobs_lost, 0u);
  // Re-estimations and crash-driven mask rebuilds inside the window (a
  // re-estimation proposes nothing while a machine is masked out).
  EXPECT_GT(proposals[1] - proposals[0], 300u);
  EXPECT_GT(mask_rebuilds[1] - mask_rebuilds[0], 0u);
  EXPECT_EQ(window.allocations, 0u);
}

}  // namespace
