// Tests for the observability subsystem (src/obs/): trace ring buffer,
// Chrome trace export, metrics registry/sampler, and the wiring into
// cluster simulation runs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "cluster/sim.h"
#include "core/policy.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/csv.h"

namespace {

using hs::obs::MetricsRegistry;
using hs::obs::Observer;
using hs::obs::TraceEventKind;
using hs::obs::TraceRecord;
using hs::obs::TraceSink;

// ---- TraceSink ring buffer ----

TEST(TraceSink, RecordsInOrder) {
  TraceSink sink(8);
  sink.record(1.0, TraceEventKind::kArrival, 10, TraceSink::kScheduler);
  sink.record(2.0, TraceEventKind::kDispatch, 10, 3, 0, 42.0);
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_FALSE(sink.empty());
  EXPECT_EQ(sink.overwritten(), 0u);
  EXPECT_DOUBLE_EQ(sink.at(0).time, 1.0);
  EXPECT_EQ(sink.at(0).kind, TraceEventKind::kArrival);
  EXPECT_EQ(sink.at(0).machine, TraceSink::kScheduler);
  EXPECT_EQ(sink.at(1).job, 10u);
  EXPECT_EQ(sink.at(1).machine, 3);
  EXPECT_DOUBLE_EQ(sink.at(1).aux, 42.0);
}

TEST(TraceSink, OverwritesOldestWhenFull) {
  TraceSink sink(4);
  for (uint64_t i = 0; i < 6; ++i) {
    sink.record(static_cast<double>(i), TraceEventKind::kArrival, i, 0);
  }
  EXPECT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.capacity(), 4u);
  EXPECT_EQ(sink.overwritten(), 2u);
  // Records 0 and 1 were overwritten; the survivors are 2..5 oldest-first.
  for (size_t i = 0; i < sink.size(); ++i) {
    EXPECT_EQ(sink.at(i).job, i + 2) << "slot " << i;
  }
}

TEST(TraceSink, ClearKeepsCapacity) {
  TraceSink sink(4);
  for (uint64_t i = 0; i < 10; ++i) {
    sink.record(0.0, TraceEventKind::kArrival, i, 0);
  }
  sink.clear();
  EXPECT_TRUE(sink.empty());
  EXPECT_EQ(sink.overwritten(), 0u);
  EXPECT_EQ(sink.capacity(), 4u);
  sink.record(1.0, TraceEventKind::kCrash, TraceSink::kNoJob, 2);
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.at(0).kind, TraceEventKind::kCrash);
}

TEST(TraceSink, ZeroCapacityThrows) {
  EXPECT_THROW((void)TraceSink(0), hs::util::CheckError);
}

TEST(TraceSink, KindNamesAreDistinct) {
  EXPECT_STREQ(hs::obs::trace_event_kind_name(TraceEventKind::kArrival),
               "arrival");
  EXPECT_STREQ(hs::obs::trace_event_kind_name(TraceEventKind::kCompletion),
               "completion");
  EXPECT_STREQ(hs::obs::trace_event_kind_name(TraceEventKind::kSpeedChange),
               "speed_change");
}

// ---- Chrome trace export ----

TEST(TraceSink, ChromeExportBalancesSpans) {
  TraceSink sink(64);
  sink.record(0.5, TraceEventKind::kArrival, 1, TraceSink::kScheduler, 0, 3.0);
  sink.record(0.5, TraceEventKind::kDispatch, 1, 0, 0, 3.0);
  sink.record(0.5, TraceEventKind::kServiceStart, 1, 0, 0, 3.0);
  sink.record(2.0, TraceEventKind::kCompletion, 1, 0);
  // Job 2's span is still open at the end of the buffer.
  sink.record(3.0, TraceEventKind::kServiceStart, 2, 1, 0, 1.0);
  std::ostringstream out;
  sink.write_chrome_trace(out, {1.0, 2.5});

  const std::string json = out.str();
  size_t begins = 0;
  size_t ends = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\":\"b\"", pos)) !=
                       std::string::npos;
       pos += 8) {
    ++begins;
  }
  for (size_t pos = 0; (pos = json.find("\"ph\":\"e\"", pos)) !=
                       std::string::npos;
       pos += 8) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);  // one span per service start
  EXPECT_EQ(ends, 2u);    // the dangling span is closed at the last time
  // Machine tracks are named, with speed when provided.
  EXPECT_NE(json.find("scheduler"), std::string::npos);
  EXPECT_NE(json.find("machine 1 (speed 2.5)"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":5"), std::string::npos);
}

TEST(TraceSink, ChromeExportOfEmptySinkIsValid) {
  TraceSink sink(4);
  std::ostringstream out;
  sink.write_chrome_trace(out);
  EXPECT_NE(out.str().find("\"traceEvents\""), std::string::npos);
}

TEST(TraceSink, ChromeExportToUnwritablePathThrows) {
  TraceSink sink(4);
  EXPECT_THROW(sink.write_chrome_trace("/nonexistent-dir/trace.json"),
               std::runtime_error);
}

// ---- MetricsRegistry ----

TEST(MetricsRegistry, SamplesGaugesIntoRows) {
  MetricsRegistry registry;
  double x = 1.0;
  uint64_t counter = 7;
  registry.register_gauge("x", [&x] { return x; });
  registry.register_counter("count", &counter);
  EXPECT_EQ(registry.metric_count(), 2u);

  registry.sample(0.0);
  x = 2.5;
  counter = 9;
  registry.sample(10.0);

  ASSERT_EQ(registry.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(registry.sample_time(0), 0.0);
  EXPECT_DOUBLE_EQ(registry.sample_time(1), 10.0);
  EXPECT_DOUBLE_EQ(registry.value(0, registry.column("x")), 1.0);
  EXPECT_DOUBLE_EQ(registry.value(1, registry.column("x")), 2.5);
  EXPECT_DOUBLE_EQ(registry.value(0, registry.column("count")), 7.0);
  EXPECT_DOUBLE_EQ(registry.value(1, registry.column("count")), 9.0);
}

TEST(MetricsRegistry, DuplicateNameThrows) {
  MetricsRegistry registry;
  registry.register_gauge("dup", [] { return 0.0; });
  EXPECT_THROW(registry.register_gauge("dup", [] { return 1.0; }),
               hs::util::CheckError);
}

TEST(MetricsRegistry, RegisterAfterSamplingThrows) {
  MetricsRegistry registry;
  registry.register_gauge("a", [] { return 0.0; });
  registry.sample(0.0);
  EXPECT_THROW(registry.register_gauge("b", [] { return 0.0; }),
               hs::util::CheckError);
  registry.clear_samples();  // rows gone, metrics kept: registration re-opens
  registry.register_gauge("b", [] { return 0.0; });
  EXPECT_EQ(registry.metric_count(), 2u);
}

TEST(MetricsRegistry, UnknownColumnThrows) {
  MetricsRegistry registry;
  registry.register_gauge("a", [] { return 0.0; });
  EXPECT_THROW((void)registry.column("missing"), hs::util::CheckError);
}

TEST(MetricsRegistry, ClearDropsMetricsAndSamples) {
  MetricsRegistry registry;
  registry.register_gauge("a", [] { return 1.0; });
  registry.sample(0.0);
  registry.clear();
  EXPECT_EQ(registry.metric_count(), 0u);
  EXPECT_EQ(registry.sample_count(), 0u);
}

TEST(MetricsRegistry, CsvRoundTripsThroughUtilCsv) {
  MetricsRegistry registry;
  double v = 0.25;
  registry.register_gauge("alpha", [&v] { return v; });
  registry.register_gauge("beta", [&v] { return 2.0 * v; });
  registry.sample(0.0);
  v = 0.5;
  registry.sample(60.0);

  const std::string path = "test_obs_metrics_roundtrip.csv";
  registry.write_csv(path);
  const auto rows = hs::util::read_numeric_csv(path);
  std::remove(path.c_str());

  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[0].size(), 3u);  // time + 2 metrics
  EXPECT_DOUBLE_EQ(rows[0][0], 0.0);
  EXPECT_DOUBLE_EQ(rows[0][1], 0.25);
  EXPECT_DOUBLE_EQ(rows[0][2], 0.5);
  EXPECT_DOUBLE_EQ(rows[1][0], 60.0);
  EXPECT_DOUBLE_EQ(rows[1][1], 0.5);
  EXPECT_DOUBLE_EQ(rows[1][2], 1.0);
}

TEST(Observer, SamplingWithoutIntervalThrows) {
  MetricsRegistry registry;
  Observer observer;
  observer.metrics = &registry;
  observer.sample_interval = 0.0;
  EXPECT_THROW(observer.validate(), hs::util::CheckError);
  observer.sample_interval = 30.0;
  observer.validate();  // now fine
}

// ---- Wiring into cluster simulation runs ----

hs::cluster::SimulationConfig small_cluster_config() {
  hs::cluster::SimulationConfig config;
  config.speeds = {1.0, 2.0, 3.0};
  config.rho = 0.7;
  config.sim_time = 500.0;
  config.warmup_frac = 0.0;  // every completion is measured and traced
  config.seed = 20260806;
  return config;
}

hs::cluster::SimulationResult run_orr(
    const hs::cluster::SimulationConfig& config) {
  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho);
  return hs::cluster::run_simulation(config, *dispatcher);
}

TEST(ObservedSimulation, TraceAccountsForEveryJob) {
  hs::cluster::SimulationConfig config = small_cluster_config();
  config.sim_time = 20000.0;  // paper-sized jobs: ~0.03 arrivals/s here
  TraceSink sink;
  Observer observer;
  observer.trace = &sink;
  config.observer = &observer;
  const auto result = run_orr(config);

  uint64_t arrivals = 0;
  uint64_t dispatches = 0;
  uint64_t starts = 0;
  uint64_t completions = 0;
  for (size_t i = 0; i < sink.size(); ++i) {
    const TraceRecord& record = sink.at(i);
    switch (record.kind) {
      case TraceEventKind::kArrival:
        EXPECT_EQ(record.machine, TraceSink::kScheduler);
        ++arrivals;
        break;
      case TraceEventKind::kDispatch:
        EXPECT_GE(record.machine, 0);
        ++dispatches;
        break;
      case TraceEventKind::kServiceStart:
        ++starts;
        break;
      case TraceEventKind::kCompletion:
        ++completions;
        break;
      default:
        break;
    }
    if (i > 0) {
      EXPECT_GE(record.time, sink.at(i - 1).time) << "out of order at " << i;
    }
  }
  EXPECT_GT(arrivals, 100u);
  // No faults: each arrival is dispatched exactly once, starts service
  // exactly once, and (with no warmup) completes as a measured job.
  EXPECT_EQ(dispatches, arrivals);
  EXPECT_EQ(starts, arrivals);
  EXPECT_EQ(completions, result.completed_jobs);
}

TEST(ObservedSimulation, ObservationDoesNotPerturbResults) {
  hs::cluster::SimulationConfig config = small_cluster_config();
  const auto plain = run_orr(config);

  TraceSink sink;
  MetricsRegistry registry;
  Observer observer;
  observer.trace = &sink;
  observer.metrics = &registry;
  observer.sample_interval = 50.0;
  config.observer = &observer;
  const auto observed = run_orr(config);

  // Bit-identical simulation: observation draws no RNG and moves no event.
  EXPECT_EQ(observed.mean_response_time, plain.mean_response_time);
  EXPECT_EQ(observed.mean_response_ratio, plain.mean_response_ratio);
  EXPECT_EQ(observed.completed_jobs, plain.completed_jobs);
  // Sampling fires exactly floor(sim_time / interval) extra events.
  EXPECT_EQ(observed.events_fired, plain.events_fired + 10);
  // t = 0 sample plus one per tick.
  EXPECT_EQ(registry.sample_count(), 11u);
  EXPECT_DOUBLE_EQ(registry.sample_time(0), 0.0);
  EXPECT_DOUBLE_EQ(registry.sample_time(10), 500.0);
}

TEST(ObservedSimulation, TraceIsDeterministic) {
  hs::cluster::SimulationConfig config = small_cluster_config();
  TraceSink first;
  TraceSink second;
  Observer observer;
  observer.trace = &first;
  config.observer = &observer;
  (void)run_orr(config);
  observer.trace = &second;
  (void)run_orr(config);

  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    const TraceRecord& a = first.at(i);
    const TraceRecord& b = second.at(i);
    EXPECT_EQ(a.time, b.time) << "record " << i;
    EXPECT_EQ(a.kind, b.kind) << "record " << i;
    EXPECT_EQ(a.job, b.job) << "record " << i;
    EXPECT_EQ(a.machine, b.machine) << "record " << i;
  }
}

TEST(ObservedSimulation, StandardGaugesCoverClusterAndMachines) {
  hs::cluster::SimulationConfig config = small_cluster_config();
  MetricsRegistry registry;
  Observer observer;
  observer.metrics = &registry;
  observer.sample_interval = 100.0;
  config.observer = &observer;
  const auto result = run_orr(config);

  // 7 per-machine series plus the cluster-wide set (fault, overload,
  // adaptation and network columns are always registered so the CSV
  // schema is stable).
  EXPECT_EQ(registry.metric_count(), 7 * config.speeds.size() + 17);
  const size_t last = registry.sample_count() - 1;
  // By the final sample every dispatch has been counted.
  EXPECT_DOUBLE_EQ(
      registry.value(last, registry.column("cluster.dispatched")),
      static_cast<double>(result.dispatched_jobs));
  // Utilization gauges stay in [0, 1]; speed gauges match the config.
  for (size_t m = 0; m < config.speeds.size(); ++m) {
    // Appended, not `"m" + std::to_string(m)`: GCC 12 reports a false
    // -Wrestrict on that at -O3 (GCC PR 105329).
    std::string prefix = "m";
    prefix += std::to_string(m);
    const double util =
        registry.value(last, registry.column(prefix + ".utilization"));
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
    EXPECT_DOUBLE_EQ(
        registry.value(last, registry.column(prefix + ".speed")),
        config.speeds[m]);
  }
  // No faults configured: the fault columns exist and read zero.
  EXPECT_DOUBLE_EQ(registry.value(last, registry.column("cluster.lost")),
                   0.0);
  // No adaptive dispatcher: the adaptation columns exist and read zero.
  EXPECT_DOUBLE_EQ(
      registry.value(last, registry.column("cluster.lambda_hat")), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.value(last, registry.column("cluster.realloc_commits")), 0.0);
  EXPECT_DOUBLE_EQ(registry.value(last, registry.column("m0.speed_hat")),
                   0.0);
}

TEST(ObservedSimulation, FaultEventsAppearInTrace) {
  hs::cluster::SimulationConfig config = small_cluster_config();
  config.sim_time = 2000.0;
  config.faults.processes.assign(config.speeds.size(), {400.0, 50.0});
  config.faults.retry.max_attempts = 3;
  config.faults.retry.backoff_initial = 1.0;
  TraceSink sink;
  Observer observer;
  observer.trace = &sink;
  config.observer = &observer;
  const auto result = run_orr(config);

  uint64_t crashes = 0;
  uint64_t recoveries = 0;
  uint64_t losses = 0;
  uint64_t retries = 0;
  for (size_t i = 0; i < sink.size(); ++i) {
    switch (sink.at(i).kind) {
      case TraceEventKind::kCrash:
        EXPECT_EQ(sink.at(i).job, TraceSink::kNoJob);
        ++crashes;
        break;
      case TraceEventKind::kRecovery:
        ++recoveries;
        break;
      case TraceEventKind::kJobLost:
        ++losses;
        break;
      case TraceEventKind::kRetry:
        ++retries;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GE(crashes, recoveries);  // the run can end mid-outage
  EXPECT_GT(losses, 0u);
  // Warmup is zero, so the trace sees at least the measured retries
  // (plus any post-sim_time drain losses the counters exclude).
  EXPECT_GE(losses, result.jobs_lost);
  EXPECT_GE(retries, result.jobs_retried);
}

TEST(ObservedSimulation, ReplicatedExperimentRejectsSharedObserver) {
  hs::cluster::ExperimentConfig config;
  config.simulation = small_cluster_config();
  config.replications = 2;
  TraceSink sink;
  Observer observer;
  observer.trace = &sink;
  config.simulation.observer = &observer;
  EXPECT_THROW(
      (void)hs::cluster::run_experiment(
          config, hs::core::policy_dispatcher_factory(
                      hs::core::PolicyKind::kORR, config.simulation.speeds,
                      config.simulation.rho, 1.0)),
      hs::util::CheckError);
}

TEST(ReplicationPath, InsertsBeforeExtension) {
  EXPECT_EQ(hs::cluster::replication_path("out.json", 2, 5), "out.rep2.json");
  EXPECT_EQ(hs::cluster::replication_path("out.json", 0, 1), "out.json");
  EXPECT_EQ(hs::cluster::replication_path("noext", 1, 3), "noext.rep1");
  EXPECT_EQ(hs::cluster::replication_path("a.dir/noext", 1, 3),
            "a.dir/noext.rep1");
  EXPECT_EQ(hs::cluster::replication_path("a.dir/t.csv", 1, 3),
            "a.dir/t.rep1.csv");
}

}  // namespace
