// Integration tests for fault injection in the full cluster simulation:
// determinism, conservation laws, retry/backoff/timeout semantics, and
// failure-aware versus fault-oblivious routing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/sim.h"
#include "core/adaptive.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "util/check.h"

namespace {

using namespace hs::cluster;
using hs::core::make_fault_aware_dispatcher;
using hs::core::make_policy_dispatcher;
using hs::core::PolicyKind;

hs::workload::WorkloadSpec fast_workload() {
  hs::workload::WorkloadSpec spec;
  spec.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  spec.size_kind = hs::workload::SizeKind::kExponential;
  spec.fixed_or_mean_size = 1.0;
  return spec;
}

SimulationConfig base_config(std::vector<double> speeds, double rho,
                             double sim_time = 20000.0) {
  SimulationConfig config;
  config.speeds = std::move(speeds);
  config.workload = fast_workload();
  config.rho = rho;
  config.sim_time = sim_time;
  config.warmup_frac = 0.0;
  config.seed = 1234;
  return config;
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.mean_response_ratio, b.mean_response_ratio);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.dispatched_jobs, b.dispatched_jobs);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.jobs_lost, b.jobs_lost);
  EXPECT_EQ(a.jobs_retried, b.jobs_retried);
  EXPECT_EQ(a.jobs_dropped, b.jobs_dropped);
  EXPECT_EQ(a.goodput, b.goodput);
  ASSERT_EQ(a.machine_fractions.size(), b.machine_fractions.size());
  for (size_t i = 0; i < a.machine_fractions.size(); ++i) {
    EXPECT_EQ(a.machine_fractions[i], b.machine_fractions[i]);
    EXPECT_EQ(a.machine_utilizations[i], b.machine_utilizations[i]);
    EXPECT_EQ(a.machine_downtime[i], b.machine_downtime[i]);
  }
  ASSERT_EQ(a.mean_response_by_attempts.size(),
            b.mean_response_by_attempts.size());
  for (size_t i = 0; i < a.mean_response_by_attempts.size(); ++i) {
    EXPECT_EQ(a.mean_response_by_attempts[i], b.mean_response_by_attempts[i]);
  }
}

TEST(FaultSim, DeterministicWithReusedDispatcher) {
  // Same seed + a reused (reset) dispatcher → bit-identical results,
  // without and with fault injection.
  auto config = base_config({1.0, 2.0, 3.0}, 0.6);
  auto dispatcher =
      make_policy_dispatcher(PolicyKind::kORR, config.speeds, config.rho);
  const auto first = run_simulation(config, *dispatcher);
  const auto second = run_simulation(config, *dispatcher);
  expect_identical(first, second);

  config.faults.processes.assign(config.speeds.size(), {3000.0, 300.0});
  auto aware = make_fault_aware_dispatcher(PolicyKind::kORR, config.speeds,
                                           config.rho);
  const auto faulty_first = run_simulation(config, *aware);
  const auto faulty_second = run_simulation(config, *aware);
  EXPECT_GT(faulty_first.jobs_lost, 0u);
  expect_identical(faulty_first, faulty_second);
}

TEST(FaultSim, DisabledFaultsLeaveNoTrace) {
  auto config = base_config({1.0, 2.0}, 0.5);
  auto dispatcher =
      make_policy_dispatcher(PolicyKind::kWRR, config.speeds, config.rho);
  const auto result = run_simulation(config, *dispatcher);
  EXPECT_EQ(result.jobs_lost, 0u);
  EXPECT_EQ(result.jobs_retried, 0u);
  EXPECT_EQ(result.jobs_dropped, 0u);
  ASSERT_EQ(result.machine_downtime.size(), 2u);
  EXPECT_EQ(result.machine_downtime[0], 0.0);
  EXPECT_EQ(result.machine_downtime[1], 0.0);
  EXPECT_GT(result.goodput, 0.0);
  // Every measured completion sits in the attempt-0 bucket.
  ASSERT_FALSE(result.mean_response_by_attempts.empty());
  EXPECT_GT(result.mean_response_by_attempts[0], 0.0);
  for (size_t i = 1; i < result.mean_response_by_attempts.size(); ++i) {
    EXPECT_EQ(result.mean_response_by_attempts[i], 0.0);
  }
}

TEST(FaultSim, ConservationLawsHold) {
  // With no warmup, every counter is measured, so the books must
  // balance exactly: each loss is either retried or dropped, each
  // arrival either completes or is dropped.
  auto config = base_config({1.0, 1.0, 2.0}, 0.6, 30000.0);
  config.faults.processes.assign(config.speeds.size(), {2000.0, 400.0});
  config.faults.retry.max_attempts = 4;
  auto dispatcher = make_fault_aware_dispatcher(PolicyKind::kORR,
                                                config.speeds, config.rho);
  const auto result = run_simulation(config, *dispatcher);
  ASSERT_GT(result.jobs_lost, 0u);
  EXPECT_EQ(result.jobs_lost, result.jobs_retried + result.jobs_dropped);
  EXPECT_EQ(result.dispatched_jobs, result.completed_jobs + result.jobs_lost);
  const uint64_t arrivals =
      result.dispatched_jobs - result.jobs_retried;  // first dispatches
  EXPECT_EQ(arrivals, result.completed_jobs + result.jobs_dropped);
  // Downtime was injected and accounted.
  double total_downtime = 0.0;
  for (const double d : result.machine_downtime) {
    total_downtime += d;
  }
  EXPECT_GT(total_downtime, 0.0);
  EXPECT_LE(total_downtime, 3 * config.sim_time);
}

TEST(FaultSim, DeterministicBackoffSchedule) {
  // One machine, down for the whole run, zero detection/message delay:
  // a single job is lost on dispatch at t=10, retried after exactly 1,
  // then 2, then 4 seconds (backoff_initial=1, factor=2), and the fourth
  // loss exhausts max_attempts=4 → dropped.
  SimulationConfig config;
  config.speeds = {1.0};
  config.sim_time = 100.0;
  config.warmup_frac = 0.0;
  config.seed = 5;
  config.network.detection_interval = 0.0;
  config.network.message_delay_mean = 0.0;
  config.faults.outages.push_back({0.5, 99.5, 0});
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 1.0;
  config.faults.retry.backoff_factor = 2.0;

  const std::vector<hs::queueing::Job> jobs = {{1, 10.0, 5.0, 0}};
  const hs::workload::JobTrace trace{jobs};
  config.trace = &trace;

  auto dispatcher =
      make_policy_dispatcher(PolicyKind::kWRR, config.speeds, 0.5);
  const auto result = run_simulation(config, *dispatcher);
  EXPECT_EQ(result.completed_jobs, 0u);
  EXPECT_EQ(result.dispatched_jobs, 4u);  // attempts at t=10, 11, 13, 17
  EXPECT_EQ(result.jobs_lost, 4u);
  EXPECT_EQ(result.jobs_retried, 3u);
  EXPECT_EQ(result.jobs_dropped, 1u);
  EXPECT_DOUBLE_EQ(result.machine_downtime[0], 99.5);
}

TEST(FaultSim, JobTimeoutDropsInsteadOfRetrying) {
  // Same single-job setup but with a 0.5 s deadline: the first retry
  // would start 1 s after arrival → dropped without any retry.
  SimulationConfig config;
  config.speeds = {1.0};
  config.sim_time = 100.0;
  config.warmup_frac = 0.0;
  config.seed = 5;
  config.network.detection_interval = 0.0;
  config.network.message_delay_mean = 0.0;
  config.faults.outages.push_back({0.5, 99.5, 0});
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 1.0;
  config.faults.retry.job_timeout = 0.5;

  const std::vector<hs::queueing::Job> jobs = {{1, 10.0, 5.0, 0}};
  const hs::workload::JobTrace trace{jobs};
  config.trace = &trace;

  auto dispatcher =
      make_policy_dispatcher(PolicyKind::kWRR, config.speeds, 0.5);
  const auto result = run_simulation(config, *dispatcher);
  EXPECT_EQ(result.jobs_lost, 1u);
  EXPECT_EQ(result.jobs_retried, 0u);
  EXPECT_EQ(result.jobs_dropped, 1u);
}

TEST(FaultSim, RetriedJobsCompleteWithFullLatency) {
  // The machine recovers mid-run; the retried job's response time spans
  // the original arrival through the post-recovery completion.
  SimulationConfig config;
  config.speeds = {1.0};
  config.sim_time = 100.0;
  config.warmup_frac = 0.0;
  config.seed = 5;
  config.network.detection_interval = 0.0;
  config.network.message_delay_mean = 0.0;
  config.faults.outages.push_back({0.5, 19.5, 0});  // up again at t=20
  config.faults.retry.max_attempts = 10;
  config.faults.retry.backoff_initial = 4.0;
  config.faults.retry.backoff_factor = 2.0;

  // Arrives at 10 while down; retries at 14 (down), 22 (up, runs 5 s).
  const std::vector<hs::queueing::Job> jobs = {{1, 10.0, 5.0, 0}};
  const hs::workload::JobTrace trace{jobs};
  config.trace = &trace;

  auto dispatcher =
      make_policy_dispatcher(PolicyKind::kWRR, config.speeds, 0.5);
  const auto result = run_simulation(config, *dispatcher);
  EXPECT_EQ(result.completed_jobs, 1u);
  EXPECT_EQ(result.jobs_lost, 2u);
  EXPECT_EQ(result.jobs_retried, 2u);
  EXPECT_EQ(result.jobs_dropped, 0u);
  // Completion at 22 + 5 = 27 → response 17 s, in the attempt-2 bucket.
  EXPECT_DOUBLE_EQ(result.mean_response_time, 17.0);
  ASSERT_GE(result.mean_response_by_attempts.size(), 3u);
  EXPECT_EQ(result.mean_response_by_attempts[0], 0.0);
  EXPECT_EQ(result.mean_response_by_attempts[1], 0.0);
  EXPECT_DOUBLE_EQ(result.mean_response_by_attempts[2], 17.0);
}

// Counts dispatches per machine with their times, wrapping any inner
// dispatcher transparently.
class CountingDispatcher final : public hs::dispatch::Dispatcher {
 public:
  CountingDispatcher(std::unique_ptr<hs::dispatch::Dispatcher> inner,
                     std::vector<std::pair<double, size_t>>& record)
      : inner_(std::move(inner)), record_(record) {}

  size_t pick(hs::rng::Xoshiro256& gen) override {
    const size_t machine = inner_->pick(gen);
    record_.emplace_back(now_, machine);
    return machine;
  }
  size_t pick_sized(hs::rng::Xoshiro256& gen, double size) override {
    const size_t machine = inner_->pick_sized(gen, size);
    record_.emplace_back(now_, machine);
    return machine;
  }
  bool uses_size() const override { return inner_->uses_size(); }
  void reset() override {
    inner_->reset();
    now_ = 0.0;
  }
  std::string name() const override { return inner_->name(); }
  size_t machine_count() const override { return inner_->machine_count(); }
  void on_arrival(double now) override {
    now_ = now;
    inner_->on_arrival(now);
  }
  void on_departure_report(size_t machine) override {
    inner_->on_departure_report(machine);
  }
  bool uses_feedback() const override { return inner_->uses_feedback(); }
  void on_machine_state_report(size_t machine, bool up) override {
    inner_->on_machine_state_report(machine, up);
  }
  bool uses_fault_feedback() const override {
    return inner_->uses_fault_feedback();
  }

 private:
  std::unique_ptr<hs::dispatch::Dispatcher> inner_;
  std::vector<std::pair<double, size_t>>& record_;
  double now_ = 0.0;
};

TEST(FaultSim, BlacklistedMachineGetsNoDispatches) {
  // Machine 1 is down over [4000, 8000). A failure-aware dispatcher must
  // send it nothing between the (delayed) crash report and the recovery
  // report; detection adds at most ~a few seconds of slack.
  auto config = base_config({1.0, 1.0}, 0.5, 16000.0);
  config.faults.outages.push_back({4000.0, 4000.0, 1});
  std::vector<std::pair<double, size_t>> record;
  CountingDispatcher dispatcher(
      make_fault_aware_dispatcher(PolicyKind::kORR, config.speeds,
                                  config.rho),
      record);
  const auto result = run_simulation(config, dispatcher);
  EXPECT_GT(result.completed_jobs, 1000u);
  const double slack = 10.0;  // detection interval 1 s + message delays
  for (const auto& [time, machine] : record) {
    if (machine == 1) {
      EXPECT_FALSE(time > 4000.0 + slack && time < 8000.0)
          << "dispatch to blacklisted machine at t=" << time;
    }
  }
  // The machine is used again after recovery.
  bool used_after_recovery = false;
  for (const auto& [time, machine] : record) {
    used_after_recovery |= machine == 1 && time > 8000.0 + slack;
  }
  EXPECT_TRUE(used_after_recovery);
}

TEST(FaultSim, AdaptiveOrrEstimatorSurvivesCrash) {
  // Satellite: ρ̂ stays sane across a crash — the estimator tracks the
  // arrival stream (unchanged by machine state), and the assumed load
  // remains inside the configured clamp throughout.
  auto config = base_config({1.0, 1.0, 2.0}, 0.6, 30000.0);
  config.faults.outages.push_back({10000.0, 5000.0, 2});
  hs::core::AdaptiveOrrOptions options;
  options.mean_job_size = 1.0;  // the test workload's mean
  auto adaptive = std::make_unique<hs::core::AdaptiveOrrDispatcher>(
      config.speeds, options);
  auto* raw = adaptive.get();
  hs::dispatch::FaultAwareDispatcher aware(std::move(adaptive));
  const auto result = run_simulation(config, aware);
  EXPECT_GT(result.completed_jobs, 5000u);
  EXPECT_GT(raw->estimator().observed(), 1000u);
  EXPECT_GE(raw->assumed_rho(), 0.02);
  EXPECT_LE(raw->assumed_rho(), 0.98);
  // The estimate itself reflects the true system load, not the
  // degraded survivor load.
  EXPECT_NEAR(raw->estimated_rho(0.5), 0.6, 0.15);
}

TEST(FaultSim, FailureAwareOrrBeatsObliviousOrr) {
  // The tentpole's acceptance experiment in miniature: a mid-run crash
  // of the biggest machine. The fault-oblivious ORR keeps routing into
  // the dead machine (losing every such job); the failure-aware variant
  // shifts the allocation to the survivors and completes more work.
  auto config = base_config({1.0, 1.0, 4.0}, 0.6, 40000.0);
  config.faults.outages.push_back({10000.0, 20000.0, 2});
  config.faults.retry.max_attempts = 3;

  auto oblivious =
      make_policy_dispatcher(PolicyKind::kORR, config.speeds, config.rho);
  const auto base = run_simulation(config, *oblivious);

  auto aware = make_fault_aware_dispatcher(PolicyKind::kORR, config.speeds,
                                           config.rho);
  const auto improved = run_simulation(config, *aware);

  EXPECT_GT(base.jobs_dropped, 0u);
  EXPECT_GT(improved.goodput, base.goodput);
  EXPECT_LT(improved.jobs_lost, base.jobs_lost);
}

TEST(FaultSim, AllMachinesCrashedIsSurvivable) {
  // Total blackout: every machine goes down at t=5000 and none recovers
  // within the run. Nothing about the survivor-reallocation logic may
  // spin or divide by zero on an empty survivor set; jobs dispatched
  // into the blackout are lost, retried, and eventually dropped; and the
  // run stays bit-for-bit deterministic.
  auto config = base_config({1.0, 1.0, 2.0}, 0.5, 20000.0);
  for (size_t m = 0; m < config.speeds.size(); ++m) {
    config.faults.outages.push_back({5000.0, config.sim_time, m});
  }
  config.faults.retry.max_attempts = 3;

  auto aware = make_fault_aware_dispatcher(PolicyKind::kORR, config.speeds,
                                           config.rho);
  const auto first = run_simulation(config, *aware);
  // The pre-blackout window completed real work...
  EXPECT_GT(first.completed_jobs, 1000u);
  // ...then the blackout lost resident jobs, the retry policy re-routed
  // them into still-dead machines, and bounded attempts gave up.
  EXPECT_GT(first.jobs_lost, 0u);
  EXPECT_GT(first.jobs_retried, 0u);
  EXPECT_GT(first.jobs_dropped, 0u);
  EXPECT_EQ(first.jobs_lost, first.jobs_retried + first.jobs_dropped);
  // Every machine accrued the full blackout as downtime.
  for (const double downtime : first.machine_downtime) {
    EXPECT_NEAR(downtime, config.sim_time - 5000.0, 1e-6);
  }
  // Golden determinism holds with a reused (reset) dispatcher.
  const auto second = run_simulation(config, *aware);
  expect_identical(first, second);
}

TEST(FaultSim, ValidateRejectsBadFaultConfig) {
  auto config = base_config({1.0, 1.0}, 0.5);
  config.faults.outages.push_back({1000.0, 10.0, 5});  // machine range
  EXPECT_THROW(config.validate(), hs::util::CheckError);
}

TEST(FaultSim, ValidateRejectsBadSpeedChanges) {
  // Satellite: speed-change validation names the offending entry.
  auto config = base_config({1.0, 1.0}, 0.5);
  config.speed_changes.push_back({100.0, 0, 2.0});
  config.speed_changes.push_back({100.0, 7, 2.0});  // machine out of range
  try {
    config.validate();
    FAIL() << "expected CheckError";
  } catch (const hs::util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("speed_changes[1]"),
              std::string::npos)
        << e.what();
  }

  config.speed_changes[1] = {100.0, 1, -1.0};  // negative speed
  EXPECT_THROW(config.validate(), hs::util::CheckError);

  config.speed_changes[1] = {config.sim_time + 1.0, 1, 2.0};  // too late
  EXPECT_THROW(config.validate(), hs::util::CheckError);

  config.speed_changes[1] = {100.0, 1, 0.0};  // failure-as-speed-0 is fine
  EXPECT_NO_THROW(config.validate());
}

}  // namespace
