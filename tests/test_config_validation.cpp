// Table-driven config-validation sweep.
//
// Every robustness-layer config promises "throws util::CheckError on
// out-of-range fields", and the explorer (src/explore) leans on that
// promise: a validate() that lets NaN or +Inf through turns a scheduled
// run into silent nonsense instead of a loud error. Earlier tests
// hand-enumerated a few bad values per struct; this sweep instead
// drives *every* numeric field of FaultConfig, NetworkConfig,
// OverloadConfig, UncertaintyConfig, and the serving configs through a
// shared table of poison values (NaN, ±Inf, negatives, invalid zeros)
// and asserts a per-field CheckError — plus one in-range value per
// field, proving the case actually exercises the field it names.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "cluster/faults.h"
#include "cluster/netfaults.h"
#include "cluster/sim.h"
#include "dispatch/least_load.h"
#include "overload/admission.h"
#include "overload/config.h"
#include "serving/health.h"
#include "serving/serving_dispatcher.h"
#include "uncertainty/config.h"
#include "util/check.h"

namespace {

using hs::util::CheckError;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Poison sets by field contract. Every double field belongs to one.
const std::vector<double> kNonNegative = {kNaN, kInf, -kInf, -1.0, -1e-9};
const std::vector<double> kPositive = {kNaN, kInf, -kInf, -1.0, 0.0};
const std::vector<double> kProbabilityHalfOpen =  // [0, 1)
    {kNaN, kInf, -kInf, -0.5, 1.0, 2.0};
const std::vector<double> kFactorAtLeastOne =  // finite, >= 1
    {kNaN, kInf, -kInf, -1.0, 0.0, 0.5};

/// One numeric field: `run(v)` installs v into an otherwise-valid config
/// and validates. Every value in `bad` must throw; every value in `good`
/// must not (the no-throw side is what proves the lambda pokes a live
/// field rather than validating a default config).
struct FieldCase {
  std::string name;
  std::function<void(double)> run;
  std::vector<double> bad;
  std::vector<double> good;
};

void run_sweep(const std::vector<FieldCase>& cases) {
  for (const FieldCase& field : cases) {
    SCOPED_TRACE(field.name);
    for (double value : field.bad) {
      SCOPED_TRACE(value);
      EXPECT_THROW(field.run(value), CheckError);
    }
    for (double value : field.good) {
      SCOPED_TRACE(value);
      EXPECT_NO_THROW(field.run(value));
    }
  }
}

// ---- FaultConfig ---------------------------------------------------------

hs::cluster::FaultConfig valid_faults() {
  hs::cluster::FaultConfig config;
  config.processes.assign(3, {50.0, 5.0});
  config.outages.push_back({10.0, 5.0, 0});
  return config;
}

TEST(ConfigValidationSweep, FaultConfigNumericFields) {
  const auto with = [](auto set) {
    return [set](double v) {
      hs::cluster::FaultConfig config = valid_faults();
      set(config, v);
      config.validate(3, 100.0);
    };
  };
  run_sweep({
      {"processes[0].mtbf",
       with([](auto& c, double v) { c.processes[0].mtbf = v; }),
       kNonNegative,
       {0.0, 50.0}},
      {"processes[0].mttr",
       with([](auto& c, double v) { c.processes[0].mttr = v; }),
       kPositive,
       {5.0}},
      {"outages[0].start",
       with([](auto& c, double v) { c.outages[0].start = v; }),
       {kNaN, kInf, -kInf, -1.0, 1000.0},  // 1000 > sim_time
       {0.0, 10.0}},
      {"outages[0].duration",
       with([](auto& c, double v) { c.outages[0].duration = v; }),
       kPositive,
       {5.0}},
      {"retry.backoff_initial",
       with([](auto& c, double v) { c.retry.backoff_initial = v; }),
       kNonNegative,
       {0.0, 1.0}},
      {"retry.backoff_factor",
       with([](auto& c, double v) { c.retry.backoff_factor = v; }),
       kFactorAtLeastOne,
       {1.0, 2.0}},
      {"retry.job_timeout",
       with([](auto& c, double v) { c.retry.job_timeout = v; }),
       kNonNegative,
       {0.0, 30.0}},
  });
}

TEST(ConfigValidationSweep, FaultConfigIntegerFields) {
  hs::cluster::FaultConfig config = valid_faults();
  config.retry.max_attempts = 0;
  EXPECT_THROW(config.validate(3, 100.0), CheckError);
  // Attempt indices must fit the job record's 16-bit attempt field.
  run_sweep({
      {"retry.max_attempts",
       [](double v) {
         hs::cluster::FaultConfig c = valid_faults();
         c.retry.max_attempts = static_cast<uint32_t>(v);
         c.validate(3, 100.0);
       },
       {0.0, 65537.0, 4e9},
       {1.0, 65536.0}},
  });
}

// ---- Simulation entry points ----------------------------------------------

TEST(ConfigValidationSweep, SchedulerCountFitsTheJobRecord) {
  // Each job records its sender in 16 bits, so run_simulation_multi
  // takes at most 65535 schedulers. One dispatcher stands in for all of
  // them: the count is checked before any is touched.
  hs::dispatch::LeastLoadDispatcher dispatcher({1.0, 2.0});
  run_sweep({
      {"run_simulation_multi schedulers",
       [&dispatcher](double v) {
         hs::cluster::SimulationConfig config;
         config.speeds = {1.0, 2.0};
         config.rho = 0.5;
         config.sim_time = 5.0;
         const std::vector<hs::dispatch::Dispatcher*> schedulers(
             static_cast<size_t>(v), &dispatcher);
         (void)hs::cluster::run_simulation_multi(config, schedulers);
       },
       {65536.0, 70000.0},
       {1.0, 65535.0}},
  });
}

// ---- NetworkConfig -------------------------------------------------------

hs::cluster::NetworkConfig valid_network() {
  hs::cluster::NetworkConfig config;
  config.dispatch_link.loss = 0.01;
  config.dispatch_link.delay_mean = 0.1;
  config.dispatch_link.tail_prob = 0.05;
  config.dispatch_link.tail_factor = 3.0;
  config.dispatch_link.duplicate = 0.01;
  config.report_link.loss = 0.01;
  config.report_link.delay_mean = 0.1;
  config.heartbeat.interval = 1.0;
  config.partitions.push_back({1.0, 2.0, {0}});
  return config;
}

TEST(ConfigValidationSweep, NetworkConfigNumericFields) {
  const auto with = [](auto set) {
    return [set](double v) {
      hs::cluster::NetworkConfig config = valid_network();
      set(config, v);
      config.validate(3, 100.0);
    };
  };
  run_sweep({
      {"detection_interval",
       with([](auto& c, double v) { c.detection_interval = v; }),
       kNonNegative,
       {0.0, 1.0}},
      {"message_delay_mean",
       with([](auto& c, double v) { c.message_delay_mean = v; }),
       kNonNegative,
       {0.0, 0.05}},
      {"dispatch_link.loss",
       with([](auto& c, double v) { c.dispatch_link.loss = v; }),
       kProbabilityHalfOpen,
       {0.0, 0.5}},
      {"dispatch_link.delay_mean",
       with([](auto& c, double v) { c.dispatch_link.delay_mean = v; }),
       // 0 is legal for the field itself but this base config has
       // tail_prob > 0, which requires a positive mean.
       {kNaN, kInf, -kInf, -1.0, 0.0},
       {0.1}},
      {"dispatch_link.tail_prob",
       with([](auto& c, double v) { c.dispatch_link.tail_prob = v; }),
       {kNaN, kInf, -kInf, -0.5, 1.5},
       {0.0, 1.0}},
      {"dispatch_link.tail_factor",
       with([](auto& c, double v) { c.dispatch_link.tail_factor = v; }),
       kFactorAtLeastOne,
       {1.0, 3.0}},
      {"dispatch_link.duplicate",
       with([](auto& c, double v) { c.dispatch_link.duplicate = v; }),
       kProbabilityHalfOpen,
       {0.0, 0.5}},
      {"report_link.loss",
       with([](auto& c, double v) { c.report_link.loss = v; }),
       kProbabilityHalfOpen,
       {0.0, 0.5}},
      {"report_link.delay_mean",
       with([](auto& c, double v) { c.report_link.delay_mean = v; }),
       kNonNegative,
       {0.0, 0.1}},
      {"heartbeat.interval",
       with([](auto& c, double v) { c.heartbeat.interval = v; }),
       kNonNegative,
       {0.0, 1.0}},
      {"heartbeat.phi_threshold",
       with([](auto& c, double v) { c.heartbeat.phi_threshold = v; }),
       kPositive,
       {8.0}},
      {"heartbeat.ewma_alpha",
       with([](auto& c, double v) { c.heartbeat.ewma_alpha = v; }),
       {kNaN, kInf, -kInf, -0.5, 0.0, 1.5},
       {0.1, 1.0}},
      {"partitions[0].start",
       with([](auto& c, double v) { c.partitions[0].start = v; }),
       {kNaN, kInf, -kInf, -1.0, 1000.0},  // 1000 > sim_time
       {0.0, 1.0}},
      {"partitions[0].duration",
       with([](auto& c, double v) { c.partitions[0].duration = v; }),
       kPositive,
       {2.0}},
  });
}

// ---- OverloadConfig ------------------------------------------------------

hs::overload::OverloadConfig valid_overload() {
  hs::overload::OverloadConfig config;
  config.queue_capacity = 8;
  config.admission = hs::overload::AdmissionKind::kDeadlineShed;
  config.slo_budget = 1.0;
  config.shed_probability = 1.0;
  config.retry_budget.enabled = true;
  return config;
}

TEST(ConfigValidationSweep, OverloadConfigNumericFields) {
  const auto with = [](auto set) {
    return [set](double v) {
      hs::overload::OverloadConfig config = valid_overload();
      set(config, v);
      config.validate(3);
    };
  };
  run_sweep({
      {"slo_budget",
       with([](auto& c, double v) { c.slo_budget = v; }),
       kPositive,
       {1.0}},
      {"shed_probability",
       with([](auto& c, double v) { c.shed_probability = v; }),
       {kNaN, kInf, -kInf, -0.5, 0.0, 1.5},
       {0.5, 1.0}},
      {"retry_budget.tokens_per_admission",
       with([](auto& c, double v) { c.retry_budget.tokens_per_admission = v; }),
       kNonNegative,
       {0.0, 0.2}},
      {"retry_budget.burst",
       with([](auto& c, double v) { c.retry_budget.burst = v; }),
       kPositive,
       {10.0}},
      {"retry_budget.initial_tokens",
       with([](auto& c, double v) { c.retry_budget.initial_tokens = v; }),
       kNonNegative,
       {0.0, 10.0}},
  });
}

TEST(ConfigValidationSweep, OverloadConfigIntegerFields) {
  hs::overload::OverloadConfig config = valid_overload();
  config.machine_capacity = {4, 0, 4};
  EXPECT_THROW(config.validate(3), CheckError);

  config = valid_overload();
  config.admission = hs::overload::AdmissionKind::kQueueBoundShed;
  config.admission_queue_bound = 0;
  EXPECT_THROW(config.validate(3), CheckError);
}

// ---- UncertaintyConfig ---------------------------------------------------

hs::uncertainty::UncertaintyConfig valid_uncertainty() {
  hs::uncertainty::UncertaintyConfig config;
  config.lambda_error = {0.8, 0.1};
  config.speed_error = {1.2, 0.1};
  config.staleness.update_interval = 1.0;
  config.staleness.report_delay = 0.5;
  return config;
}

TEST(ConfigValidationSweep, UncertaintyConfigNumericFields) {
  const auto with = [](auto set) {
    return [set](double v) {
      hs::uncertainty::UncertaintyConfig config = valid_uncertainty();
      set(config, v);
      config.validate(100.0);
    };
  };
  run_sweep({
      {"lambda_error.bias",
       with([](auto& c, double v) { c.lambda_error.bias = v; }),
       kPositive,
       {0.7, 1.0}},
      {"lambda_error.noise_cv",
       with([](auto& c, double v) { c.lambda_error.noise_cv = v; }),
       kNonNegative,
       {0.0, 0.3}},
      {"speed_error.bias",
       with([](auto& c, double v) { c.speed_error.bias = v; }),
       kPositive,
       {0.7, 1.0}},
      {"speed_error.noise_cv",
       with([](auto& c, double v) { c.speed_error.noise_cv = v; }),
       kNonNegative,
       {0.0, 0.3}},
      {"staleness.update_interval",
       with([](auto& c, double v) { c.staleness.update_interval = v; }),
       {kNaN, kInf, -kInf, -1.0, 100.0},  // must stay below sim_time
       {0.0, 1.0}},
      {"staleness.report_delay",
       with([](auto& c, double v) { c.staleness.report_delay = v; }),
       kNonNegative,
       {0.0, 5.0}},
  });
}

TEST(ConfigValidationSweep, DriftTimelineNumericFields) {
  const auto step = [](auto set) {
    return [set](double v) {
      hs::uncertainty::DriftTimeline drift;
      drift.kind = hs::uncertainty::DriftKind::kStep;
      drift.steps = {{10.0, 1.5}};
      set(drift, v);
      drift.validate(100.0);
    };
  };
  const auto ramp = [](auto set) {
    return [set](double v) {
      hs::uncertainty::DriftTimeline drift;
      drift.kind = hs::uncertainty::DriftKind::kRamp;
      drift.ramp_start = 10.0;
      drift.ramp_end = 20.0;
      set(drift, v);
      drift.validate(100.0);
    };
  };
  const auto periodic = [](auto set) {
    return [set](double v) {
      hs::uncertainty::DriftTimeline drift;
      drift.kind = hs::uncertainty::DriftKind::kPeriodic;
      drift.period = 50.0;
      drift.amplitude = 0.5;
      set(drift, v);
      drift.validate(100.0);
    };
  };
  run_sweep({
      {"steps[0].time",
       step([](auto& d, double v) { d.steps[0].time = v; }),
       {kNaN, kInf, -kInf, -1.0, 100.0},  // must land before sim_time
       {0.0, 10.0}},
      {"steps[0].factor",
       step([](auto& d, double v) { d.steps[0].factor = v; }),
       kPositive,
       {0.5, 1.5}},
      {"ramp_start",
       ramp([](auto& d, double v) { d.ramp_start = v; }),
       {kNaN, kInf, -kInf, -1.0, 20.0, 30.0},  // must precede ramp_end
       {0.0, 10.0}},
      {"ramp_end",
       ramp([](auto& d, double v) { d.ramp_end = v; }),
       {kNaN, kInf, -kInf, -1.0, 10.0, 5.0},  // must follow ramp_start
       {20.0}},
      {"start_factor",
       ramp([](auto& d, double v) { d.start_factor = v; }),
       kPositive,
       {1.0}},
      {"end_factor",
       ramp([](auto& d, double v) { d.end_factor = v; }),
       kPositive,
       {1.0}},
      {"period",
       periodic([](auto& d, double v) { d.period = v; }),
       kPositive,
       {50.0}},
      {"amplitude",
       periodic([](auto& d, double v) { d.amplitude = v; }),
       {kNaN, kInf, -kInf, -0.5, 1.0, 2.0},
       {0.0, 0.5}},
      {"phase",
       periodic([](auto& d, double v) { d.phase = v; }),
       {kNaN, kInf, -kInf},
       {-1.0, 0.0, 3.14}},
  });
}

// ---- Serving configs -----------------------------------------------------

TEST(ConfigValidationSweep, HealthConfigNumericFields) {
  const auto with = [](auto set) {
    return [set](double v) {
      hs::serving::HealthConfig config;
      config.release_deadline = 0.3;
      config.heartbeat.interval = 0.2;
      set(config, v);
      config.validate();
    };
  };
  run_sweep({
      {"release_deadline",
       with([](auto& c, double v) { c.release_deadline = v; }),
       kNonNegative,
       {0.0, 0.3}},
      {"heartbeat.interval",
       with([](auto& c, double v) { c.heartbeat.interval = v; }),
       kNonNegative,
       {0.0, 0.2}},
      {"heartbeat.phi_threshold",
       with([](auto& c, double v) { c.heartbeat.phi_threshold = v; }),
       kPositive,
       {8.0}},
      {"heartbeat.ewma_alpha",
       with([](auto& c, double v) { c.heartbeat.ewma_alpha = v; }),
       {kNaN, kInf, -kInf, -0.5, 0.0, 1.5},
       {0.1, 1.0}},
  });

  hs::serving::HealthConfig config;
  config.timeout_threshold = 0;
  EXPECT_THROW(config.validate(), CheckError);
  config = {};
  config.max_tracked = 0;
  EXPECT_THROW(config.validate(), CheckError);
}

TEST(ConfigValidationSweep, DegradationConfigNumericFields) {
  static hs::overload::ProbabilisticShed shed(0.5);
  const auto with = [](auto set) {
    return [set](double v) {
      hs::serving::DegradationConfig config;
      config.brownout_below = 0.5;
      config.brownout_policy = &shed;
      config.fail_static_after = 1.0;
      config.fail_static_fractions = {0.2, 0.3, 0.5};
      set(config, v);
      config.validate(3, /*health_enabled=*/true);
    };
  };
  run_sweep({
      {"brownout_below",
       with([](auto& c, double v) { c.brownout_below = v; }),
       {kNaN, kInf, -kInf, -0.5, 1.5},
       {0.0, 0.5, 1.0}},
      {"fail_static_after",
       with([](auto& c, double v) { c.fail_static_after = v; }),
       kNonNegative,
       {0.0, 1.0}},
      {"fail_static_fractions[0]",
       // A poison entry breaks the per-entry check; any in-range change
       // breaks the sum-to-1 check, so only the exact base value passes.
       with([](auto& c, double v) { c.fail_static_fractions[0] = v; }),
       {kNaN, kInf, -kInf, -0.2, 0.9},
       {0.2}},
  });
}

}  // namespace
