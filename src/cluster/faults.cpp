#include "cluster/faults.h"

#include <algorithm>
#include <cmath>

#include "cluster/choice.h"
#include "rng/rng.h"
#include "util/check.h"

namespace hs::cluster {

namespace {

struct Interval {
  double start;
  double end;  // exclusive; may exceed the horizon
};

double exponential(rng::Xoshiro256& gen, double mean) {
  return -mean * std::log(gen.next_double_open0());
}

/// Draw one up/down duration, letting the hook override it. An override
/// of zero (or garbage) is clamped so the timeline loop always advances.
double duration_draw(rng::Xoshiro256& gen, double mean, ChoiceHook* hook,
                     ChoiceKind kind, size_t machine) {
  double value = exponential(gen, mean);
  if (hook != nullptr) {
    value = hook->on_double(kind, static_cast<uint32_t>(machine), value);
    constexpr double kMinDuration = 1.0e-6;
    if (!std::isfinite(value) || value < kMinDuration) {
      value = kMinDuration;
    }
  }
  return value;
}

}  // namespace

void RetryPolicy::validate() const {
  // Attempt indices 0..max_attempts-1 must fit queueing::Job::attempt.
  HS_CHECK(max_attempts >= 1 && max_attempts <= 65536,
           "retry max_attempts must be in [1, 65536], got " << max_attempts);
  HS_CHECK(std::isfinite(backoff_initial) && backoff_initial >= 0.0,
           "retry backoff_initial must be finite and >= 0, got "
               << backoff_initial);
  HS_CHECK(std::isfinite(backoff_factor) && backoff_factor >= 1.0,
           "retry backoff_factor must be finite and >= 1, got "
               << backoff_factor);
  HS_CHECK(std::isfinite(job_timeout) && job_timeout >= 0.0,
           "retry job_timeout must be finite and >= 0, got " << job_timeout);
}

bool FaultConfig::enabled() const {
  if (!outages.empty()) {
    return true;
  }
  for (const MachineProcess& process : processes) {
    if (process.mtbf > 0.0) {
      return true;
    }
  }
  return false;
}

void FaultConfig::validate(size_t machine_count, double sim_time) const {
  if (!processes.empty()) {
    HS_CHECK(processes.size() == machine_count,
             "fault processes size " << processes.size()
                                     << " != machine count " << machine_count);
  }
  for (size_t i = 0; i < processes.size(); ++i) {
    const MachineProcess& process = processes[i];
    HS_CHECK(std::isfinite(process.mtbf) && process.mtbf >= 0.0,
             "fault processes[" << i << "]: mtbf must be finite and >= 0, got "
                                << process.mtbf);
    if (process.mtbf > 0.0) {
      HS_CHECK(std::isfinite(process.mttr) && process.mttr > 0.0,
               "fault processes[" << i << "]: mttr must be finite and > 0 "
                                  << "when mtbf is set, got " << process.mttr);
    }
  }
  for (size_t i = 0; i < outages.size(); ++i) {
    const Outage& outage = outages[i];
    HS_CHECK(outage.machine < machine_count,
             "fault outages[" << i << "]: machine " << outage.machine
                              << " out of range [0, " << machine_count << ")");
    HS_CHECK(std::isfinite(outage.start) && outage.start >= 0.0,
             "fault outages[" << i << "]: start must be finite and >= 0, got "
                              << outage.start);
    HS_CHECK(outage.start <= sim_time,
             "fault outages[" << i << "]: start " << outage.start
                              << " beyond sim_time " << sim_time);
    HS_CHECK(std::isfinite(outage.duration) && outage.duration > 0.0,
             "fault outages[" << i
                              << "]: duration must be finite and > 0, got "
                              << outage.duration);
  }
  retry.validate();
}

std::vector<FaultEvent> build_fault_timeline(const FaultConfig& config,
                                             size_t machine_count,
                                             double horizon, uint64_t seed,
                                             ChoiceHook* hook) {
  config.validate(machine_count, horizon);
  std::vector<FaultEvent> timeline;
  for (size_t m = 0; m < machine_count; ++m) {
    std::vector<Interval> down;
    if (m < config.processes.size() && config.processes[m].mtbf > 0.0) {
      rng::Xoshiro256 gen(
          rng::derive_seed(seed, 0, rng::Stream::kFaultTimeline, m));
      double t = 0.0;
      for (;;) {
        const double crash =
            t + duration_draw(gen, config.processes[m].mtbf, hook,
                              ChoiceKind::kFaultUptime, m);
        if (crash >= horizon) {
          break;
        }
        const double recover =
            crash + duration_draw(gen, config.processes[m].mttr, hook,
                                  ChoiceKind::kFaultDowntime, m);
        down.push_back({crash, recover});
        t = recover;
        if (t >= horizon) {
          break;
        }
      }
    }
    for (const FaultConfig::Outage& outage : config.outages) {
      if (outage.machine == m) {
        down.push_back({outage.start, outage.start + outage.duration});
      }
    }
    if (down.empty()) {
      continue;
    }
    // Merge overlapping/adjacent down-intervals so crash/recovery strictly
    // alternate per machine even when scripted outages overlap stochastic
    // ones.
    std::sort(down.begin(), down.end(),
              [](const Interval& a, const Interval& b) {
                return a.start < b.start;
              });
    std::vector<Interval> merged;
    for (const Interval& interval : down) {
      if (!merged.empty() && interval.start <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, interval.end);
      } else {
        merged.push_back(interval);
      }
    }
    for (const Interval& interval : merged) {
      if (interval.start > horizon) {
        continue;
      }
      timeline.push_back({interval.start, m, /*up=*/false});
      if (interval.end <= horizon) {
        timeline.push_back({interval.end, m, /*up=*/true});
      }
    }
  }
  // Sort by time; ties resolved by (machine, crash-before-recovery) for a
  // deterministic event order independent of construction order.
  std::sort(timeline.begin(), timeline.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.time != b.time) {
                return a.time < b.time;
              }
              if (a.machine != b.machine) {
                return a.machine < b.machine;
              }
              return a.up < b.up;
            });
  return timeline;
}

std::vector<double> downtime_from_timeline(
    const std::vector<FaultEvent>& timeline, size_t machine_count,
    double horizon) {
  std::vector<double> downtime(machine_count, 0.0);
  std::vector<double> down_since(machine_count, -1.0);
  for (const FaultEvent& event : timeline) {
    HS_CHECK(event.machine < machine_count,
             "fault event machine out of range: " << event.machine);
    if (!event.up) {
      down_since[event.machine] = event.time;
    } else if (down_since[event.machine] >= 0.0) {
      downtime[event.machine] += event.time - down_since[event.machine];
      down_since[event.machine] = -1.0;
    }
  }
  for (size_t m = 0; m < machine_count; ++m) {
    if (down_since[m] >= 0.0) {
      downtime[m] += horizon - down_since[m];
    }
  }
  return downtime;
}

}  // namespace hs::cluster
