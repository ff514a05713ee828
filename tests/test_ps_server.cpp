// Tests for the exact processor-sharing server, including validation
// against M/M/1-PS closed forms (Eqs. 1–2 of the paper).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "queueing/mm1.h"
#include "queueing/ps_server.h"
#include "rng/distributions.h"
#include "sim/simulator.h"
#include "stats/running_stats.h"
#include "util/check.h"

namespace {

using hs::queueing::Completion;
using hs::queueing::Job;
using hs::queueing::PsServer;
using hs::sim::Simulator;

struct Harness {
  Simulator sim;
  PsServer server;
  std::vector<Completion> completions;

  explicit Harness(double speed = 1.0) : server(sim, speed, 0) {
    server.set_completion_callback(
        [this](const Completion& c) { completions.push_back(c); });
  }

  void arrive_at(double t, uint64_t id, double size) {
    sim.schedule_at(t, [this, id, size, t] {
      server.arrive(Job{id, t, size});
    });
  }

  std::map<uint64_t, double> departures() {
    std::map<uint64_t, double> result;
    for (const auto& c : completions) {
      result[c.job.id] = c.departure_time;
    }
    return result;
  }
};

TEST(PsServer, SingleJobRunsAtFullSpeed) {
  Harness h(1.0);
  h.arrive_at(0.0, 1, 5.0);
  h.sim.run_all();
  EXPECT_DOUBLE_EQ(h.departures()[1], 5.0);
}

TEST(PsServer, SpeedScalesServiceTime) {
  Harness h(2.0);
  h.arrive_at(1.0, 1, 5.0);
  h.sim.run_all();
  EXPECT_DOUBLE_EQ(h.departures()[1], 1.0 + 2.5);
}

TEST(PsServer, TwoOverlappingJobsShareCapacity) {
  // Speed 1; A(size 2) at t=0, B(size 2) at t=1.
  // A alone on [0,1) then both share: A finishes at 3, B at 4.
  Harness h(1.0);
  h.arrive_at(0.0, 1, 2.0);
  h.arrive_at(1.0, 2, 2.0);
  h.sim.run_all();
  auto d = h.departures();
  EXPECT_NEAR(d[1], 3.0, 1e-9);
  EXPECT_NEAR(d[2], 4.0, 1e-9);
}

TEST(PsServer, ThreeSimultaneousJobsDepartBySize) {
  // Sizes 1, 2, 3 at t=0 on speed 1: departures at 3, 5, 6.
  Harness h(1.0);
  h.arrive_at(0.0, 1, 1.0);
  h.arrive_at(0.0, 2, 2.0);
  h.arrive_at(0.0, 3, 3.0);
  h.sim.run_all();
  auto d = h.departures();
  EXPECT_NEAR(d[1], 3.0, 1e-9);
  EXPECT_NEAR(d[2], 5.0, 1e-9);
  EXPECT_NEAR(d[3], 6.0, 1e-9);
}

TEST(PsServer, EqualSizeJobsDepartTogether) {
  Harness h(1.0);
  h.arrive_at(0.0, 1, 2.0);
  h.arrive_at(0.0, 2, 2.0);
  h.sim.run_all();
  auto d = h.departures();
  EXPECT_NEAR(d[1], 4.0, 1e-9);
  EXPECT_NEAR(d[2], 4.0, 1e-9);
}

TEST(PsServer, IdlePeriodsDoNotServeWork) {
  Harness h(1.0);
  h.arrive_at(0.0, 1, 1.0);
  h.arrive_at(10.0, 2, 1.0);
  h.sim.run_all();
  auto d = h.departures();
  EXPECT_NEAR(d[1], 1.0, 1e-9);
  EXPECT_NEAR(d[2], 11.0, 1e-9);
}

TEST(PsServer, QueueLengthTracksActiveJobs) {
  Harness h(1.0);
  h.arrive_at(0.0, 1, 10.0);
  h.arrive_at(1.0, 2, 10.0);
  h.sim.run_until(2.0);
  EXPECT_EQ(h.server.queue_length(), 2u);
  h.sim.run_all();
  EXPECT_EQ(h.server.queue_length(), 0u);
}

TEST(PsServer, BusyTimeAndUtilization) {
  Harness h(2.0);
  h.arrive_at(0.0, 1, 4.0);  // busy [0, 2)
  h.sim.run_until(8.0);
  EXPECT_NEAR(h.server.busy_time(), 2.0, 1e-9);
  EXPECT_NEAR(h.server.utilization(), 0.25, 1e-9);
  EXPECT_NEAR(h.server.work_done(), 4.0, 1e-9);
}

TEST(PsServer, CompletedJobsCounter) {
  Harness h(1.0);
  for (int i = 0; i < 5; ++i) {
    h.arrive_at(static_cast<double>(10 * i), static_cast<uint64_t>(i), 1.0);
  }
  h.sim.run_all();
  EXPECT_EQ(h.server.completed_jobs(), 5u);
}

TEST(PsServer, ZeroSizeJobRejected) {
  Harness h(1.0);
  EXPECT_THROW(h.server.arrive(Job{1, 0.0, 0.0}), hs::util::CheckError);
}

TEST(PsServer, ResponseTimesPreservedInCompletion) {
  Harness h(1.0);
  h.arrive_at(2.0, 7, 3.0);
  h.sim.run_all();
  ASSERT_EQ(h.completions.size(), 1u);
  EXPECT_NEAR(h.completions[0].response_time(), 3.0, 1e-9);
  EXPECT_NEAR(h.completions[0].response_ratio(), 1.0, 1e-9);
  EXPECT_EQ(h.completions[0].machine, 0);
}

// ---------------------------------------------------------------------
// Statistical validation: M/M/1-PS mean response time is 1/(μ−λ) and
// mean response ratio 1/(1−ρ) — Eqs. (1)–(2) of the paper.
struct Mm1Case {
  const char* label;
  double lambda;
  double mu;
  double speed;
};

// gtest puts the printed parameter into each listed test name. The raw
// bytes hold a pointer and would rename the test on every build.
void PrintTo(const Mm1Case& c, std::ostream* os) { *os << c.label; }

class PsServerMm1 : public ::testing::TestWithParam<Mm1Case> {};

TEST_P(PsServerMm1, MatchesClosedForm) {
  const auto& c = GetParam();
  Harness h(c.speed);
  hs::rng::Xoshiro256 gen(9001);
  hs::rng::Exponential interarrival(c.lambda);
  // Service rate of the machine is speed·mu <=> sizes have mean 1/mu
  // in base-speed seconds scaled so that mu is the base rate.
  hs::rng::Exponential size_dist(c.mu);

  hs::stats::RunningStats response, ratio;
  h.server.set_completion_callback([&](const Completion& comp) {
    response.add(comp.response_time());
    ratio.add(comp.response_ratio());
  });

  const int n_jobs = 300000;
  double t = 0.0;
  for (int i = 0; i < n_jobs; ++i) {
    t += interarrival.sample(gen);
    const double size = size_dist.sample(gen);
    h.sim.schedule_at(t, [&h, i, t, size] {
      h.server.arrive(Job{static_cast<uint64_t>(i), t, size});
    });
    // Keep the pending-event set small: run up to this arrival.
    h.sim.run_until(t);
  }
  h.sim.run_all();

  const double effective_mu = c.speed * c.mu;
  const double expected_t =
      hs::queueing::mm1::ps_mean_response_time(c.lambda, effective_mu);
  EXPECT_NEAR(response.mean(), expected_t, 0.05 * expected_t) << c.label;

  // Response ratio uses base-speed size: E[R] = 1/(s(1−ρ)) per §2.3.
  const double rho = c.lambda / effective_mu;
  const double expected_r = 1.0 / (c.speed * (1.0 - rho));
  EXPECT_NEAR(ratio.mean(), expected_r, 0.05 * expected_r) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Loads, PsServerMm1,
    ::testing::Values(Mm1Case{"rho30", 0.3, 1.0, 1.0},
                      Mm1Case{"rho70", 0.7, 1.0, 1.0},
                      Mm1Case{"rho90", 0.9, 1.0, 1.0},
                      Mm1Case{"fast_machine", 1.4, 1.0, 2.0}),
    [](const auto& info) { return info.param.label; });

// Differential test: the event-driven virtual-work PS server must match
// a brute-force reference that directly integrates each job's remaining
// work between events (O(n) per step), on randomized arrival patterns.
namespace brute {

struct RefJob {
  uint64_t id;
  double arrival;
  double remaining;
};

// Returns departure time per job id.
std::map<uint64_t, double> simulate_ps(
    const std::vector<std::pair<double, double>>& arrivals, double speed) {
  std::map<uint64_t, double> departures;
  std::vector<RefJob> active;
  size_t next = 0;
  double now = 0.0;
  while (next < arrivals.size() || !active.empty()) {
    // Next departure if the system runs undisturbed.
    double t_depart = std::numeric_limits<double>::infinity();
    if (!active.empty()) {
      double min_remaining = std::numeric_limits<double>::infinity();
      for (const RefJob& job : active) {
        min_remaining = std::min(min_remaining, job.remaining);
      }
      t_depart =
          now + min_remaining * static_cast<double>(active.size()) / speed;
    }
    const double t_arrive = next < arrivals.size()
                                ? arrivals[next].first
                                : std::numeric_limits<double>::infinity();
    const double t_next = std::min(t_depart, t_arrive);
    // Progress every active job by the elapsed share.
    if (!active.empty()) {
      const double each =
          (t_next - now) * speed / static_cast<double>(active.size());
      for (RefJob& job : active) {
        job.remaining -= each;
      }
    }
    now = t_next;
    if (t_next == t_arrive && next < arrivals.size()) {
      active.push_back(
          RefJob{next, arrivals[next].first, arrivals[next].second});
      ++next;
    }
    // Emit all departures (remaining ~ 0).
    for (auto it = active.begin(); it != active.end();) {
      if (it->remaining <= 1e-9) {
        departures[it->id] = now;
        it = active.erase(it);
      } else {
        ++it;
      }
    }
  }
  return departures;
}

}  // namespace brute

class PsServerDifferential : public ::testing::TestWithParam<int> {};

TEST_P(PsServerDifferential, MatchesBruteForceReference) {
  hs::rng::Xoshiro256 gen(static_cast<uint64_t>(GetParam()) * 48271 + 11);
  const double speed = gen.uniform(0.5, 4.0);
  std::vector<std::pair<double, double>> arrivals;
  double t = 0.0;
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    t += gen.uniform(0.0, 2.0);
    arrivals.emplace_back(t, gen.uniform(0.1, 5.0));
  }

  const auto expected = brute::simulate_ps(arrivals, speed);

  Harness h(speed);
  for (size_t i = 0; i < arrivals.size(); ++i) {
    h.arrive_at(arrivals[i].first, i, arrivals[i].second);
  }
  h.sim.run_all();
  const auto actual = h.departures();

  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [id, depart] : expected) {
    ASSERT_TRUE(actual.contains(id)) << "job " << id;
    EXPECT_NEAR(actual.at(id), depart, 1e-6) << "job " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomWorkloads, PsServerDifferential,
                         ::testing::Range(1, 16));

// M/G/1-PS insensitivity: with heavy-tailed (Bounded Pareto) sizes the
// mean response time still follows E[S]/(1−ρ).
TEST(PsServer, InsensitivityToSizeDistribution) {
  Harness h(1.0);
  hs::rng::Xoshiro256 gen(424242);
  hs::rng::BoundedPareto sizes(1.0, 100.0, 1.5);
  const double mean_size = sizes.mean();
  const double rho = 0.6;
  const double lambda = rho / mean_size;
  hs::rng::Exponential interarrival(lambda);

  hs::stats::RunningStats response;
  h.server.set_completion_callback([&](const Completion& comp) {
    response.add(comp.response_time());
  });

  double t = 0.0;
  for (int i = 0; i < 400000; ++i) {
    t += interarrival.sample(gen);
    const double size = sizes.sample(gen);
    h.sim.schedule_at(t, [&h, i, t, size] {
      h.server.arrive(Job{static_cast<uint64_t>(i), t, size});
    });
    h.sim.run_until(t);
  }
  h.sim.run_all();

  const double expected = mean_size / (1.0 - rho);
  EXPECT_NEAR(response.mean(), expected, 0.08 * expected);
}

}  // namespace
