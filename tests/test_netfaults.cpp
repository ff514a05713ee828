// Network fault model (cluster/netfaults.h) and its wiring into the
// cluster simulation: per-field validation, the deterministic partition
// timeline, heartbeat-based suspicion, exactly-once accounting under
// loss/duplication, and the Server::evict hook hedged dispatch relies
// on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cluster/netfaults.h"
#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/fault_aware.h"
#include "dispatch/least_load.h"
#include "overload/circuit_breaker.h"
#include "queueing/fcfs_server.h"
#include "queueing/ps_server.h"
#include "queueing/rr_server.h"
#include "rng/rng.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace {

using hs::cluster::build_partition_timeline;
using hs::cluster::NetworkConfig;
using hs::cluster::Partition;
using hs::cluster::PartitionEvent;
using hs::cluster::SimulationConfig;
using hs::cluster::SimulationResult;

// ---------------------------------------------------------------------
// Validation: every rejection names the offending field (the PR 4/5
// error-message discipline).

std::string message_for(const NetworkConfig& config, size_t machines = 3,
                        double sim_time = 1000.0) {
  try {
    config.validate(machines, sim_time);
  } catch (const hs::util::CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(NetFaultsValidation, DefaultConfigIsOffAndValid) {
  NetworkConfig config;
  EXPECT_FALSE(config.enabled());
  // The §4.2 feedback defaults moved here unchanged.
  EXPECT_DOUBLE_EQ(config.detection_interval, 1.0);
  EXPECT_DOUBLE_EQ(config.message_delay_mean, 0.05);
  EXPECT_EQ(message_for(config), "");
}

TEST(NetFaultsValidation, LinkFieldsAreRangeChecked) {
  NetworkConfig config;
  config.dispatch_link.loss = 1.0;
  EXPECT_NE(message_for(config).find(
                "network dispatch_link: loss must be within [0, 1), got 1"),
            std::string::npos)
      << message_for(config);

  config = {};
  config.dispatch_link.delay_mean = -0.5;
  EXPECT_NE(message_for(config).find(
                "network dispatch_link: delay_mean must be finite and >= 0"),
            std::string::npos);

  config = {};
  config.report_link.loss = -0.1;
  EXPECT_NE(message_for(config).find("network report_link: loss"),
            std::string::npos);

  config = {};
  config.dispatch_link.tail_prob = 1.5;
  config.dispatch_link.delay_mean = 1.0;
  EXPECT_NE(message_for(config).find("tail_prob must be within [0, 1]"),
            std::string::npos);

  config = {};
  config.dispatch_link.delay_mean = 1.0;
  config.dispatch_link.tail_factor = 0.5;
  EXPECT_NE(message_for(config).find("tail_factor must be >= 1"),
            std::string::npos);

  // A tail knob without a delay mean silently does nothing — reject it.
  config = {};
  config.dispatch_link.tail_prob = 0.2;
  EXPECT_NE(
      message_for(config).find("tail_prob without delay_mean has no effect"),
      std::string::npos);

  config = {};
  config.report_link.duplicate = 1.0;
  EXPECT_NE(message_for(config).find(
                "network report_link: duplicate must be within [0, 1)"),
            std::string::npos);
}

TEST(NetFaultsValidation, HeartbeatFieldsAreRangeChecked) {
  NetworkConfig config;
  config.heartbeat.interval = -1.0;
  EXPECT_NE(message_for(config).find(
                "network heartbeat: interval must be finite and >= 0"),
            std::string::npos);

  config = {};
  config.heartbeat.interval = 1.0;
  config.heartbeat.phi_threshold = 0.0;
  EXPECT_NE(message_for(config).find(
                "network heartbeat: phi_threshold must be > 0"),
            std::string::npos);

  config = {};
  config.heartbeat.interval = 1.0;
  config.heartbeat.ewma_alpha = 0.0;
  EXPECT_NE(message_for(config).find(
                "network heartbeat: ewma_alpha must be within (0, 1]"),
            std::string::npos);
  config.heartbeat.ewma_alpha = 1.5;
  EXPECT_NE(message_for(config).find("ewma_alpha"), std::string::npos);
}

TEST(NetFaultsValidation, FeedbackFieldsAreRangeChecked) {
  NetworkConfig config;
  config.detection_interval = -1.0;
  EXPECT_NE(message_for(config).find(
                "network detection_interval must be finite and >= 0"),
            std::string::npos);

  config = {};
  config.message_delay_mean = -0.05;
  EXPECT_NE(message_for(config).find(
                "network message_delay_mean must be finite and >= 0"),
            std::string::npos);
}

TEST(NetFaultsValidation, PartitionWindowsAreValidated) {
  NetworkConfig config;
  config.partitions.push_back({-1.0, 10.0, {0}});
  EXPECT_NE(message_for(config).find("network partitions[0]: start must be"),
            std::string::npos);

  config = {};
  config.partitions.push_back({0.0, 0.0, {0}});
  EXPECT_NE(
      message_for(config).find("network partitions[0]: duration must be > 0"),
      std::string::npos);

  config = {};
  config.partitions.push_back({2000.0, 10.0, {0}});
  EXPECT_NE(message_for(config).find(
                "network partitions[0]: starts at 2000, past sim_time 1000"),
            std::string::npos);

  config = {};
  config.partitions.push_back({0.0, 10.0, {}});
  EXPECT_NE(
      message_for(config).find("network partitions[0]: machine set is empty"),
      std::string::npos);

  config = {};
  config.partitions.push_back({0.0, 10.0, {7}});
  EXPECT_NE(message_for(config).find(
                "network partitions[0]: machine 7 out of range"),
            std::string::npos);

  // Overlap on one machine is rejected; the second partition is index 1
  // but the message reports the colliding windows.
  config = {};
  config.partitions.push_back({0.0, 20.0, {1}});
  config.partitions.push_back({10.0, 20.0, {1}});
  EXPECT_NE(message_for(config).find(
                "network partitions: overlapping windows on machine 1"),
            std::string::npos);

  // Back-to-back windows (no overlap) and overlap on *different*
  // machines are fine.
  config = {};
  config.partitions.push_back({0.0, 10.0, {1}});
  config.partitions.push_back({10.0, 10.0, {1}});
  config.partitions.push_back({5.0, 10.0, {2}});
  EXPECT_EQ(message_for(config), "");
}

// ---------------------------------------------------------------------
// Partition timeline.

TEST(NetFaults, PartitionTimelineIsSortedCloseBeforeOpen) {
  std::vector<Partition> partitions;
  partitions.push_back({10.0, 10.0, {0, 2}});  // [10, 20) on 0 and 2
  partitions.push_back({20.0, 10.0, {0}});     // back-to-back on 0
  partitions.push_back({15.0, 1.0, {1}});
  const std::vector<PartitionEvent> timeline =
      build_partition_timeline(partitions);
  ASSERT_EQ(timeline.size(), 8u);
  for (size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_LE(timeline[i - 1].time, timeline[i].time);
  }
  // At t=20 machine 0 has a close edge and an open edge; the close must
  // come first so back-to-back windows keep the machine isolated.
  size_t at20_first = 0;
  while (timeline[at20_first].time != 20.0 ||
         timeline[at20_first].machine != 0) {
    ++at20_first;
  }
  ASSERT_LT(at20_first + 1, timeline.size());
  EXPECT_FALSE(timeline[at20_first].isolated);
  EXPECT_TRUE(timeline[at20_first + 1].isolated);
  EXPECT_EQ(timeline[at20_first + 1].machine, 0u);
}

TEST(NetFaults, SampleDelayDrawsNothingWhenDisabled) {
  hs::cluster::LinkFaults link;  // delay_mean == 0
  link.loss = 0.3;
  hs::rng::Xoshiro256 a(42), b(42);
  EXPECT_DOUBLE_EQ(link.sample_delay(a), 0.0);
  // The generator state must be untouched: loss-only links perturb no
  // delay stream.
  EXPECT_DOUBLE_EQ(a.next_double(), b.next_double());
}

TEST(NetFaults, HeartbeatTimeoutMatchesPhiFormula) {
  hs::cluster::HeartbeatConfig hb;
  hb.interval = 1.0;
  hb.phi_threshold = 8.0;
  // φ(t) = t/(mean·ln 10) ⇒ timeout = φ*·mean·ln 10.
  EXPECT_NEAR(hb.timeout(2.0), 8.0 * 2.0 * std::log(10.0), 1e-12);
}

// ---- PhiDetector: the one φ-accrual detector of both runtimes ----

TEST(PhiDetector, BeatFoldsTheGapIntoTheEwma) {
  hs::cluster::PhiDetector phi{1.0, 2.0};
  phi.beat(2.5, 0.1);
  EXPECT_EQ(phi.mean, (1.0 - 0.1) * 2.0 + 0.1 * 1.5);
  EXPECT_EQ(phi.last, 2.5);
  phi.beat(2.5, 0.1);  // a zero gap still counts
  EXPECT_EQ(phi.mean, (1.0 - 0.1) * ((1.0 - 0.1) * 2.0 + 0.1 * 1.5));
}

TEST(PhiDetector, NegativeGapChangesNothing) {
  hs::cluster::PhiDetector phi{5.0, 2.0};
  phi.beat(4.0, 0.5);
  EXPECT_EQ(phi.last, 5.0);
  EXPECT_EQ(phi.mean, 2.0);
}

// The simulator arms every detector at t = 0 with mean = interval, so a
// machine that never beats is suspected at timeout(interval); serving
// arms a backend at its first heartbeat. Both must give the timeouts
// the two runtimes computed with their own EWMA copies.
TEST(PhiDetector, BothStartRulesGiveTheCallersTimeouts) {
  hs::cluster::HeartbeatConfig hb;
  hb.interval = 2.0;
  hb.phi_threshold = 4.0;
  hb.ewma_alpha = 0.1;
  const double a = hb.ewma_alpha;
  const std::vector<double> beats = {2.3, 4.1, 6.8, 8.0};

  hs::cluster::PhiDetector sim{0.0, hb.interval};
  EXPECT_EQ(hb.timeout(sim.mean), hb.timeout(hb.interval));
  double last = 0.0;
  double mean = hb.interval;
  for (const double t : beats) {
    sim.beat(t, a);
    mean = (1.0 - a) * mean + a * (t - last);
    last = t;
    EXPECT_EQ(sim.last, last);
    EXPECT_EQ(hb.timeout(sim.mean), hb.timeout(mean)) << t;
  }

  hs::cluster::PhiDetector serving{beats[0], hb.interval};
  last = beats[0];
  mean = hb.interval;
  for (size_t i = 1; i < beats.size(); ++i) {
    serving.beat(beats[i], a);
    mean = (1.0 - a) * mean + a * (beats[i] - last);
    last = beats[i];
    EXPECT_EQ(serving.last, last);
    EXPECT_EQ(hb.timeout(serving.mean), hb.timeout(mean)) << i;
  }
}

// ---------------------------------------------------------------------
// Simulation wiring.

SimulationConfig base_config(uint64_t seed) {
  SimulationConfig config;
  config.speeds = {2.0, 1.0};
  config.rho = 0.6;
  config.sim_time = 4000.0;
  config.warmup_frac = 0.1;
  config.seed = seed;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  return config;
}

void expect_conserved(const SimulationResult& result, uint64_t seed) {
  EXPECT_GT(result.total_arrivals, 0u);
  EXPECT_EQ(result.total_arrivals,
            result.total_completed + result.total_shed +
                result.total_dropped + result.in_flight_at_end)
      << "seed=" << seed << " arrivals=" << result.total_arrivals
      << " completed=" << result.total_completed
      << " shed=" << result.total_shed << " dropped=" << result.total_dropped
      << " in_flight=" << result.in_flight_at_end;
}

TEST(NetSim, LossyRunIsReproducible) {
  SimulationConfig config = base_config(2024);
  config.network.dispatch_link.loss = 0.1;
  config.network.dispatch_link.delay_mean = 0.05;
  config.network.dispatch_link.duplicate = 0.05;
  config.network.report_link.loss = 0.1;
  config.network.report_link.delay_mean = 0.02;
  config.network.heartbeat.interval = 1.0;
  config.faults.retry.max_attempts = 3;
  config.faults.retry.backoff_initial = 0.5;

  auto run = [&] {
    auto dispatcher = hs::core::make_fault_aware_dispatcher(
        hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
    return hs::cluster::run_simulation(config, *dispatcher);
  };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_GT(a.msgs_lost, 0u);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.msgs_lost, b.msgs_lost);
  EXPECT_EQ(a.msgs_duplicated, b.msgs_duplicated);
  EXPECT_EQ(a.suspicions, b.suspicions);
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);  // bitwise
  EXPECT_EQ(a.response_time_p99, b.response_time_p99);
  expect_conserved(a, 2024);
}

TEST(NetSim, LossIsConservedAcrossSeeds) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    SimulationConfig config = base_config(seed * 101 + 7);
    config.network.dispatch_link.loss = 0.1;
    config.network.report_link.loss = 0.1;
    config.faults.retry.max_attempts = 3;
    config.faults.retry.backoff_initial = 0.5;
    auto dispatcher = hs::core::make_fault_aware_dispatcher(
        hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
    const SimulationResult result =
        hs::cluster::run_simulation(config, *dispatcher);
    EXPECT_GT(result.msgs_lost, 0u) << "seed=" << seed;
    expect_conserved(result, seed);
  }
}

TEST(NetSim, DuplicatesAreDelivedOnceAndConserved) {
  SimulationConfig config = base_config(99);
  config.network.dispatch_link.duplicate = 0.4;
  config.network.dispatch_link.delay_mean = 0.1;
  config.network.report_link.duplicate = 0.4;
  config.network.report_link.delay_mean = 0.1;

  auto dispatcher = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  const SimulationResult result =
      hs::cluster::run_simulation(config, *dispatcher);
  EXPECT_GT(result.msgs_duplicated, 0u);
  // No loss, no crashes: after the drain every arrival completed exactly
  // once despite ~40% of messages arriving twice.
  EXPECT_EQ(result.total_arrivals, result.total_completed);
  EXPECT_EQ(result.in_flight_at_end, 0u);
  expect_conserved(result, 99);
}

TEST(NetSim, SuspicionReroutesAroundPartitionedMachine) {
  SimulationConfig config;
  config.speeds = {1.0, 1.0};
  config.rho = 0.5;
  config.sim_time = 5000.0;
  config.warmup_frac = 0.0;
  config.seed = 4242;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  // Machine 0 unreachable for [1000, 4000); no crash ever happens.
  config.network.partitions.push_back({1000.0, 3000.0, {0}});
  config.network.heartbeat.interval = 1.0;
  config.network.heartbeat.phi_threshold = 3.0;
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 0.5;

  auto fault_aware = std::make_unique<hs::dispatch::FaultAwareDispatcher>(
      std::make_unique<hs::dispatch::LeastLoadDispatcher>(config.speeds));
  auto* fault_aware_ptr = fault_aware.get();
  const SimulationResult result =
      hs::cluster::run_simulation(config, *fault_aware);

  // The detector suspected the silent machine and the decorator rerouted:
  // machine 0 handled far fewer than its no-partition half of the jobs.
  EXPECT_GE(result.suspicions, 1u);
  EXPECT_LT(result.machine_fractions[0], 0.4);
  EXPECT_GT(result.completed_jobs, 0u);
  // After the partition closed, heartbeats resumed and the recovery
  // report restored the machine.
  EXPECT_TRUE(fault_aware_ptr->available()[0]);
  expect_conserved(result, 4242);
}

TEST(NetSim, PartitionTripsBreakerWithoutAnyCrash) {
  SimulationConfig config;
  config.speeds = {1.0, 1.0, 1.0};
  config.rho = 0.5;
  config.sim_time = 3000.0;
  config.warmup_frac = 0.0;
  config.seed = 1717;
  config.workload.arrival_kind = hs::workload::ArrivalKind::kPoisson;
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 1.0;
  config.network.partitions.push_back({500.0, 1000.0, {2}});
  config.network.heartbeat.interval = 1.0;
  config.network.heartbeat.phi_threshold = 3.0;
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 0.5;

  auto breaker = std::make_unique<hs::overload::CircuitBreakerDispatcher>(
      std::make_unique<hs::dispatch::LeastLoadDispatcher>(config.speeds),
      hs::overload::CircuitBreakerConfig{});
  auto* breaker_ptr = breaker.get();
  const SimulationResult result =
      hs::cluster::run_simulation(config, *breaker);

  // False suspicion during the partition must trip the breaker (fail-
  // fast routing), not be treated as a crash: no fault process is
  // configured, so no job was ever evicted from a machine.
  EXPECT_GE(result.suspicions, 1u);
  EXPECT_GE(breaker_ptr->trips(), 1u);
  EXPECT_GT(result.completed_jobs, 0u);
  expect_conserved(result, 1717);
}

// ---------------------------------------------------------------------
// Server::evict — the primitive first-completion-wins hedging rests on.

struct EvictHarness {
  hs::sim::Simulator sim;
  std::map<uint64_t, double> departures;

  template <typename ServerT, typename... Args>
  std::unique_ptr<ServerT> make(Args&&... args) {
    auto server =
        std::make_unique<ServerT>(sim, std::forward<Args>(args)...);
    server->set_completion_callback(
        [this](const hs::queueing::Completion& c) {
          departures[c.job.id] = c.departure_time;
        });
    return server;
  }
};

TEST(ServerEvict, FcfsEvictsRunningAndQueuedJobs) {
  EvictHarness h;
  auto server = h.make<hs::queueing::FcfsServer>(1.0, 0);
  auto* s = server.get();
  h.sim.schedule_at(0.0, [s] {
    s->arrive({1, 0.0, 10.0});
    s->arrive({2, 0.0, 1.0});
    s->arrive({3, 0.0, 1.0});
  });
  // Evict the queued job first, then the running one; service restarts
  // with the next waiter at the eviction time.
  h.sim.schedule_at(0.5, [s] { EXPECT_TRUE(s->evict(3)); });
  h.sim.schedule_at(1.0, [s] {
    EXPECT_TRUE(s->evict(1));
    EXPECT_FALSE(s->evict(99));
  });
  h.sim.run_all();
  ASSERT_EQ(h.departures.size(), 1u);
  EXPECT_DOUBLE_EQ(h.departures[2], 2.0);  // starts at 1.0 after eviction
  EXPECT_EQ(s->queue_length(), 0u);
}

TEST(ServerEvict, FcfsEvictionOfLastJobIdlesTheServer) {
  EvictHarness h;
  auto server = h.make<hs::queueing::FcfsServer>(1.0, 0);
  auto* s = server.get();
  h.sim.schedule_at(0.0, [s] { s->arrive({1, 0.0, 10.0}); });
  h.sim.schedule_at(2.0, [s] { EXPECT_TRUE(s->evict(1)); });
  h.sim.schedule_at(5.0, [s] { s->arrive({2, 5.0, 1.0}); });
  h.sim.run_all();
  EXPECT_DOUBLE_EQ(h.departures[2], 6.0);
  // Busy time banks the truncated busy period: [0, 2) plus [5, 6).
  EXPECT_NEAR(s->busy_time(), 3.0, 1e-9);
}

TEST(ServerEvict, PsEvictionSpeedsUpTheSurvivor) {
  EvictHarness h;
  auto server = h.make<hs::queueing::PsServer>(1.0, 0);
  auto* s = server.get();
  h.sim.schedule_at(0.0, [s] {
    s->arrive({1, 0.0, 2.0});
    s->arrive({2, 0.0, 2.0});
  });
  // Two PS jobs run at rate 1/2 each. At t=1 job 2 has 1.5 remaining;
  // alone it finishes at 2.5 instead of 4.0.
  h.sim.schedule_at(1.0, [s] {
    EXPECT_TRUE(s->evict(1));
    EXPECT_FALSE(s->evict(1));  // already gone
    EXPECT_EQ(s->resident_id(0), 2u);
    EXPECT_THROW((void)s->resident_id(1), hs::util::CheckError);
  });
  h.sim.run_all();
  ASSERT_EQ(h.departures.size(), 1u);
  EXPECT_NEAR(h.departures[2], 2.5, 1e-9);
}

struct Departure {
  uint64_t id;
  double time;
};

/// Brute-force processor sharing: every resident job's remaining work,
/// all of it spent down on every step. O(n) per event and no heap, so it
/// is an oracle for PsServer's tag heap and its in-place eviction.
class ReferencePs {
 public:
  /// Serve until `t`, appending every departure at or before it.
  void advance_to(double t, std::vector<Departure>& departures) {
    while (!jobs_.empty() && speed_ > 0.0) {
      const auto leader = least();
      const double work = std::max(leader->remaining, 0.0);
      const double finish =
          now_ + work * static_cast<double>(jobs_.size()) / speed_;
      if (finish > t) {
        break;
      }
      departures.push_back({leader->id, finish});
      jobs_.erase(leader);
      spend(work);
      now_ = finish;
    }
    if (!jobs_.empty() && speed_ > 0.0) {
      spend(speed_ * (t - now_) / static_cast<double>(jobs_.size()));
    }
    now_ = t;
  }
  void arrive(uint64_t id, double size) { jobs_.push_back({id, size}); }
  bool evict(uint64_t id) {
    const auto it = find(id);
    if (it == jobs_.end()) {
      return false;
    }
    jobs_.erase(it);
    return true;
  }
  void set_speed(double speed) { speed_ = speed; }
  [[nodiscard]] bool holds(uint64_t id) { return find(id) != jobs_.end(); }
  /// Remaining work of job `id`; +inf once it has left.
  [[nodiscard]] double remaining(uint64_t id) {
    const auto it = find(id);
    return it == jobs_.end() ? std::numeric_limits<double>::infinity()
                             : it->remaining;
  }
  [[nodiscard]] double least_remaining() { return least()->remaining; }

 private:
  struct Resident {
    uint64_t id;
    double remaining;
  };
  std::vector<Resident>::iterator find(uint64_t id) {
    return std::find_if(jobs_.begin(), jobs_.end(),
                        [id](const Resident& r) { return r.id == id; });
  }
  std::vector<Resident>::iterator least() {
    return std::min_element(jobs_.begin(), jobs_.end(),
                            [](const Resident& a, const Resident& b) {
                              return a.remaining < b.remaining;
                            });
  }
  void spend(double work) {
    for (Resident& job : jobs_) {
      job.remaining -= work;
    }
  }

  std::vector<Resident> jobs_;
  double now_ = 0.0;
  double speed_ = 1.0;
};

/// Seeded random interleavings of arrivals, evictions (the leader, the
/// last heap slot, an interior entry, an absent id) and speed changes
/// (stops and restarts included), at depths that cycle up past 256. The
/// server must depart the same jobs as the reference, in the same order
/// except where the reference's own times tie within 1e-9, at the same
/// times within 1e-9 relative. Between operations its next job to
/// depart must also be one the reference ranks first (within 1e-9 of
/// work), which catches a misplaced heap entry as soon as it matters
/// rather than only if it outlives every eviction.
TEST(ServerEvict, PsEvictionMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    hs::sim::Simulator sim;
    hs::queueing::PsServer server(sim, 1.0, 0);
    std::vector<Departure> got;
    server.set_completion_callback(
        [&got](const hs::queueing::Completion& c) {
          got.push_back({c.job.id, c.departure_time});
        });
    ReferencePs reference;
    std::vector<Departure> want;
    hs::rng::Xoshiro256 gen(seed);
    const auto exponential = [&gen](double mean) {
      return -std::log(gen.next_double_open0()) * mean;
    };
    const auto next_departure = [&sim] {
      return sim.queue().empty() ? -1.0 : sim.queue().next_time();
    };

    double t = 0.0;
    double speed = 1.0;
    uint64_t next_id = 1;
    size_t max_depth = 0;
    bool growing = true;
    std::map<std::string, int> evictions;
    for (int step = 0; step < 4000; ++step) {
      t += exponential(0.02);
      sim.run_until(t);
      reference.advance_to(t, want);
      const size_t depth = server.queue_length();
      max_depth = std::max(max_depth, depth);
      if (depth >= 300) {
        growing = false;
      } else if (depth <= 8) {
        growing = true;
      }
      if (depth > 0) {
        ASSERT_LE(reference.remaining(server.resident_id(0)),
                  reference.least_remaining() + 1e-9)
            << "job " << server.resident_id(0) << " leads at t = " << t;
      }
      const double op = gen.next_double();
      const double arrive_share = growing ? 0.7 : 0.2;
      if (op < arrive_share || depth == 0) {
        const double size = 0.05 + exponential(1.0);
        ASSERT_TRUE(server.arrive({next_id, t, size}));
        reference.arrive(next_id, size);
        ++next_id;
      } else if (op < 0.9) {
        uint64_t id = 0;
        switch (gen.next_below(4)) {
          case 0:
            id = server.resident_id(0);
            ++evictions["leader"];
            break;
          case 1:
            id = server.resident_id(depth - 1);
            ++evictions["last"];
            break;
          case 2:
            id = server.resident_id(
                depth < 3 ? 0 : 1 + gen.next_below(depth - 2));
            ++evictions["interior"];
            break;
          default: {
            // A departed, evicted or never-issued id: nothing moves.
            uint64_t absent = 0;
            do {
              absent = gen.next_below(next_id + 1000);
            } while (reference.holds(absent));
            const double before = next_departure();
            EXPECT_FALSE(server.evict(absent));
            EXPECT_EQ(next_departure(), before);
            ++evictions["absent"];
            continue;
          }
        }
        ASSERT_TRUE(server.evict(id));
        ASSERT_TRUE(reference.evict(id));
      } else {
        speed = speed > 0.0 && gen.next_double() < 0.3
                    ? 0.0
                    : gen.uniform(0.5, 4.0);
        server.set_speed(speed);
        reference.set_speed(speed);
      }
    }
    server.set_speed(1.0);
    reference.set_speed(1.0);
    sim.run_all();
    reference.advance_to(std::numeric_limits<double>::infinity(), want);

    EXPECT_GE(max_depth, 256u);
    for (const char* kind : {"leader", "last", "interior", "absent"}) {
      EXPECT_GT(evictions[kind], 50) << kind;
    }
    ASSERT_EQ(got.size(), want.size());
    std::map<uint64_t, double> want_time;
    for (const Departure& d : want) {
      want_time[d.id] = d.time;
    }
    for (size_t i = 0; i < got.size(); ++i) {
      const auto it = want_time.find(got[i].id);
      ASSERT_NE(it, want_time.end()) << "job " << got[i].id;
      const double tolerance = 1e-9 * it->second;
      if (got[i].id != want[i].id) {
        ASSERT_NEAR(it->second, want[i].time, tolerance)
            << "departure " << i << ": job " << got[i].id
            << " left before job " << want[i].id;
      }
      ASSERT_NEAR(got[i].time, it->second, tolerance)
          << "departure " << i << " (job " << got[i].id << ")";
    }
  }
}

TEST(ServerEvict, RrEvictsTheRunningJob) {
  EvictHarness h;
  auto server = h.make<hs::queueing::RrServer>(1.0, 0, 0.5);
  auto* s = server.get();
  h.sim.schedule_at(0.0, [s] {
    s->arrive({1, 0.0, 10.0});
    s->arrive({2, 0.0, 1.0});
  });
  h.sim.schedule_at(0.25, [s] { EXPECT_TRUE(s->evict(1)); });
  h.sim.run_all();
  ASSERT_EQ(h.departures.size(), 1u);
  EXPECT_NEAR(h.departures[2], 1.25, 1e-9);
}

TEST(ServerEvict, DefaultImplementationThrows) {
  struct MinimalServer : hs::queueing::Server {
    using Server::Server;
    bool arrive(const hs::queueing::Job&) override { return true; }
    [[nodiscard]] size_t queue_length() const override { return 0; }
    [[nodiscard]] double busy_time() const override { return 0.0; }
  };
  hs::sim::Simulator sim;
  MinimalServer server(sim, 1.0, 0);
  EXPECT_THROW((void)server.evict(1), hs::util::CheckError);
}

}  // namespace
