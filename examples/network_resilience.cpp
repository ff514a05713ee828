// Scenario: serving through a flaky network.
//
// PR 1's fault layer dealt with machines that die; the network model
// (cluster/netfaults.h) deals with a cluster whose machines are fine
// but whose *links* are not: dispatch messages vanish, feedback arrives
// late, and sometimes a switch partition makes half the farm look dead.
// This example walks the operational story on the paper's base cluster:
//
//  1. Baseline: Least-Load over a perfect network.
//  2. 10% message loss on both links — lost dispatches are detected
//     after the §4.2 feedback delay and retried, which saves the jobs
//     but not their response-time tail.
//  3. The same lossy links with hedged dispatch: stragglers are
//     re-issued to the least-loaded other machine, first completion
//     wins, and the loser is evicted. The tail comes back down and the
//     exactly-once identity still balances.
//  4. A 30-minute partition isolating the two fastest machines. The
//     heartbeat phi-accrual detector suspects them, the circuit breaker
//     routes around, and both rejoin on recovery — no crash was
//     injected and no job is lost, because a partition loses messages,
//     not jobs.
//
// See docs/FAULT_MODEL.md §8 for the underlying semantics.
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/hedged.h"
#include "overload/circuit_breaker.h"

namespace {

hs::cluster::SimulationConfig base_config() {
  const auto cluster = hs::cluster::ClusterConfig::paper_base();
  hs::cluster::SimulationConfig config;
  config.speeds = cluster.speeds();
  config.rho = 0.7;
  config.sim_time = 2.0e5;
  config.warmup_frac = 0.1;
  config.seed = 20000829;
  // Memoryless sizes (paper mean kept): a hedge restarts its copy from
  // scratch, so with heavy-tailed sizes a straggler is usually just a
  // huge job. With exponential sizes a straggler signals unlucky
  // placement — the thing a second-choice copy fixes.
  config.workload.size_kind = hs::workload::SizeKind::kExponential;
  config.workload.fixed_or_mean_size = 76.8;
  // A transit-lost dispatch re-routes through the fault layer's retry
  // path once the silence is noticed.
  config.faults.retry.max_attempts = 4;
  config.faults.retry.backoff_initial = 1.0;
  return config;
}

void print_row(const char* label, const hs::cluster::SimulationResult& r) {
  std::printf("%-22s RT %7.1f s   p99 %7.1f s   msgs lost %6llu   "
              "hedges %llu/%llu\n",
              label, r.mean_response_time, r.response_time_p99,
              static_cast<unsigned long long>(r.msgs_lost),
              static_cast<unsigned long long>(r.hedges_issued),
              static_cast<unsigned long long>(r.hedges_won));
}

void print_identity(const hs::cluster::SimulationResult& r) {
  std::printf("  exactly-once: %llu arrivals = %llu completed + %llu shed "
              "+ %llu dropped + %llu in flight\n",
              static_cast<unsigned long long>(r.total_arrivals),
              static_cast<unsigned long long>(r.total_completed),
              static_cast<unsigned long long>(r.total_shed),
              static_cast<unsigned long long>(r.total_dropped),
              static_cast<unsigned long long>(r.in_flight_at_end));
}

}  // namespace

int main() {
  auto config = base_config();
  std::printf("Cluster: %zu machines, utilization %.0f%%, exponential "
              "sizes (mean %.1f s)\n\n",
              config.speeds.size(), config.rho * 100,
              config.workload.fixed_or_mean_size);

  // 1. Perfect network. (p99 is collected on the asynchronous network
  // path, so the synchronous baseline reports it as 0.)
  auto perfect = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  print_row("perfect network", hs::cluster::run_simulation(config, *perfect));

  // 2. 10% loss on both links: retries save the jobs, not the tail.
  config.network.dispatch_link.loss = 0.10;
  config.network.report_link.loss = 0.10;
  auto lossy = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kLeastLoad, config.speeds, config.rho);
  const auto lost = hs::cluster::run_simulation(config, *lossy);
  print_row("10% loss, retries", lost);

  // 3. Same links, hedged dispatch: a job still unfinished after
  // `delay` seconds gets a second copy on the least-loaded other
  // machine; first completion wins and the loser is evicted.
  hs::dispatch::HedgedDispatcher hedged(
      hs::core::make_policy_dispatcher(hs::core::PolicyKind::kLeastLoad,
                                       config.speeds, config.rho),
      hs::dispatch::HedgingConfig{/*delay=*/600.0});
  const auto rescued = hs::cluster::run_simulation(config, hedged);
  print_row("10% loss, hedged", rescued);
  print_identity(rescued);

  // 4. Partition: the two fastest machines (over half the cluster's
  // capacity) fall off the network for 30 simulated minutes.
  config.network.dispatch_link = {};
  config.network.report_link = {};
  config.network.heartbeat.interval = 10.0;
  config.network.heartbeat.phi_threshold = 4.0;
  const size_t n = config.speeds.size();
  config.network.partitions.push_back({0.5e5, 1800.0, {n - 2, n - 1}});
  auto guarded = hs::core::make_circuit_breaker_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, config.rho, {});
  const auto split = hs::cluster::run_simulation(config, *guarded);
  std::printf("\nPartition of the speed-10 and speed-12 machines, ORR + "
              "heartbeat + breaker:\n");
  print_row("30 min partition", split);
  std::printf("  detector suspicions: %llu   jobs dropped: %llu (a "
              "partition loses messages, not jobs)\n",
              static_cast<unsigned long long>(split.suspicions),
              static_cast<unsigned long long>(split.jobs_dropped));
  print_identity(split);

  std::printf("\nTakeaway: loss inflates the tail long before it dents "
              "goodput — retries make\nthe jobs whole, hedging makes "
              "their latency whole, and the heartbeat detector\nturns a "
              "partition from a blackout into a detour.\n");
  return 0;
}
