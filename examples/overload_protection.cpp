// Scenario: riding out a flash crowd without melting down.
//
// The paper sizes its allocations for ρ < 1, but a real front-end farm
// sees ρ ≥ 1 during incidents: demand exceeds aggregate capacity and an
// unprotected cluster just grows its queues without bound. This example
// drives the paper's base configuration at 30% over capacity and walks
// through the overload-protection stack:
//
//  1. Unprotected ORR: every job is admitted, the backlog diverges, and
//     mean response time is dominated by queueing delay. (Its "goodput"
//     still counts the post-run drain of that backlog — the response
//     time is the divergence signal.)
//  2. Bounded queues only: a full queue rejects the dispatch and the
//     retry policy re-routes it; delay is bounded but the overflow
//     shows up as retry churn and dropped jobs.
//  3. The full stack: deadline-based admission sheds jobs whose
//     modelled response time would blow the SLO, circuit breakers trip
//     machines that keep rejecting, and a cluster-wide retry budget
//     caps the churn. The accounting identity shows where every
//     arrival went.
//
// See docs/FAULT_MODEL.md for rejection/shed/drop semantics.
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/config.h"
#include "cluster/sim.h"
#include "core/policy.h"
#include "dispatch/decorator.h"

namespace {

void print_result(const char* label,
                  const hs::cluster::SimulationResult& result) {
  std::printf("%-14s goodput %6.3f job/s   mean RT %9.1f s   "
              "shed %6llu   rejected %6llu   retried %6llu   "
              "dropped %5llu\n",
              label, result.goodput, result.mean_response_time,
              static_cast<unsigned long long>(result.jobs_shed),
              static_cast<unsigned long long>(result.jobs_rejected),
              static_cast<unsigned long long>(result.jobs_retried),
              static_cast<unsigned long long>(result.jobs_dropped));
}

}  // namespace

int main() {
  const auto cluster = hs::cluster::ClusterConfig::paper_base();
  const double rho = 1.3;  // 30% more work than the cluster can do

  hs::cluster::SimulationConfig config;
  config.speeds = cluster.speeds();
  config.rho = rho;
  config.sim_time = 2.0e5;
  config.warmup_frac = 0.1;
  config.seed = 20000829;

  const double capacity =
      cluster.total_speed() / config.workload.mean_job_size();
  std::printf("Cluster: %zu machines (aggregate speed %.0f), offered load "
              "%.0f%% of capacity\n",
              config.speeds.size(), cluster.total_speed(), rho * 100);
  std::printf("Capacity ceiling: %.3f jobs/s completed with every cycle "
              "busy\n\n",
              capacity);

  // 1. The paper's ORR with unbounded queues: nothing is refused, so
  //    the overload accumulates as queueing delay.
  auto unprotected = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, rho);
  const auto melt = hs::cluster::run_simulation(config, *unprotected);
  print_result("unprotected", melt);

  // 2. Bounded queues only: the overflow becomes synchronous
  //    rejections, re-routed by the retry policy until it gives up.
  config.overload.queue_capacity = 64;
  auto bounded = hs::core::make_policy_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, rho);
  const auto churn = hs::cluster::run_simulation(config, *bounded);
  print_result("bounds only", churn);

  // 3. Full stack: admission control sheds jobs whose modelled response
  //    would exceed a 600 s SLO budget, circuit breakers route around
  //    machines that keep rejecting, and a retry budget caps retries at
  //    ~20% of admitted traffic.
  config.overload.admission = hs::overload::AdmissionKind::kDeadlineShed;
  config.overload.slo_budget = 600.0;
  config.overload.retry_budget.enabled = true;
  hs::overload::CircuitBreakerConfig breaker;
  auto breaking = hs::core::make_circuit_breaker_dispatcher(
      hs::core::PolicyKind::kORR, config.speeds, rho, breaker);
  const auto full = hs::cluster::run_simulation(config, *breaking);
  print_result("full stack", full);

  const auto* cb =
      hs::dispatch::find_layer<hs::overload::CircuitBreakerDispatcher>(
          *breaking);
  std::printf("\nBreaker activity: %llu trips, %llu survivor "
              "reallocations, %zu open at end\n",
              static_cast<unsigned long long>(cb->trips()),
              static_cast<unsigned long long>(cb->rebuilds()),
              cb->open_count());

  std::printf("\nWhere every arrival went (full stack):\n");
  std::printf("  arrivals %llu = completed %llu + shed %llu + dropped "
              "%llu + in-flight %llu\n",
              static_cast<unsigned long long>(full.total_arrivals),
              static_cast<unsigned long long>(full.total_completed),
              static_cast<unsigned long long>(full.total_shed),
              static_cast<unsigned long long>(full.total_dropped),
              static_cast<unsigned long long>(full.in_flight_at_end));

  std::printf("\nTakeaway: bounded queues alone turn the overflow into "
              "retry churn — tens of\nthousands of rejections and "
              "dropped jobs. Deadline-based admission sheds a\nsmall "
              "fraction of arrivals cleanly at the door instead, the "
              "breaker routes\naround machines that keep rejecting, and "
              "mean response time improves by an\norder of magnitude "
              "over the unprotected meltdown — while nearly every\n"
              "admitted job still completes.\n");
  return 0;
}
