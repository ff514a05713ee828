// Ablation A8 — fault injection and failure-aware dispatching.
//
// The paper's static policies never reconsider their allocation; when a
// machine actually crashes they keep feeding it jobs. This ablation
// injects machine crash/recovery faults (cluster/faults.h) and compares
// every policy fault-oblivious versus wrapped in the failure-aware
// decorator (dispatch/fault_aware.h), which blacklists reported-down
// machines and — for the static policies — recomputes the Algorithm 1
// allocation over the survivors. Two experiments:
//
//  1. Stochastic faults: every machine crashes with exponential MTBF and
//     repairs with exponential MTTR; goodput and job-loss accounting
//     across an MTBF sweep.
//  2. Scripted mid-run crash of the fastest machine (the paper-base
//     speed-12 machine) for half the run — the acceptance scenario:
//     failure-aware ORR must out-deliver fault-oblivious ORR.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "cluster/config.h"

namespace {

using hs::bench::BenchOptions;
using hs::cluster::ExperimentResult;
using hs::core::PolicyKind;

ExperimentResult run_with_faults(const BenchOptions& options,
                                 const std::vector<double>& speeds,
                                 double rho, PolicyKind policy, bool aware,
                                 const hs::cluster::FaultConfig& faults) {
  auto config = hs::bench::paper_experiment(options, speeds, rho);
  config.simulation.faults = faults;
  if (!aware) {
    return hs::cluster::run_experiment(
        config, hs::core::policy_dispatcher_factory(policy, speeds, rho));
  }
  return hs::cluster::run_experiment(config, [policy, speeds, rho] {
    return hs::core::make_fault_aware_dispatcher(policy, speeds, rho);
  });
}

std::string loss_summary(const ExperimentResult& result) {
  return std::to_string(result.total_jobs_lost) + "/" +
         std::to_string(result.total_jobs_dropped);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hs;
  util::ArgParser parser(
      "Ablation A8: machine crash/recovery faults — fault-oblivious vs "
      "failure-aware dispatching (base configuration)");
  bench::BenchOptions::register_options(parser);
  parser.add_option("rho", "0.6", "overall system utilization (nominal)");
  parser.add_option("mtbf", "1e5,3e4,1e4",
                    "mean time between failures per machine, seconds");
  parser.add_option("mttr-frac", "0.1",
                    "mean time to repair as a fraction of MTBF");
  parser.add_option("max-attempts", "3",
                    "dispatch attempts per job before it is dropped");
  if (!parser.parse(argc, argv)) {
    return 0;
  }
  const auto options = bench::BenchOptions::from_parser(parser);
  const double rho = parser.get_double("rho");
  const auto mtbfs = bench::parse_double_list(parser.get_string("mtbf"));
  const double mttr_frac = parser.get_double("mttr-frac");
  const auto max_attempts =
      static_cast<uint32_t>(parser.get_double("max-attempts"));

  bench::print_header("Ablation A8", "Fault injection and recovery",
                      options);

  const auto cluster = cluster::ClusterConfig::paper_base();
  const auto& speeds = cluster.speeds();

  // ---- Experiment 1: stochastic MTBF sweep ----
  const std::vector<PolicyKind> policies = {
      PolicyKind::kWRAN, PolicyKind::kWRR, PolicyKind::kORR,
      PolicyKind::kLeastLoad};
  util::TablePrinter table({"MTBF", "policy", "goodput (obliv)",
                            "goodput (aware)", "lost/dropped (obliv)",
                            "lost/dropped (aware)"});
  for (double mtbf : mtbfs) {
    cluster::FaultConfig faults;
    faults.processes.assign(speeds.size(), {mtbf, mtbf * mttr_frac});
    faults.retry.max_attempts = max_attempts;
    for (PolicyKind policy : policies) {
      const auto oblivious =
          run_with_faults(options, speeds, rho, policy, false, faults);
      const auto aware =
          run_with_faults(options, speeds, rho, policy, true, faults);
      table.begin_row();
      table.cell(mtbf, 0);
      table.cell(core::policy_name(policy));
      table.cell(bench::format_ci(oblivious.goodput, 3));
      table.cell(bench::format_ci(aware.goodput, 3));
      table.cell(loss_summary(oblivious));
      table.cell(loss_summary(aware));
    }
  }
  bench::emit_table(
      options,
      "Goodput (completed jobs/s of measurement window) and total "
      "lost/dropped jobs across replications; every machine fails with "
      "the row's MTBF, repairs in MTBF/10 on average:",
      table);

  // ---- Experiment 2: scripted crash of the fastest machine ----
  size_t fastest = 0;
  for (size_t i = 1; i < speeds.size(); ++i) {
    if (speeds[i] > speeds[fastest]) {
      fastest = i;
    }
  }
  cluster::FaultConfig crash;
  crash.outages.push_back(
      {options.sim_time * 0.4, options.sim_time * 0.5, fastest});
  crash.retry.max_attempts = max_attempts;

  util::TablePrinter crash_table({"policy", "goodput (obliv)",
                                  "goodput (aware)", "lost/dropped (obliv)",
                                  "lost/dropped (aware)"});
  double orr_oblivious_goodput = 0.0;
  double orr_aware_goodput = 0.0;
  for (PolicyKind policy : policies) {
    const auto oblivious =
        run_with_faults(options, speeds, rho, policy, false, crash);
    const auto aware =
        run_with_faults(options, speeds, rho, policy, true, crash);
    if (policy == PolicyKind::kORR) {
      orr_oblivious_goodput = oblivious.goodput.mean;
      orr_aware_goodput = aware.goodput.mean;
    }
    crash_table.begin_row();
    crash_table.cell(core::policy_name(policy));
    crash_table.cell(bench::format_ci(oblivious.goodput, 3));
    crash_table.cell(bench::format_ci(aware.goodput, 3));
    crash_table.cell(loss_summary(oblivious));
    crash_table.cell(loss_summary(aware));
  }
  bench::emit_table(
      options,
      "Scripted outage: the fastest (speed 12) machine is down during "
      "[0.4, 0.9]·sim_time:",
      crash_table);

  std::cout << "Reproduction check: fault-oblivious ORR keeps routing "
               "most of the load into the dead machine and drops what "
               "the retry budget cannot save; the failure-aware wrapper "
               "re-applies Algorithm 1 to the survivors and recovers "
               "most of the goodput. ORR goodput aware vs oblivious: "
            << orr_aware_goodput << " vs " << orr_oblivious_goodput
            << (orr_aware_goodput > orr_oblivious_goodput ? " (PASS)"
                                                          : " (FAIL)")
            << "\n";
  return orr_aware_goodput > orr_oblivious_goodput ? 0 : 1;
}
