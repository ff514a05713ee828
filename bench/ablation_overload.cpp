// Ablation A9 — overload protection: bounded queues, admission
// control, circuit breaking, and retry budgets.
//
// The paper's model assumes ρ < 1; real front-ends see ρ ≥ 1 during
// incidents and flash crowds. This ablation drives the paper-base
// cluster into overload (ρ up to 1.5) and compares four protection
// levels for every policy:
//
//   none    — unbounded queues, admit everything (the seed behaviour).
//             Beyond ρ = 1 the backlog and response time diverge.
//   bounds  — bounded per-machine queues: a full queue rejects the
//             dispatch synchronously and the retry policy re-routes it.
//   shed    — bounds + deadline admission control: first attempts whose
//             modelled response time (§2.3 analytic baseline + the
//             instantaneous queue backlog) would blow the SLO budget
//             are shed at the door, converting churn into clean
//             refusals.
//   full    — shed + circuit-breaking dispatch (trip on consecutive
//             rejections, reallocate over closed-breaker survivors)
//             + a cluster-wide retry-budget token bucket.
//
// Every run is audited against the whole-run accounting identity
//   arrivals = completed + shed + dropped + in-flight at end
// and the headline acceptance check is at ρ = 1.5: unprotected ORR's
// response time blows up (the "goodput" column still counts the
// post-run drain of its divergent backlog — response time is the
// honest signal) while fully protected ORR keeps goodput within 10%
// of the cluster's capacity ceiling.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/config.h"

namespace {

using hs::bench::BenchOptions;
using hs::cluster::ExperimentResult;
using hs::core::PolicyKind;
using hs::overload::AdmissionKind;
using hs::overload::OverloadConfig;

enum class Level { kNone, kBounds, kShed, kFull };

constexpr const char* level_name(Level level) {
  switch (level) {
    case Level::kNone:
      return "none";
    case Level::kBounds:
      return "bounds";
    case Level::kShed:
      return "shed";
    case Level::kFull:
      return "full";
  }
  return "?";
}

struct OverloadKnobs {
  size_t queue_capacity = 64;
  double slo_budget = 600.0;
  hs::overload::CircuitBreakerConfig breaker;
};

OverloadConfig overload_for(Level level, const OverloadKnobs& knobs) {
  OverloadConfig config;
  if (level == Level::kNone) {
    return config;
  }
  config.queue_capacity = knobs.queue_capacity;
  if (level == Level::kShed || level == Level::kFull) {
    config.admission = AdmissionKind::kDeadlineShed;
    config.slo_budget = knobs.slo_budget;
  }
  if (level == Level::kFull) {
    config.retry_budget.enabled = true;
  }
  return config;
}

ExperimentResult run_level(const BenchOptions& options,
                           const std::vector<double>& speeds, double rho,
                           PolicyKind policy, Level level,
                           const OverloadKnobs& knobs) {
  auto config = hs::bench::paper_experiment(options, speeds, rho);
  config.simulation.overload = overload_for(level, knobs);
  if (level != Level::kFull) {
    return hs::cluster::run_experiment(
        config, hs::core::policy_dispatcher_factory(policy, speeds, rho));
  }
  return hs::cluster::run_experiment(
      config, [policy, speeds, rho, breaker = knobs.breaker] {
        return hs::core::make_circuit_breaker_dispatcher(policy, speeds, rho,
                                                         breaker);
      });
}

/// Whole-run conservation: every arrival is eventually completed, shed,
/// dropped, or still in flight when the drain finishes.
bool accounting_balances(const ExperimentResult& result) {
  for (const auto& rep : result.replications) {
    const uint64_t accounted = rep.total_completed + rep.total_shed +
                               rep.total_dropped + rep.in_flight_at_end;
    if (rep.total_arrivals != accounted) {
      std::cerr << "ACCOUNTING MISMATCH: arrivals " << rep.total_arrivals
                << " != completed " << rep.total_completed << " + shed "
                << rep.total_shed << " + dropped " << rep.total_dropped
                << " + in-flight " << rep.in_flight_at_end << "\n";
      return false;
    }
  }
  return true;
}

std::string shed_summary(const ExperimentResult& result) {
  return std::to_string(result.total_jobs_shed) + "/" +
         std::to_string(result.total_jobs_rejected) + "/" +
         std::to_string(result.total_jobs_dropped);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hs;
  util::ArgParser parser(
      "Ablation A9: overload protection — bounded queues, admission "
      "shedding, circuit breaking, retry budgets (base configuration)");
  bench::BenchOptions::register_options(parser);
  parser.add_option("rho", "0.9,1.0,1.2,1.5",
                    "offered utilizations to sweep (>= 1 is overload)");
  parser.add_option("queue-cap", "64", "bounded per-machine queue capacity");
  parser.add_option("slo", "600",
                    "admission control sheds first attempts whose modelled "
                    "response time exceeds this SLO budget, seconds");
  if (!parser.parse(argc, argv)) {
    return 0;
  }
  const auto options = bench::BenchOptions::from_parser(parser);
  const auto rhos = bench::parse_double_list(parser.get_string("rho"));
  OverloadKnobs knobs;
  knobs.queue_capacity =
      static_cast<size_t>(parser.get_double("queue-cap"));
  knobs.slo_budget = parser.get_double("slo");

  bench::print_header("Ablation A9", "Overload protection", options);

  const auto cluster = cluster::ClusterConfig::paper_base();
  const auto& speeds = cluster.speeds();
  const double mean_size =
      workload::WorkloadSpec::paper_default().mean_job_size();
  // The most the cluster can complete per second with every cycle busy.
  const double capacity = cluster.total_speed() / mean_size;

  const std::vector<PolicyKind> policies = {
      PolicyKind::kWRAN, PolicyKind::kORAN, PolicyKind::kWRR,
      PolicyKind::kORR, PolicyKind::kLeastLoad};
  const std::vector<Level> levels = {Level::kNone, Level::kBounds,
                                     Level::kShed, Level::kFull};

  // ---- Experiment 1: ρ × protection-level matrix ----
  util::TablePrinter table({"rho", "policy", "goodput (none)",
                            "goodput (bounds)", "goodput (shed)",
                            "goodput (full)", "RT none", "RT full",
                            "shed/rej/drop (full)"});
  bool balanced = true;
  double orr_unprotected_rt = 0.0;
  double orr_full_rt = 0.0;
  double orr_full_goodput = 0.0;
  for (double rho : rhos) {
    for (PolicyKind policy : policies) {
      table.begin_row();
      table.cell(rho, 2);
      table.cell(core::policy_name(policy));
      double rt_none = 0.0;
      double rt_full = 0.0;
      std::string shed_cell;
      for (Level level : levels) {
        const auto result =
            run_level(options, speeds, rho, policy, level, knobs);
        balanced = balanced && accounting_balances(result);
        table.cell(bench::format_ci(result.goodput, 3));
        if (level == Level::kNone) {
          rt_none = result.response_time.mean;
        }
        if (level == Level::kFull) {
          rt_full = result.response_time.mean;
          shed_cell = shed_summary(result);
          if (policy == PolicyKind::kORR && rho >= 1.5) {
            orr_unprotected_rt = rt_none;
            orr_full_rt = rt_full;
            orr_full_goodput = result.goodput.mean;
          }
        }
      }
      table.cell(rt_none, 0);
      table.cell(rt_full, 0);
      table.cell(shed_cell);
    }
  }
  bench::emit_table(
      options,
      "Goodput (jobs/s) by protection level; RT = mean response time of "
      "completed jobs (s); shed/rej/drop = admission sheds, bounded-queue "
      "rejections, retry-exhausted drops across replications:",
      table);
  std::cout << "Cluster capacity ceiling: " << capacity
            << " jobs/s (aggregate speed " << cluster.total_speed()
            << " / mean job size " << mean_size << ")\n\n";

  // ---- Experiment 2: admission policies under the breaker at ρ=1.2 ----
  const double rho_admit = 1.2;
  struct AdmissionCase {
    const char* label;
    AdmissionKind kind;
    size_t bound;
    double prob;
  };
  const std::vector<AdmissionCase> cases = {
      {"queue-bound 48", AdmissionKind::kQueueBoundShed, 48, 1.0},
      {"deadline p=1.0", AdmissionKind::kDeadlineShed, 0, 1.0},
      {"deadline p=0.5", AdmissionKind::kDeadlineShed, 0, 0.5},
  };
  util::TablePrinter admit_table(
      {"admission", "goodput", "mean RT", "shed", "rejected", "dropped"});
  for (const auto& admission : cases) {
    auto config = bench::paper_experiment(options, speeds, rho_admit);
    config.simulation.overload = overload_for(Level::kFull, knobs);
    config.simulation.overload.admission = admission.kind;
    if (admission.kind == AdmissionKind::kQueueBoundShed) {
      config.simulation.overload.admission_queue_bound = admission.bound;
    } else {
      config.simulation.overload.shed_probability = admission.prob;
    }
    const auto result = hs::cluster::run_experiment(
        config, [speeds, rho_admit, breaker = knobs.breaker] {
          return core::make_circuit_breaker_dispatcher(
              PolicyKind::kORR, speeds, rho_admit, breaker);
        });
    balanced = balanced && accounting_balances(result);
    admit_table.begin_row();
    admit_table.cell(admission.label);
    admit_table.cell(bench::format_ci(result.goodput, 3));
    admit_table.cell(result.response_time.mean, 1);
    admit_table.cell(static_cast<double>(result.total_jobs_shed), 0);
    admit_table.cell(static_cast<double>(result.total_jobs_rejected), 0);
    admit_table.cell(static_cast<double>(result.total_jobs_dropped), 0);
  }
  bench::emit_table(
      options,
      "Admission policies at rho=1.2 (ORR + breaker + retry budget); "
      "queue-bound sheds beyond a fixed queue depth, the deadline shedder "
      "refuses jobs whose modelled response exceeds the SLO budget with "
      "the given probability:",
      admit_table);

  // ---- Acceptance ----
  const bool swept_overload = orr_full_rt > 0.0;
  bool pass = balanced;
  std::cout << "Reproduction check:\n";
  std::cout << "  accounting identity (arrivals = completed + shed + "
            << "dropped + in-flight): "
            << (balanced ? "balanced" : "VIOLATED") << "\n";
  if (swept_overload) {
    // Unprotected queues diverge at rho=1.5 — mean response time grows
    // with sim_time while the protected stack's stays bounded, so the
    // ratio widens with scale (~3x at 1e5 s, far more at the default
    // 1e6 s). 2x is the scale-robust floor...
    const bool diverged = orr_unprotected_rt > 2.0 * orr_full_rt;
    // ...and the cluster completing within 10% of its capacity ceiling.
    const bool near_capacity = orr_full_goodput >= 0.9 * capacity;
    std::cout << "  ORR rho=1.5 response time, none vs full: "
              << orr_unprotected_rt << " vs " << orr_full_rt << " s "
              << (diverged ? "(diverges unprotected — expected)"
                           : "(no divergence signal — FAIL)")
              << "\n";
    std::cout << "  ORR rho=1.5 protected goodput " << orr_full_goodput
              << " vs capacity " << capacity << " jobs/s "
              << (near_capacity ? "(within 10% — PASS)" : "(FAIL)") << "\n";
    pass = pass && diverged && near_capacity;
  } else {
    std::cout << "  (rho sweep did not include 1.5 — capacity check "
              << "skipped)\n";
  }
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
