// Ablation A11 — parameter uncertainty: estimation error, load drift,
// stale feedback, and guarded adaptive re-allocation.
//
// The paper computes every static allocation from exact knowledge of
// the arrival rate λ and machine speeds sᵢ, and grants Least-Load
// near-instant load visibility. This ablation measures what each policy
// loses when those assumptions break, and how much of the loss the
// governed adaptive re-allocator (uncertainty/) wins back:
//
//   wrong    — the static allocation is built from the operator's
//              *believed* parameters (biased λ̂, noisy ŝᵢ) while the
//              simulation runs on the truth. ORR concentrates load on
//              too few machines and saturates them; WRR shrugs at λ̂
//              error (its split never looks at ρ) but mis-splits under
//              speed error.
//   oracle   — the allocation is built from the true parameters,
//              including the drift timeline's mean factor. The best any
//              static policy could have done.
//   adaptive — starts from the same wrong beliefs, re-estimates λ and
//              sᵢ from its own dispatch/departure stream, and re-solves
//              through the ReallocationGovernor's hysteresis.
//
// A third table degrades Least-Load's §4.2 per-departure reports to
// queue snapshots taken every Δ seconds and delivered d seconds late.
//
// Every run is audited against the accounting identity
//   arrivals = completed + shed + dropped + in-flight at end
// and the headline acceptance check is the ORR λ-misestimation cell:
// the adaptive dispatcher must recover at least half of the mean-RT
// gap between the wrong and oracle statics, with zero governor
// flap-freezes at the default hysteresis.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "cluster/config.h"
#include "uncertainty/adaptive.h"
#include "uncertainty/config.h"
#include "workload/spec.h"

namespace {

using hs::bench::BenchOptions;
using hs::cluster::ExperimentResult;
using hs::core::PolicyKind;
using hs::uncertainty::UncertaintyConfig;

enum class Variant { kWrong, kOracle, kAdaptive };

constexpr const char* variant_name(Variant variant) {
  switch (variant) {
    case Variant::kWrong:
      return "wrong";
    case Variant::kOracle:
      return "oracle";
    case Variant::kAdaptive:
      return "adaptive";
  }
  return "?";
}

/// Estimator knobs scaled to the horizon so the smoke scale (1e4 s)
/// converges inside its measurement window; the governor stays at the
/// default hysteresis — that is what the acceptance check pins.
hs::uncertainty::AdaptiveOptions adaptive_options_for(double sim_time) {
  hs::uncertainty::AdaptiveOptions options;
  options.mean_job_size =
      hs::workload::WorkloadSpec::paper_default().mean_job_size();
  options.time_constant = std::clamp(sim_time / 20.0, 250.0, 2000.0);
  options.reestimate_every = 128;
  return options;
}

ExperimentResult run_variant(const BenchOptions& options,
                             const std::vector<double>& speeds, double rho,
                             PolicyKind policy, Variant variant,
                             const UncertaintyConfig& uncertainty) {
  auto config = hs::bench::paper_experiment(options, speeds, rho);
  config.simulation.uncertainty = uncertainty;
  switch (variant) {
    case Variant::kWrong: {
      const auto beliefs = config.believed_params();
      return hs::cluster::run_experiment(
          config, hs::core::policy_dispatcher_factory(policy, beliefs.speeds,
                                                      beliefs.rho));
    }
    case Variant::kOracle: {
      // The oracle knows the truth, drift included: it plans for the
      // time-averaged rate multiplier over the horizon.
      const double planned =
          rho * uncertainty.drift.mean_factor(config.simulation.sim_time);
      return hs::cluster::run_experiment(
          config,
          hs::core::policy_dispatcher_factory(policy, speeds, planned));
    }
    case Variant::kAdaptive: {
      const auto beliefs = config.believed_params();
      const auto adaptive = adaptive_options_for(config.simulation.sim_time);
      return hs::cluster::run_experiment(config, [policy, beliefs, adaptive] {
        return hs::core::make_adaptive_dispatcher(policy, beliefs.speeds,
                                                  beliefs.rho, adaptive);
      });
    }
  }
  HS_CHECK(false, "unreachable variant");
  return {};
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

std::string adaptation_summary(const ExperimentResult& result) {
  return std::to_string(result.total_realloc_commits) + "/" +
         std::to_string(result.total_realloc_rejected) + "/" +
         std::to_string(result.total_governor_freezes);
}

/// Fraction of the wrong-vs-oracle mean-RT gap the adaptive run closed.
double recovered_fraction(double wrong_rt, double oracle_rt,
                          double adaptive_rt) {
  const double gap = wrong_rt - oracle_rt;
  if (gap <= 0.0) {
    return 0.0;
  }
  return (wrong_rt - adaptive_rt) / gap;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hs;
  util::ArgParser parser(
      "Ablation A11: parameter uncertainty — estimation error, arrival "
      "drift, stale load feedback, and governed adaptive re-allocation "
      "(base configuration)");
  bench::BenchOptions::register_options(parser);
  parser.add_option("rho", "0.7",
                    "base offered utilization (drift multiplies it)");
  parser.add_option("bias", "0.65",
                    "believed-over-true arrival-rate factor for the "
                    "lambda-misestimation cells (0.65 = 35% underestimate)");
  parser.add_option("speed-cv", "0.5",
                    "lognormal noise CV on believed per-machine speeds for "
                    "the speed-misestimation cells");
  parser.add_option("drift-peak", "1.3",
                    "ramp drift's final rate multiplier (ramps over the "
                    "middle half of the run)");
  if (!parser.parse(argc, argv)) {
    return 0;
  }
  const auto options = bench::BenchOptions::from_parser(parser);
  const double rho = parser.get_double("rho");
  const double bias = parser.get_double("bias");
  const double speed_cv = parser.get_double("speed-cv");
  const double drift_peak = parser.get_double("drift-peak");

  bench::print_header("Ablation A11", "Parameter uncertainty", options);

  const auto cluster = cluster::ClusterConfig::paper_base();
  const auto& speeds = cluster.speeds();
  const std::vector<PolicyKind> policies = {PolicyKind::kORR,
                                            PolicyKind::kWRR};
  const std::vector<Variant> variants = {Variant::kWrong, Variant::kOracle,
                                         Variant::kAdaptive};

  // The ramp covers the middle half of the run regardless of scale, so
  // the smoke scale sees the same shape as the paper scale.
  UncertaintyConfig drift_only;
  drift_only.drift.kind = uncertainty::DriftKind::kRamp;
  drift_only.drift.ramp_start = 0.25 * options.sim_time;
  drift_only.drift.ramp_end = 0.75 * options.sim_time;
  drift_only.drift.start_factor = 1.0;
  drift_only.drift.end_factor = drift_peak;

  // ---- Experiment 1: λ mis-estimation under drift ----
  UncertaintyConfig lambda_unc = drift_only;
  lambda_unc.lambda_error.bias = bias;
  double orr_wrong_rt = 0.0;
  double orr_oracle_rt = 0.0;
  double orr_adaptive_rt = 0.0;
  uint64_t orr_adaptive_commits = 0;
  uint64_t adaptive_freezes = 0;
  bool balanced = true;
  util::TablePrinter lambda_table({"policy", "RT wrong", "RT oracle",
                                   "RT adaptive", "recovered",
                                   "commit/rej/freeze"});
  for (PolicyKind policy : policies) {
    lambda_table.begin_row();
    lambda_table.cell(core::policy_name(policy));
    double wrong_rt = 0.0;
    double oracle_rt = 0.0;
    double adaptive_rt = 0.0;
    std::string adapt_cell;
    for (Variant variant : variants) {
      const auto result =
          run_variant(options, speeds, rho, policy, variant, lambda_unc);
      balanced = balanced && accounting_balances(result);
      switch (variant) {
        case Variant::kWrong:
          wrong_rt = result.response_time.mean;
          break;
        case Variant::kOracle:
          oracle_rt = result.response_time.mean;
          break;
        case Variant::kAdaptive:
          adaptive_rt = result.response_time.mean;
          adapt_cell = adaptation_summary(result);
          adaptive_freezes += result.total_governor_freezes;
          if (policy == PolicyKind::kORR) {
            orr_adaptive_commits = result.total_realloc_commits;
          }
          break;
      }
    }
    if (policy == PolicyKind::kORR) {
      orr_wrong_rt = wrong_rt;
      orr_oracle_rt = oracle_rt;
      orr_adaptive_rt = adaptive_rt;
    }
    lambda_table.cell(wrong_rt, 1);
    lambda_table.cell(oracle_rt, 1);
    lambda_table.cell(adaptive_rt, 1);
    // WRR's split ignores ρ, so its wrong/oracle gap is pure replication
    // noise — a recovery fraction there would be meaningless.
    if (wrong_rt - oracle_rt > 0.05 * oracle_rt) {
      lambda_table.cell(
          recovered_fraction(wrong_rt, oracle_rt, adaptive_rt), 2);
    } else {
      lambda_table.cell("n/a (no gap)");
    }
    lambda_table.cell(adapt_cell);
  }
  bench::emit_table(
      options,
      "Mean response time (s) when the believed arrival rate is biased by " +
          std::to_string(bias) + " and the true rate ramps to " +
          std::to_string(drift_peak) +
          "x over the middle half of the run; recovered = fraction of the "
          "wrong-vs-oracle gap the adaptive run closed; commit/rej/freeze "
          "= governor decisions across replications:",
      lambda_table);

  // ---- Experiment 2: per-machine speed mis-estimation ----
  UncertaintyConfig speed_unc;
  speed_unc.speed_error.noise_cv = speed_cv;
  util::TablePrinter speed_table({"policy", "RT wrong", "RT oracle",
                                  "RT adaptive", "recovered",
                                  "commit/rej/freeze"});
  for (PolicyKind policy : policies) {
    speed_table.begin_row();
    speed_table.cell(core::policy_name(policy));
    double wrong_rt = 0.0;
    double oracle_rt = 0.0;
    double adaptive_rt = 0.0;
    std::string adapt_cell;
    for (Variant variant : variants) {
      const auto result =
          run_variant(options, speeds, rho, policy, variant, speed_unc);
      balanced = balanced && accounting_balances(result);
      switch (variant) {
        case Variant::kWrong:
          wrong_rt = result.response_time.mean;
          break;
        case Variant::kOracle:
          oracle_rt = result.response_time.mean;
          break;
        case Variant::kAdaptive:
          adaptive_rt = result.response_time.mean;
          adapt_cell = adaptation_summary(result);
          adaptive_freezes += result.total_governor_freezes;
          break;
      }
    }
    speed_table.cell(wrong_rt, 1);
    speed_table.cell(oracle_rt, 1);
    speed_table.cell(adaptive_rt, 1);
    if (wrong_rt - oracle_rt > 0.05 * oracle_rt) {
      speed_table.cell(
          recovered_fraction(wrong_rt, oracle_rt, adaptive_rt), 2);
    } else {
      speed_table.cell("n/a (no gap)");
    }
    speed_table.cell(adapt_cell);
  }
  bench::emit_table(
      options,
      "Mean response time (s) when each believed machine speed carries "
      "lognormal noise (CV " +
          std::to_string(speed_cv) +
          ", one draw per run from the dedicated belief stream); no "
          "drift:",
      speed_table);

  // ---- Experiment 3: Least-Load on stale load reports ----
  // Higher load than the main cells: herding on a stale view needs
  // queues deep enough to chase.
  const double rho_stale = 0.85;
  struct StaleCase {
    const char* label;
    double interval;
    double delay;
  };
  const std::vector<StaleCase> stale_cases = {
      {"per-departure (fresh)", 0.0, 0.0},
      {"snapshot every 10 s, +1 s", 10.0, 1.0},
      {"snapshot every 100 s, +10 s", 100.0, 10.0},
      {"snapshot every 500 s, +50 s", 500.0, 50.0},
  };
  util::TablePrinter stale_table(
      {"feedback", "mean RT", "RT ratio vs fresh"});
  double fresh_rt = 0.0;
  for (const auto& stale : stale_cases) {
    auto config = bench::paper_experiment(options, speeds, rho_stale);
    config.simulation.uncertainty.staleness.update_interval = stale.interval;
    config.simulation.uncertainty.staleness.report_delay = stale.delay;
    const auto result = hs::cluster::run_experiment(
        config, core::policy_dispatcher_factory(PolicyKind::kLeastLoad,
                                                speeds, rho_stale));
    balanced = balanced && accounting_balances(result);
    if (stale.interval == 0.0) {
      fresh_rt = result.response_time.mean;
    }
    stale_table.begin_row();
    stale_table.cell(stale.label);
    stale_table.cell(result.response_time.mean, 1);
    stale_table.cell(fresh_rt > 0.0 ? result.response_time.mean / fresh_rt
                                    : 0.0,
                     2);
  }
  bench::emit_table(
      options,
      "Least-Load at rho=" + std::to_string(rho_stale) +
          " as per-departure reports degrade to periodic delayed "
          "queue snapshots:",
      stale_table);

  // ---- Acceptance ----
  const double gap = orr_wrong_rt - orr_oracle_rt;
  const double recovered =
      recovered_fraction(orr_wrong_rt, orr_oracle_rt, orr_adaptive_rt);
  const bool gap_exists = gap > 0.05 * orr_oracle_rt;
  const bool recovered_enough = recovered >= 0.5;
  const bool adapted = orr_adaptive_commits >= 1;
  const bool no_freezes = adaptive_freezes == 0;
  bool pass =
      balanced && gap_exists && recovered_enough && adapted && no_freezes;
  std::cout << "Reproduction check:\n";
  std::cout << "  accounting identity (arrivals = completed + shed + "
            << "dropped + in-flight): "
            << (balanced ? "balanced" : "VIOLATED") << "\n";
  std::cout << "  ORR mean RT, wrong beliefs vs oracle: " << orr_wrong_rt
            << " vs " << orr_oracle_rt << " s "
            << (gap_exists ? "(mis-estimation hurts — expected)"
                           : "(no gap to recover — FAIL)")
            << "\n";
  std::cout << "  adaptive ORR recovered " << recovered * 100.0
            << "% of the gap (RT " << orr_adaptive_rt << " s, "
            << orr_adaptive_commits << " commits) "
            << (recovered_enough && adapted ? "(>= 50% — PASS)" : "(FAIL)")
            << "\n";
  std::cout << "  governor freezes across adaptive runs: " << adaptive_freezes
            << (no_freezes ? " (default hysteresis never flaps — PASS)"
                           : " (FAIL)")
            << "\n";
  std::cout << (pass ? "PASS" : "FAIL") << "\n";
  return pass ? 0 : 1;
}
