// The scheduling policies studied in the paper (Table 2).
//
// A static policy is a (workload allocation scheme × job dispatching
// strategy) pair:
//
//                          weighted     optimized
//        random            WRAN         ORAN
//        round-robin       WRR          ORR
//
// plus the Dynamic Least-Load yardstick. This module builds the
// dispatcher for a policy given the machine speeds and the (estimated)
// system utilization.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/optimized.h"
#include "cluster/experiment.h"
#include "dispatch/dispatcher.h"
#include "dispatch/random_dispatcher.h"
#include "overload/circuit_breaker.h"
#include "uncertainty/adaptive.h"

namespace hs::core {

enum class PolicyKind {
  kWRAN,       // weighted allocation + random dispatching
  kORAN,       // optimized allocation + random dispatching
  kWRR,        // weighted allocation + round-robin dispatching
  kORR,        // optimized allocation + round-robin dispatching
  kLeastLoad,  // dynamic least normalized load (upper-bound yardstick)
};

/// All four static policies, in Table 2 order.
[[nodiscard]] const std::vector<PolicyKind>& static_policies();
/// The static policies plus Dynamic Least-Load.
[[nodiscard]] const std::vector<PolicyKind>& all_policies();

[[nodiscard]] std::string policy_name(PolicyKind kind);
[[nodiscard]] bool is_dynamic(PolicyKind kind);
/// True if the policy uses the optimized (Algorithm 1) allocation.
[[nodiscard]] bool uses_optimized_allocation(PolicyKind kind);

/// The allocation a static policy computes for the given cluster.
/// `rho_estimate_factor` models §5.4's load estimation error (the
/// optimized scheme is computed for factor·ρ). Must not be called for
/// kLeastLoad, which has no static allocation.
[[nodiscard]] alloc::Allocation policy_allocation(
    PolicyKind kind, const std::vector<double>& speeds, double rho,
    double rho_estimate_factor = 1.0);

/// Build a ready-to-use dispatcher implementing the policy. `sampler`
/// selects the weighted sampler for the random policies (WRAN/ORAN):
/// the default CDF binary search is golden-pinned; the opt-in O(1)
/// alias table keeps per-pick cost flat at large n. Round-robin and
/// Least-Load policies ignore it.
[[nodiscard]] std::unique_ptr<dispatch::Dispatcher> make_policy_dispatcher(
    PolicyKind kind, const std::vector<double>& speeds, double rho,
    double rho_estimate_factor = 1.0,
    dispatch::SamplerKind sampler = dispatch::SamplerKind::kCdf);

/// Thread-safe factory for run_experiment(): every call produces a fresh
/// dispatcher with identical initial state.
[[nodiscard]] cluster::DispatcherFactory policy_dispatcher_factory(
    PolicyKind kind, std::vector<double> speeds, double rho,
    double rho_estimate_factor = 1.0);

/// The allocation a static policy computes when only `available` machines
/// may receive work (graceful degradation): Algorithm 1 (or the weighted
/// scheme) is re-applied to the survivors at their effective utilization
/// ρ·Σs/Σs_up (clamped below 1), and the result is expanded back to the
/// full machine-index space with αᵢ = 0 for unavailable machines. With an
/// all-true (or all-false) mask this is exactly policy_allocation().
[[nodiscard]] alloc::Allocation policy_allocation_masked(
    PolicyKind kind, const std::vector<double>& speeds, double rho,
    const std::vector<bool>& available, double rho_estimate_factor = 1.0);

/// Reusable buffers for policy_fractions_masked_into(): survivor solves
/// at a fixed cluster size touch the allocator zero times once warm.
struct MaskedReweightScratch {
  alloc::SurvivorScratch survivors;
  alloc::SolverScratch solver;
};

/// Allocation-free variant of policy_allocation_masked(): writes the
/// survivor fractions into `fractions` using `scratch` for every
/// intermediate. The output is normalized such that feeding it through
/// Dispatcher::rebuild_fractions() (which applies Allocation's
/// normalization once) yields fractions bit-identical to the
/// policy_allocation_masked() → Allocation construction chain, which
/// stays as the reference the tests check this path against.
void policy_fractions_masked_into(PolicyKind kind,
                                  const std::vector<double>& speeds,
                                  double rho,
                                  const std::vector<bool>& available,
                                  double rho_estimate_factor,
                                  std::vector<double>& fractions,
                                  MaskedReweightScratch& scratch);

/// The survivor Reweighter for FaultAwareDispatcher and
/// CircuitBreakerDispatcher: computes the policy's masked fractions into
/// the caller's buffer, allocation-free once its internal scratch is
/// warm. One instance owns one scratch — share it across the decorators
/// of a single dispatcher stack only.
[[nodiscard]] dispatch::Reweighter policy_masked_reweighter(
    PolicyKind kind, std::vector<double> speeds, double rho,
    double rho_estimate_factor = 1.0);

/// Build a failure-aware dispatcher for the policy: the policy dispatcher
/// wrapped in a dispatch::FaultAwareDispatcher that blacklists machines
/// reported down. Static policies degrade by re-weighting their
/// allocation over the survivors in place (policy_masked_reweighter);
/// Least-Load masks its candidate set natively.
[[nodiscard]] std::unique_ptr<dispatch::Dispatcher>
make_fault_aware_dispatcher(PolicyKind kind,
                            const std::vector<double>& speeds, double rho,
                            double rho_estimate_factor = 1.0,
                            dispatch::SamplerKind sampler =
                                dispatch::SamplerKind::kCdf);

/// Build a circuit-breaking dispatcher for the policy: the policy
/// dispatcher wrapped in an overload::CircuitBreakerDispatcher that
/// trips machines on consecutive dispatch rejections/losses. Static
/// policies route around tripped machines by re-weighting their
/// allocation over the closed-breaker set (the same survivor
/// reallocation the fault decorator uses); Least-Load masks its
/// candidate set natively.
[[nodiscard]] std::unique_ptr<dispatch::Dispatcher>
make_circuit_breaker_dispatcher(PolicyKind kind,
                                const std::vector<double>& speeds,
                                double rho,
                                const overload::CircuitBreakerConfig& breaker,
                                double rho_estimate_factor = 1.0,
                                dispatch::SamplerKind sampler =
                                    dispatch::SamplerKind::kCdf);

/// Build the governed adaptive variant of a static policy: a
/// uncertainty::GovernedAdaptiveDispatcher seeded with the operator's
/// *believed* speeds and utilization (see
/// ExperimentConfig::believed_params) that re-estimates both online and
/// re-solves the policy's allocation scheme through the re-allocation
/// governor. ORR/ORAN re-solve Algorithm 1 (options.scheme is forced to
/// kOptimized); WRR/WRAN re-solve the weighted scheme (kWeighted).
/// Dispatching is always Algorithm 2's smoothed round-robin — the
/// adaptive loop changes weights, not mechanism. Must not be called for
/// kLeastLoad, which has no allocation to adapt. The returned dispatcher
/// masks natively, so FaultAwareDispatcher / CircuitBreakerDispatcher
/// wrap it directly (no reweighter needed).
[[nodiscard]] std::unique_ptr<dispatch::Dispatcher> make_adaptive_dispatcher(
    PolicyKind kind, const std::vector<double>& believed_speeds,
    double believed_rho, uncertainty::AdaptiveOptions options = {});

}  // namespace hs::core
