#include "core/policy.h"

#include <algorithm>

#include "alloc/optimized.h"
#include "alloc/scheme.h"
#include "dispatch/fault_aware.h"
#include "dispatch/least_load.h"
#include "dispatch/random_dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "util/check.h"
#include "util/math_util.h"

namespace hs::core {

namespace {

/// Ceiling for the survivor-effective utilization when capacity is lost:
/// past this the optimized scheme is effectively the weighted scheme (its
/// ρ→1 limit), and the allocation schemes require ρ < 1.
constexpr double kMaxDegradedRho = 0.999;

/// Planning ceiling for overloaded systems: SimulationConfig allows
/// ρ ≥ 1 (offered load beyond capacity), but the allocation schemes'
/// closed forms require ρ < 1, so static policies plan for this
/// utilization when the true load is at or past saturation. At ρ→1 the
/// optimized scheme converges to the weighted scheme, so the clamp
/// changes nothing qualitative about the split.
constexpr double kMaxPlanningRho = 0.999;

double planning_rho(double rho) { return std::min(rho, kMaxPlanningRho); }

}  // namespace

const std::vector<PolicyKind>& static_policies() {
  static const std::vector<PolicyKind> kPolicies = {
      PolicyKind::kWRAN, PolicyKind::kORAN, PolicyKind::kWRR,
      PolicyKind::kORR};
  return kPolicies;
}

const std::vector<PolicyKind>& all_policies() {
  static const std::vector<PolicyKind> kPolicies = {
      PolicyKind::kWRAN, PolicyKind::kORAN, PolicyKind::kWRR,
      PolicyKind::kORR, PolicyKind::kLeastLoad};
  return kPolicies;
}

std::string policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kWRAN:
      return "WRAN";
    case PolicyKind::kORAN:
      return "ORAN";
    case PolicyKind::kWRR:
      return "WRR";
    case PolicyKind::kORR:
      return "ORR";
    case PolicyKind::kLeastLoad:
      return "LeastLoad";
  }
  HS_CHECK(false, "unreachable policy kind");
  return {};
}

bool is_dynamic(PolicyKind kind) { return kind == PolicyKind::kLeastLoad; }

bool uses_optimized_allocation(PolicyKind kind) {
  return kind == PolicyKind::kORAN || kind == PolicyKind::kORR;
}

alloc::Allocation policy_allocation(PolicyKind kind,
                                    const std::vector<double>& speeds,
                                    double rho, double rho_estimate_factor) {
  HS_CHECK(!is_dynamic(kind),
           "dynamic policy " << policy_name(kind) << " has no allocation");
  if (uses_optimized_allocation(kind)) {
    return alloc::OptimizedAllocation(rho_estimate_factor)
        .compute(speeds, planning_rho(rho));
  }
  return alloc::WeightedAllocation().compute(speeds, planning_rho(rho));
}

std::unique_ptr<dispatch::Dispatcher> make_policy_dispatcher(
    PolicyKind kind, const std::vector<double>& speeds, double rho,
    double rho_estimate_factor, dispatch::SamplerKind sampler) {
  if (kind == PolicyKind::kLeastLoad) {
    return std::make_unique<dispatch::LeastLoadDispatcher>(speeds);
  }
  alloc::Allocation allocation =
      policy_allocation(kind, speeds, rho, rho_estimate_factor);
  switch (kind) {
    case PolicyKind::kWRAN:
    case PolicyKind::kORAN:
      return std::make_unique<dispatch::RandomDispatcher>(
          std::move(allocation), sampler);
    case PolicyKind::kWRR:
    case PolicyKind::kORR:
      return std::make_unique<dispatch::SmoothRoundRobinDispatcher>(
          std::move(allocation));
    case PolicyKind::kLeastLoad:
      break;
  }
  HS_CHECK(false, "unreachable policy kind");
  return nullptr;
}

cluster::DispatcherFactory policy_dispatcher_factory(
    PolicyKind kind, std::vector<double> speeds, double rho,
    double rho_estimate_factor) {
  return [kind, speeds = std::move(speeds), rho, rho_estimate_factor] {
    return make_policy_dispatcher(kind, speeds, rho, rho_estimate_factor);
  };
}

alloc::Allocation policy_allocation_masked(PolicyKind kind,
                                           const std::vector<double>& speeds,
                                           double rho,
                                           const std::vector<bool>& available,
                                           double rho_estimate_factor) {
  HS_CHECK(!is_dynamic(kind),
           "dynamic policy " << policy_name(kind) << " has no allocation");
  HS_CHECK(available.size() == speeds.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << speeds.size());
  const bool any_down =
      std::find(available.begin(), available.end(), false) != available.end();
  const bool any_up =
      std::find(available.begin(), available.end(), true) != available.end();
  if (!any_down || !any_up) {
    // Full availability — or total blackout, where no preference between
    // machines is better than any other (every job is lost regardless).
    return policy_allocation(kind, speeds, rho, rho_estimate_factor);
  }
  std::vector<double> survivor_speeds;
  survivor_speeds.reserve(speeds.size());
  for (size_t i = 0; i < speeds.size(); ++i) {
    if (available[i]) {
      survivor_speeds.push_back(speeds[i]);
    }
  }
  // The survivors absorb the whole arrival stream: λ is unchanged while
  // the capacity shrank, so their effective utilization rises.
  const double total = util::kahan_sum(speeds);
  const double survivor_total = util::kahan_sum(survivor_speeds);
  const double effective =
      std::min(rho * total / survivor_total, kMaxDegradedRho);
  const alloc::Allocation survivor_alloc = policy_allocation(
      kind, survivor_speeds, effective, rho_estimate_factor);
  std::vector<double> fractions(speeds.size(), 0.0);
  size_t next_survivor = 0;
  for (size_t i = 0; i < speeds.size(); ++i) {
    if (available[i]) {
      fractions[i] = survivor_alloc[next_survivor++];
    }
  }
  return alloc::Allocation(std::move(fractions));
}

void policy_fractions_masked_into(PolicyKind kind,
                                  const std::vector<double>& speeds,
                                  double rho,
                                  const std::vector<bool>& available,
                                  double rho_estimate_factor,
                                  std::vector<double>& fractions,
                                  MaskedReweightScratch& scratch) {
  HS_CHECK(!is_dynamic(kind),
           "dynamic policy " << policy_name(kind) << " has no allocation");
  HS_CHECK(available.size() == speeds.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << speeds.size());
  // Raw scheme fractions: the consumer (rebuild_fractions) applies the
  // Allocation normalization exactly once.
  const auto solve = [&](std::span<const double> machine_speeds,
                         double assumed, std::vector<double>& out) {
    if (uses_optimized_allocation(kind)) {
      alloc::OptimizedAllocation(rho_estimate_factor)
          .compute_into(machine_speeds, planning_rho(assumed), out,
                        scratch.solver);
    } else {
      alloc::WeightedAllocation().compute_into(
          machine_speeds, planning_rho(assumed), out);
    }
  };
  alloc::survivor_fractions_into(speeds, available, rho, 0.0,
                                 kMaxDegradedRho, solve, fractions,
                                 scratch.survivors);
}

dispatch::Reweighter policy_masked_reweighter(PolicyKind kind,
                                              std::vector<double> speeds,
                                              double rho,
                                              double rho_estimate_factor) {
  // std::function requires copyability, so the scratch is shared; the
  // function object is invoked from one dispatcher stack at a time.
  auto scratch = std::make_shared<MaskedReweightScratch>();
  return [kind, speeds = std::move(speeds), rho, rho_estimate_factor,
          scratch](const std::vector<bool>& available,
                   std::vector<double>& fractions) {
    policy_fractions_masked_into(kind, speeds, rho, available,
                                 rho_estimate_factor, fractions, *scratch);
  };
}

namespace {

/// Least-Load masks natively and needs none; the static policies
/// re-weight over the survivors.
dispatch::Reweighter survivor_reweighter(PolicyKind kind,
                                         const std::vector<double>& speeds,
                                         double rho,
                                         double rho_estimate_factor) {
  if (is_dynamic(kind)) {
    return {};
  }
  return policy_masked_reweighter(kind, speeds, rho, rho_estimate_factor);
}

}  // namespace

std::unique_ptr<dispatch::Dispatcher> make_fault_aware_dispatcher(
    PolicyKind kind, const std::vector<double>& speeds, double rho,
    double rho_estimate_factor, dispatch::SamplerKind sampler) {
  return std::make_unique<dispatch::FaultAwareDispatcher>(
      make_policy_dispatcher(kind, speeds, rho, rho_estimate_factor, sampler),
      survivor_reweighter(kind, speeds, rho, rho_estimate_factor));
}

std::unique_ptr<dispatch::Dispatcher> make_circuit_breaker_dispatcher(
    PolicyKind kind, const std::vector<double>& speeds, double rho,
    const overload::CircuitBreakerConfig& breaker, double rho_estimate_factor,
    dispatch::SamplerKind sampler) {
  return std::make_unique<overload::CircuitBreakerDispatcher>(
      make_policy_dispatcher(kind, speeds, rho, rho_estimate_factor, sampler),
      breaker, survivor_reweighter(kind, speeds, rho, rho_estimate_factor));
}

std::unique_ptr<dispatch::Dispatcher> make_adaptive_dispatcher(
    PolicyKind kind, const std::vector<double>& believed_speeds,
    double believed_rho, uncertainty::AdaptiveOptions options) {
  HS_CHECK(!is_dynamic(kind), "dynamic policy " << policy_name(kind)
                                                << " has no allocation to "
                                                   "adapt");
  options.scheme = uses_optimized_allocation(kind)
                       ? uncertainty::AdaptiveScheme::kOptimized
                       : uncertainty::AdaptiveScheme::kWeighted;
  return std::make_unique<uncertainty::GovernedAdaptiveDispatcher>(
      believed_speeds, believed_rho, options);
}

}  // namespace hs::core
