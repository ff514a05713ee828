#include "alloc/optimized.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <vector>

#include "util/check.h"
#include "util/math_util.h"

namespace hs::alloc {

namespace {

/// Maximum assumed utilization: beyond this the optimized scheme is
/// numerically indistinguishable from the weighted scheme (its ρ→1
/// limit), so the estimate is clamped (used for §5.4's overestimation).
constexpr double kMaxAssumedRho = 0.999999;

}  // namespace

OptimizedAllocation::OptimizedAllocation(double rho_estimate_factor)
    : factor_(rho_estimate_factor) {
  HS_CHECK(rho_estimate_factor > 0.0,
           "estimate factor must be positive, got " << rho_estimate_factor);
}

std::string OptimizedAllocation::name() const {
  if (factor_ == 1.0) {
    return "optimized";
  }
  std::ostringstream oss;
  const double pct = (factor_ - 1.0) * 100.0;
  oss << "optimized(" << (pct >= 0 ? "+" : "") << pct << "%)";
  return oss.str();
}

Allocation OptimizedAllocation::compute(std::span<const double> speeds,
                                        double rho) const {
  SolverScratch scratch;
  std::vector<double> fractions;
  compute_into(speeds, rho, fractions, scratch);
  return Allocation(std::move(fractions));
}

void OptimizedAllocation::compute_into(std::span<const double> speeds,
                                       double rho,
                                       std::vector<double>& fractions,
                                       SolverScratch& scratch) const {
  validate_scheme_inputs(speeds, rho);
  const double assumed_rho = std::min(rho * factor_, kMaxAssumedRho);

  const size_t n = speeds.size();
  // Sort speeds ascending, remembering original positions.
  scratch.order.resize(n);
  std::iota(scratch.order.begin(), scratch.order.end(), 0);
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&](size_t a, size_t b) { return speeds[a] < speeds[b]; });
  scratch.sorted.resize(n);
  for (size_t i = 0; i < n; ++i) {
    scratch.sorted[i] = speeds[scratch.order[i]];
  }

  const size_t m = optimized_cutoff(scratch.sorted, assumed_rho,
                                    scratch.suffix_speed,
                                    scratch.suffix_sqrt);

  // Active set is sorted[m..n-1]. With β = μ/λ = 1/(ρΣs):
  //   αᵢ = sᵢβ − √sᵢ·(βΣ_active sⱼ − 1)/(Σ_active √sⱼ)  (step 7).
  const double total_speed = util::kahan_sum(scratch.sorted);
  const double beta = 1.0 / (assumed_rho * total_speed);
  double active_speed = 0.0;
  double active_sqrt = 0.0;
  for (size_t i = m; i < n; ++i) {
    active_speed += scratch.sorted[i];
    active_sqrt += std::sqrt(scratch.sorted[i]);
  }
  const double skim = (beta * active_speed - 1.0) / active_sqrt;

  fractions.assign(n, 0.0);
  for (size_t i = m; i < n; ++i) {
    const double alpha =
        scratch.sorted[i] * beta - std::sqrt(scratch.sorted[i]) * skim;
    // Theorem 3 guarantees non-negativity for the active set; clamp only
    // the rounding noise at the boundary machine.
    fractions[scratch.order[i]] = std::max(alpha, 0.0);
  }
}

size_t optimized_cutoff(std::span<const double> sorted_speeds, double rho) {
  std::vector<double> suffix_speed;
  std::vector<double> suffix_sqrt;
  return optimized_cutoff(sorted_speeds, rho, suffix_speed, suffix_sqrt);
}

size_t optimized_cutoff(std::span<const double> sorted_speeds, double rho,
                        std::vector<double>& suffix_speed,
                        std::vector<double>& suffix_sqrt) {
  const size_t n = sorted_speeds.size();
  HS_CHECK(n >= 1, "cutoff needs at least one machine");
  HS_CHECK(std::is_sorted(sorted_speeds.begin(), sorted_speeds.end()),
           "speeds must be sorted ascending");
  HS_CHECK(rho > 0.0 && rho < 1.0, "rho out of (0,1): " << rho);

  // Suffix sums of s and √s: suffix_speed[i] = Σⱼ₌ᵢ^{n−1} sⱼ.
  suffix_speed.assign(n + 1, 0.0);
  suffix_sqrt.assign(n + 1, 0.0);
  for (size_t i = n; i-- > 0;) {
    suffix_speed[i] = suffix_speed[i + 1] + sorted_speeds[i];
    suffix_sqrt[i] = suffix_sqrt[i + 1] + std::sqrt(sorted_speeds[i]);
  }
  const double lambda_over_mu = rho * suffix_speed[0];  // λ/μ = ρΣs

  // Condition of Theorem 2 at 0-based index i (paper index i+1):
  //   √sᵢ · Σⱼ₌ᵢ √sⱼ < Σⱼ₌ᵢ sⱼ − λ/μ.
  auto excluded = [&](size_t i) {
    return std::sqrt(sorted_speeds[i]) * suffix_sqrt[i] <
           suffix_speed[i] - lambda_over_mu;
  };

  // The paper proves excluded(i) holds on a prefix, so binary search for
  // the largest excluded index (steps 4–5 of Algorithm 1). Note the
  // whole-system stability constraint λ < Σsμ makes excluded(n−1)
  // impossible, so at least one machine stays active.
  size_t lower = 0;
  size_t upper = n;  // exclusive
  while (lower < upper) {
    const size_t mid = (lower + upper) / 2;
    if (excluded(mid)) {
      lower = mid + 1;
    } else {
      upper = mid;
    }
  }
  HS_CHECK(lower < n, "all machines excluded — system would be saturated");
  return lower;
}

double objective_value(const Allocation& alloc, std::span<const double> speeds,
                       double rho) {
  validate_scheme_inputs(speeds, rho);
  HS_CHECK(alloc.size() == speeds.size(),
           "allocation size " << alloc.size() << " != speeds size "
                              << speeds.size());
  const double lambda = rho * util::kahan_sum(speeds);  // with μ = 1
  double total = 0.0;
  for (size_t i = 0; i < speeds.size(); ++i) {
    const double denom = speeds[i] - alloc[i] * lambda;
    if (denom <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    total += speeds[i] / denom;
  }
  return total;
}

double min_objective_value(std::span<const double> speeds, double rho) {
  validate_scheme_inputs(speeds, rho);
  std::vector<double> sorted(speeds.begin(), speeds.end());
  std::sort(sorted.begin(), sorted.end());
  const size_t m = optimized_cutoff(sorted, rho);
  const double lambda = rho * util::kahan_sum(sorted);  // with μ = 1
  double active_speed = 0.0;
  double active_sqrt = 0.0;
  for (size_t i = m; i < sorted.size(); ++i) {
    active_speed += sorted[i];
    active_sqrt += std::sqrt(sorted[i]);
  }
  // Excluded machines contribute sᵢμ/(sᵢμ − 0) = 1 each (Definition 1).
  return static_cast<double>(m) +
         active_sqrt * active_sqrt / (active_speed - lambda);
}

}  // namespace hs::alloc
