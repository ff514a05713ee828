// Optimized workload allocation — the paper's Algorithm 1.
//
// Minimizes the system mean response time (equivalently mean response
// ratio) of n M/M/1-PS machines under the constraints Σαᵢ = 1 and
// 0 ≤ αᵢ < sᵢμ/λ. Theorem 1 gives the unconstrained-sign solution
//
//   αᵢ = (1/λ)(sᵢμ − √(sᵢμ)·(Σⱼ sⱼμ − λ)/(Σⱼ √(sⱼμ)))
//
// and Theorems 2–3 show that machines too slow to receive non-negative
// fractions are excluded (αᵢ = 0) and the formula re-applied to the rest;
// the excluded prefix (in increasing-speed order) is found by binary
// search. Only the system utilization ρ and the relative speeds are
// needed: with β = μ/λ = 1/(ρΣsᵢ),
//
//   αᵢ = sᵢβ − √sᵢ·(βΣⱼ sⱼ − 1)/(Σⱼ √sⱼ)   over the active set.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "alloc/scheme.h"

namespace hs::alloc {

/// Reusable buffers for the allocation-free solve path (compute_into).
/// One scratch serves any number of solves; buffers grow to the largest
/// machine count seen and are never shrunk, so repeated re-solves at a
/// fixed cluster size touch the allocator zero times.
struct SolverScratch {
  std::vector<size_t> order;
  std::vector<double> sorted;
  std::vector<double> suffix_speed;
  std::vector<double> suffix_sqrt;
};

class OptimizedAllocation final : public AllocationScheme {
 public:
  /// `rho_estimate_factor` models the load estimation error studied in
  /// §5.4: the scheme is computed as if utilization were
  /// factor·ρ (factor 1.05 = 5 % overestimation). The assumed utilization
  /// is clamped below 1 (the paper substitutes the weighted scheme as the
  /// assumed load approaches 100 %, which is its ρ→1 limit).
  explicit OptimizedAllocation(double rho_estimate_factor = 1.0);

  [[nodiscard]] Allocation compute(std::span<const double> speeds,
                                   double rho) const override;

  /// Allocation-free variant of compute(): writes the fractions into
  /// `fractions` (resized to speeds.size()) using `scratch` for all
  /// intermediates. Bit-identical arithmetic to compute() — compute()
  /// delegates here.
  void compute_into(std::span<const double> speeds, double rho,
                    std::vector<double>& fractions,
                    SolverScratch& scratch) const;

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double rho_estimate_factor() const { return factor_; }

 private:
  double factor_;
};

/// Number of machines excluded by Algorithm 1: the largest m such that,
/// with speeds sorted ascending, √(sₘ) · Σⱼ₌ₘⁿ √sⱼ < Σⱼ₌ₘⁿ sⱼ − ρΣs.
/// `sorted_speeds` must be ascending. Returns m in [0, n-1].
[[nodiscard]] size_t optimized_cutoff(std::span<const double> sorted_speeds,
                                      double rho);

/// Scratch-buffer variant of optimized_cutoff: identical result, but the
/// suffix-sum arrays live in caller-supplied buffers (resized to n+1).
[[nodiscard]] size_t optimized_cutoff(std::span<const double> sorted_speeds,
                                      double rho,
                                      std::vector<double>& suffix_speed,
                                      std::vector<double>& suffix_sqrt);

/// The objective F(α) = Σ sᵢμ/(sᵢμ − αᵢλ) of Definition 1, evaluated with
/// μ = 1 (its value is μ-invariant given ρ). Infinite if any machine is
/// saturated.
[[nodiscard]] double objective_value(const Allocation& alloc,
                                     std::span<const double> speeds,
                                     double rho);

/// Closed-form minimum of F over the active machine set (Theorem 1):
/// (Σⱼ√(sⱼμ))²/(Σⱼsⱼμ − λ), computed with μ = 1 over the machines that
/// Algorithm 1 keeps active.
[[nodiscard]] double min_objective_value(std::span<const double> speeds,
                                         double rho);

}  // namespace hs::alloc
