// Workload allocation vectors.
//
// An Allocation is the {α₁, …, αₙ} of the paper: αᵢ is the fraction of
// all arriving jobs sent to computer cᵢ, with αᵢ ≥ 0 and Σαᵢ = 1. The
// class enforces those invariants at construction so downstream code
// (dispatchers, the analytic model) can rely on them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/math_util.h"

namespace hs::alloc {

class Allocation {
 public:
  /// Validates: non-empty, all fractions ≥ 0 (tiny negative rounding noise
  /// is clamped to 0), sum within 1e-9 of 1 (then exactly renormalized).
  explicit Allocation(std::vector<double> fractions);

  /// Replace the fractions in place (same validation as the constructor),
  /// reusing the existing buffer's capacity — allocation-free when the new
  /// size fits. This is what lets live re-allocation (survivor rebuilds,
  /// adaptive re-solves) re-weight dispatchers without touching the heap.
  void assign(std::span<const double> fractions);

  /// The constructor's exact validation + normalization applied to a raw
  /// buffer in place. Allocation-free re-weighting paths use this to
  /// reproduce bit-identical fractions to an Allocation round-trip
  /// without constructing one.
  static void normalize(std::vector<double>& fractions);

  /// Replace the fractions with values previously produced by an
  /// Allocation: validated (each in [0, 1], sum within 1e-6 of 1) but
  /// NOT renormalized, so the copy is bit-for-bit. normalize() divides
  /// by a sum that is itself one rounding step away from 1.0, so
  /// re-normalizing a round-tripped vector can flip low-order bits; the
  /// checkpoint/restore path (serving/snapshot.h) needs the donor's
  /// exact fractions back to reproduce its pick sequence.
  void assign_exact(std::span<const double> fractions);
  /// True when assign_exact() accepts `fractions`.
  [[nodiscard]] static bool exact_fractions_valid(
      std::span<const double> fractions);

  [[nodiscard]] size_t size() const { return fractions_.size(); }
  [[nodiscard]] double operator[](size_t i) const { return fractions_[i]; }
  [[nodiscard]] const std::vector<double>& fractions() const {
    return fractions_;
  }
  [[nodiscard]] std::span<const double> span() const { return fractions_; }

  /// Number of machines with αᵢ > 0.
  [[nodiscard]] size_t active_count() const;

  /// True if machine i receives no work.
  [[nodiscard]] bool is_excluded(size_t i) const {
    return fractions_[i] == 0.0;
  }

  /// Per-machine utilization under this allocation:
  /// ρᵢ = αᵢλ/(sᵢμ) = αᵢ·ρ·Σs/sᵢ given system utilization ρ.
  [[nodiscard]] std::vector<double> machine_utilizations(
      std::span<const double> speeds, double system_utilization) const;

  /// Largest per-machine utilization (must be < 1 for stability).
  [[nodiscard]] double max_machine_utilization(
      std::span<const double> speeds, double system_utilization) const;

  [[nodiscard]] std::string to_string(int precision = 4) const;

 private:
  std::vector<double> fractions_;
};

/// True when `available` masks some machines out but not all of them.
/// An all-true mask changes nothing, and an all-false one (a total
/// blackout) prefers no machine over another, so both solve everyone.
[[nodiscard]] bool restricts(const std::vector<bool>& available);

/// Reused buffers of survivor_fractions_into().
struct SurvivorScratch {
  std::vector<double> speeds;
  std::vector<double> fractions;
};

/// The one survivor re-solve. The machines `available` keeps absorb the
/// whole arrival stream, so `solve(speeds, rho, out)` (a scheme's raw
/// fractions) runs over them at ρ_eff = clamp(ρ·Σs/Σs_up, lo, hi), and
/// their normalized fractions are expanded back with zeros into `out`.
/// Without restricts(available) every machine is solved at ρ. Either way
/// one Allocation normalization of `out` (assign, rebuild_fractions)
/// yields the allocation a construct-and-expand chain builds, bit for
/// bit. Returns the ρ the solve assumed. Allocation-free once warm.
template <typename Solve>
double survivor_fractions_into(std::span<const double> speeds,
                               const std::vector<bool>& available,
                               double rho, double lo, double hi,
                               Solve&& solve, std::vector<double>& out,
                               SurvivorScratch& scratch) {
  if (!restricts(available)) {
    solve(speeds, rho, out);
    return rho;
  }
  scratch.speeds.clear();
  for (size_t i = 0; i < speeds.size(); ++i) {
    if (available[i]) {
      scratch.speeds.push_back(speeds[i]);
    }
  }
  const double effective = std::clamp(
      rho * util::kahan_sum(speeds) / util::kahan_sum(scratch.speeds), lo,
      hi);
  solve(std::span<const double>(scratch.speeds), effective,
        scratch.fractions);
  Allocation::normalize(scratch.fractions);
  out.assign(speeds.size(), 0.0);
  size_t next_survivor = 0;
  for (size_t i = 0; i < speeds.size(); ++i) {
    if (available[i]) {
      out[i] = scratch.fractions[next_survivor++];
    }
  }
  return effective;
}

}  // namespace hs::alloc
