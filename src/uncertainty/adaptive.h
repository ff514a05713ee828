// Governed adaptive re-allocation: re-solve Algorithm 1 from online
// estimates, commit only through the ReallocationGovernor.
//
// This is the closed loop the paper stops short of: it assumes λ and sᵢ
// are known and shows the optimized allocation is fragile to getting
// them wrong (§5.4). GovernedAdaptiveDispatcher starts from whatever
// the operator *believes* (possibly biased and noisy — see
// uncertainty/config.h), then re-estimates both from the scheduler's own
// observations (uncertainty/estimators.h), periodically re-solves the
// allocation at the implied ρ̂ = λ̂·E[size]/Σŝ (inflated by the safety
// factor and clamped), and swaps it in only when the
// ReallocationGovernor agrees the believed improvement is real and the
// change budget allows it. A re-estimation that the governor rejects
// touches the allocator zero times. The inner dispatcher is the smoothed
// round-robin of Algorithm 2, so a committed re-allocation changes the
// weights, not the mechanism.
//
// Composition: the dispatcher masks natively (set_available_mask
// rebuilds over survivors immediately, the PR1 path), so
// FaultAwareDispatcher and overload::CircuitBreakerDispatcher both wrap
// it without rebuild shims; while any machine is masked out, governor
// proposals are suspended — the fault layer owns routing until the
// cluster heals. Deterministic by construction: no RNG draws, and the
// re-allocation timeline (time, assumed ρ̂, fractions) is recorded and
// reproducible seed-for-seed (pinned by the golden determinism tests).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "alloc/allocation.h"
#include "alloc/optimized.h"
#include "dispatch/dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "obs/trace.h"
#include "uncertainty/estimators.h"
#include "uncertainty/governor.h"

namespace hs::uncertainty {

/// Which allocation scheme re-solves are run through.
enum class AdaptiveScheme : uint8_t {
  kWeighted,   // αᵢ = ŝᵢ/Σŝ — insensitive to λ̂, fixes speed error only
  kOptimized,  // Algorithm 1 from (λ̂, ŝ) — the full re-solve
};

struct AdaptiveOptions {
  AdaptiveScheme scheme = AdaptiveScheme::kOptimized;
  /// Long-run mean job size in base-speed seconds (§4.1's one workload
  /// constant the operator must supply).
  double mean_job_size = 76.8;
  /// Estimator memory τ in seconds (arrival and service estimators).
  double time_constant = 2000.0;
  /// Overestimate the implied load slightly (§5.4's advice).
  double safety_factor = 1.05;
  /// Arrivals between re-estimation ticks (each tick may propose).
  uint64_t reestimate_every = 256;
  /// Clamp range for the assumed utilization of a re-solve.
  double min_rho = 0.02;
  double max_rho = 0.98;
  GovernorConfig governor;

  void validate() const;
};

/// One committed re-allocation (for determinism tests and analysis).
struct ReallocEvent {
  double time = 0.0;
  double assumed_rho = 0.0;
  std::vector<double> fractions;
};

class GovernedAdaptiveDispatcher final : public dispatch::Dispatcher {
 public:
  /// `believed_speeds` / `believed_rho` are the operator's (possibly
  /// wrong) initial beliefs — see uncertainty::derive_beliefs. They seed
  /// the initial allocation and remain the estimator fallbacks until
  /// warm-up.
  GovernedAdaptiveDispatcher(std::vector<double> believed_speeds,
                             double believed_rho,
                             AdaptiveOptions options = {});

  void on_arrival(double now) override;
  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  void reset() override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] size_t machine_count() const override {
    return believed_speeds_.size();
  }

  /// Departure reports feed the per-machine service-rate estimators.
  /// The sized form is the real input (completed work is what makes the
  /// speed estimate tail-robust); the unsized fallbacks substitute the
  /// configured mean job size, and the untimed one additionally uses the
  /// last arrival instant.
  void on_departure_report(size_t machine) override;
  void on_departure_report(size_t machine, double now) override;
  void on_departure_report(size_t machine, double now, double work) override;
  [[nodiscard]] bool uses_feedback() const override { return true; }

  /// Rejected dispatches never entered service: undo their busy-time
  /// contribution so bounded queues don't depress the speed estimates.
  void on_dispatch_result(size_t machine, bool accepted,
                          double now) override;
  [[nodiscard]] bool uses_overload_feedback() const override { return true; }

  /// Native fault-layer blacklist: rebuild over survivors immediately
  /// from the current estimates (bypasses the governor — availability
  /// changes are not optional). An all-false mask counts as all-true.
  bool set_available_mask(const std::vector<bool>& available) override;

  /// Record estimate updates and governor decisions here (nullptr = off).
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Checkpoint: the learned state — ρ̂, estimator bank, availability,
  /// committed fractions — then the governor's commit history, freeze
  /// and counters, then the inner round-robin cadence. A restarted
  /// process resumes with learned rates instead of cold priors, and its
  /// governor gates the next proposal exactly as the saved one would
  /// (a fresh governor would commit the first proposal at once, since
  /// the dwell gate applies only after a commit).
  size_t save_state(std::vector<double>& out) const override;
  size_t restore_state(std::span<const double> state) override;

  // ---- Inspection (gauges, tests, benches) ----
  [[nodiscard]] const alloc::Allocation& allocation() const;
  [[nodiscard]] double assumed_rho() const { return assumed_rho_; }
  [[nodiscard]] const ReallocationGovernor& governor() const {
    return governor_;
  }
  [[nodiscard]] const EstimatorBank& bank() const { return bank_; }
  /// Believed λ̂ (0 until warmed up).
  [[nodiscard]] double lambda_hat() const { return bank_.lambda_hat(0.0); }
  /// Believed ŝ of one machine (initial belief until warmed up).
  [[nodiscard]] double speed_hat(size_t machine) const {
    return bank_.speed_hat(machine, believed_speeds_[machine]);
  }
  /// Committed re-allocations, in commit order.
  [[nodiscard]] const std::vector<ReallocEvent>& timeline() const {
    return timeline_;
  }
  /// Survivor rebuilds triggered by availability masks (not governed).
  [[nodiscard]] uint64_t mask_rebuilds() const { return mask_rebuilds_; }

 private:
  /// The one solve: raw (un-normalized) scheme fractions into
  /// `fractions`, every intermediate in reused scratch.
  void solve_into(std::span<const double> speeds, double rho,
                  std::vector<double>& fractions);
  /// Commit raw solver fractions in place — one normalization inside
  /// Allocation::assign, zero heap traffic once buffers are warm.
  void install_raw(std::span<const double> fractions);
  /// Point the inner round-robin at the current allocation_ (building
  /// it on first use, re-weighting it in place afterwards).
  void install_inner();
  /// Re-estimate, propose, and maybe commit (one tick).
  void maybe_reallocate(double now);
  /// Rebuild over the currently-available machines (mask path).
  void rebuild_for_mask();

  std::vector<double> believed_speeds_;
  double believed_rho_;
  AdaptiveOptions options_;
  EstimatorBank bank_;
  ReallocationGovernor governor_;
  obs::TraceSink* trace_ = nullptr;

  double assumed_rho_;
  double last_now_ = 0.0;
  uint64_t arrivals_since_tick_ = 0;
  uint64_t mask_rebuilds_ = 0;
  std::vector<bool> available_;
  std::vector<ReallocEvent> timeline_;
  std::optional<alloc::Allocation> allocation_;  // set by the constructor
  /// The re-estimation's normalized proposal; a commit swaps it with
  /// allocation_. Made at the first re-estimation.
  std::optional<alloc::Allocation> proposal_;
  std::unique_ptr<dispatch::SmoothRoundRobinDispatcher> inner_;

  // Scratch for re-estimation and mask rebuilds (reused, so neither
  // touches the allocator once warm).
  std::vector<double> speeds_hat_scratch_;
  std::vector<double> fractions_scratch_;
  alloc::SurvivorScratch survivor_scratch_;
  alloc::SolverScratch solver_scratch_;
};

}  // namespace hs::uncertainty
