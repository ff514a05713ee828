// Adaptive ORR: online utilization estimation (an extension of §5.4).
//
// The paper computes the optimized allocation from the long-run system
// utilization ρ and shows the result is robust to mild overestimation
// but fragile to underestimation at high load. Its closing observation —
// "using the average system utilization over a long period of time is
// sufficient; it is not necessary to measure ρ and recompute often" —
// presumes someone measures ρ at all. AdaptiveOrrDispatcher does that
// measurement at the scheduler, with zero machine feedback: it tracks
// the arrival rate λ̂ it observes with an uncertainty::RateEstimator,
// converts it to ρ̂ = λ̂·E[size]/Σs (mean job size is the one long-run
// workload constant the operator must supply, exactly as the paper
// assumes μ is known), and wraps the smoothed round-robin dispatcher,
// periodically recomputing the optimized allocation from ρ̂ inflated by
// a small safety factor per the paper's own advice to "conservatively
// overestimate system load slightly".
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "alloc/allocation.h"
#include "dispatch/dispatcher.h"
#include "dispatch/smooth_rr.h"
#include "uncertainty/estimators.h"

namespace hs::core {

struct AdaptiveOrrOptions {
  double mean_job_size = 76.8;    // the workload's long-run mean (§4.1)
  double time_constant = 5000.0;  // estimator memory, seconds
  double safety_factor = 1.05;    // overestimate ρ̂ slightly (§5.4)
  uint64_t recompute_every = 512;  // arrivals between re-optimizations
  double initial_rho = 0.5;       // used until the estimator warms up
  double min_rho = 0.02;          // clamp range for the assumed load
  double max_rho = 0.98;
};

/// ORR that learns the utilization instead of being told. Purely
/// scheduler-local: it observes only the arrival instants it sees anyway.
class AdaptiveOrrDispatcher final : public dispatch::Dispatcher {
 public:
  AdaptiveOrrDispatcher(std::vector<double> speeds,
                        AdaptiveOrrOptions options = {});

  void on_arrival(double now) override;
  [[nodiscard]] size_t pick(rng::Xoshiro256& gen) override;
  void reset() override;
  [[nodiscard]] std::string name() const override { return "adaptive-orr"; }
  [[nodiscard]] size_t machine_count() const override {
    return speeds_.size();
  }

  /// Native fault-layer blacklist (lets FaultAwareDispatcher compose with
  /// this policy instead of wrapping blindly). The allocation is
  /// recomputed over the available machines only: the arrival-rate
  /// estimator keeps measuring the system-level ρ̂ = λ̂·E[size]/Σs (the
  /// arrival stream does not change when a machine dies), and the rebuilt
  /// inner allocation assumes the survivor-effective utilization
  /// ρ̂·Σs/Σs_up, clamped to [min_rho, max_rho]. An all-false mask is
  /// treated as all-true (jobs must go somewhere; the fault layer loses
  /// and retries them).
  bool set_available_mask(const std::vector<bool>& available) override;

  /// The utilization currently assumed by the inner allocation
  /// (estimate × safety factor, clamped).
  [[nodiscard]] double assumed_rho() const { return assumed_rho_; }
  /// ρ̂ = λ̂·E[size]/Σs from the arrivals seen so far; `fallback` until
  /// the rate estimator warms up.
  [[nodiscard]] double estimated_rho(double fallback) const;
  [[nodiscard]] const uncertainty::RateEstimator& estimator() const {
    return estimator_;
  }
  [[nodiscard]] const alloc::Allocation& allocation() const;
  /// Number of allocation recomputations so far.
  [[nodiscard]] uint64_t recomputations() const { return recomputations_; }

 private:
  void rebuild(double rho_estimate);

  std::vector<double> speeds_;
  double total_speed_;
  AdaptiveOrrOptions options_;
  uncertainty::RateEstimator estimator_;
  double assumed_rho_;
  uint64_t arrivals_since_recompute_ = 0;
  uint64_t recomputations_ = 0;
  std::vector<bool> available_;
  std::unique_ptr<alloc::Allocation> allocation_;
  std::unique_ptr<dispatch::SmoothRoundRobinDispatcher> inner_;
};

}  // namespace hs::core
