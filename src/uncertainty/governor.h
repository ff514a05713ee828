// Guarded re-allocation: hysteresis between estimating and acting.
//
// Re-solving Algorithm 1 from fresh estimates is cheap; *acting* on
// every re-solve is how adaptive systems oscillate. Estimation noise
// makes successive proposals jitter around the optimum, and each commit
// perturbs the very queues the estimators are watching. The
// ReallocationGovernor sits between the estimator bank and the live
// allocation and commits a proposal only if it clears, in order:
//
//   1. improvement  — the believed objective F(α) (Definition 1) must
//                     drop by at least `min_improvement` relative to the
//                     current allocation's believed objective;
//   2. dwell        — at least `min_dwell` seconds since the last commit;
//   3. budget       — at most `window_budget` commits per trailing
//                     `budget_window` seconds;
//   4. flap guard   — if commits still pile up (more than
//                     `flap_threshold` in a trailing `flap_window`), the
//                     governor declares the system flapping and freezes:
//                     no further commits for `freeze_duration` seconds
//                     (0 = frozen for the rest of the run).
//
// The state machine (documented in docs/UNCERTAINTY.md) mirrors the
// circuit breaker's spirit: prefer a stale-but-stable allocation over a
// perfectly fresh one that never stops changing. Defaults are chosen so
// dwell × flap_threshold > flap_window — a governor that respects its
// own dwell time can never trip its own flap guard.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hs::uncertainty {

struct GovernorConfig {
  /// Minimum relative drop in believed objective to commit:
  /// (F_cur − F_prop)/F_cur ≥ min_improvement.
  double min_improvement = 0.05;
  /// Minimum seconds between commits.
  double min_dwell = 2000.0;
  /// At most this many commits per trailing `budget_window` seconds.
  uint32_t window_budget = 4;
  double budget_window = 20000.0;
  /// More than this many commits inside a trailing `flap_window` trips
  /// the freeze. With the defaults, min_dwell · flap_threshold = 12000 s
  /// > flap_window = 10000 s, so the guard is unreachable unless dwell
  /// is loosened — it protects misconfigured deployments, not the
  /// defaults.
  uint32_t flap_threshold = 6;
  double flap_window = 10000.0;
  /// Seconds a freeze lasts; 0 = frozen until reset (end of run).
  double freeze_duration = 0.0;

  /// Throws util::CheckError on out-of-range fields.
  void validate() const;
};

/// Why a proposal was (not) committed.
enum class GovernorVerdict : uint8_t {
  kCommit,         // proposal accepted; allocation should be swapped
  kNoImprovement,  // believed objective gain below min_improvement
  kDwell,          // too soon after the previous commit
  kBudgetExhausted,  // window_budget spent for this budget_window
  kFrozen,         // flap guard active (or tripped by this proposal)
};

[[nodiscard]] const char* governor_verdict_name(GovernorVerdict verdict);

/// Decides whether a proposed re-allocation may be committed. Pure
/// bookkeeping — it never touches the allocation itself, so the caller
/// (GovernedAdaptiveDispatcher) owns the swap and the trace records.
class ReallocationGovernor {
 public:
  explicit ReallocationGovernor(GovernorConfig config = {});

  /// Evaluate a proposal at time `now`: `current_objective` and
  /// `proposed_objective` are believed F(α) values (+inf allowed for a
  /// saturated current allocation — any finite proposal then counts as
  /// full relative improvement).
  [[nodiscard]] GovernorVerdict consider(double now,
                                         double current_objective,
                                         double proposed_objective);

  [[nodiscard]] uint64_t proposals() const { return proposals_; }
  [[nodiscard]] uint64_t commits() const { return commits_; }
  /// Proposals rejected for any reason (including while frozen).
  [[nodiscard]] uint64_t rejections() const { return proposals_ - commits_; }
  /// Times the flap guard tripped a freeze.
  [[nodiscard]] uint64_t freezes() const { return freezes_; }
  [[nodiscard]] bool frozen() const { return frozen_; }
  [[nodiscard]] double last_commit_time() const { return last_commit_; }
  [[nodiscard]] const GovernorConfig& config() const { return config_; }

  void reset();

  /// Checkpoint: the commit history (its count, then the times), the
  /// last commit, the has-committed and frozen flags, the freeze
  /// deadline and the proposal/commit/freeze counters — everything
  /// consider() reads, so a restored governor gates the next proposal
  /// exactly as the saved one would. Returns the values appended.
  size_t save_state(std::vector<double>& out) const;
  /// Inverse of save_state(): validates the whole block before mutating
  /// and returns the values consumed, or 0 (governor unchanged) when the
  /// block is malformed or inconsistent.
  size_t restore_state(std::span<const double> state);

 private:
  /// Commits inside the trailing window ending at `now`.
  [[nodiscard]] uint32_t commits_in_window(double now, double window) const;

  GovernorConfig config_;
  std::vector<double> commit_times_;  // pruned to the longest window
  double last_commit_ = 0.0;
  bool has_committed_ = false;
  bool frozen_ = false;
  double frozen_until_ = 0.0;
  uint64_t proposals_ = 0;
  uint64_t commits_ = 0;
  uint64_t freezes_ = 0;
};

}  // namespace hs::uncertainty
