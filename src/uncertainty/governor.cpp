#include "uncertainty/governor.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hs::uncertainty {

void GovernorConfig::validate() const {
  HS_CHECK(std::isfinite(min_improvement) && min_improvement >= 0.0 &&
               min_improvement < 1.0,
           "governor min_improvement must be in [0, 1), got "
               << min_improvement);
  HS_CHECK(std::isfinite(min_dwell) && min_dwell >= 0.0,
           "governor min_dwell must be finite and >= 0, got " << min_dwell);
  HS_CHECK(window_budget >= 1,
           "governor window_budget must be >= 1, got " << window_budget);
  HS_CHECK(std::isfinite(budget_window) && budget_window > 0.0,
           "governor budget_window must be finite and > 0, got "
               << budget_window);
  HS_CHECK(flap_threshold >= 1,
           "governor flap_threshold must be >= 1, got " << flap_threshold);
  HS_CHECK(std::isfinite(flap_window) && flap_window > 0.0,
           "governor flap_window must be finite and > 0, got "
               << flap_window);
  HS_CHECK(std::isfinite(freeze_duration) && freeze_duration >= 0.0,
           "governor freeze_duration must be finite and >= 0 (0 = frozen "
           "until reset), got "
               << freeze_duration);
}

const char* governor_verdict_name(GovernorVerdict verdict) {
  switch (verdict) {
    case GovernorVerdict::kCommit:          return "commit";
    case GovernorVerdict::kNoImprovement:   return "no-improvement";
    case GovernorVerdict::kDwell:           return "dwell";
    case GovernorVerdict::kBudgetExhausted: return "budget-exhausted";
    case GovernorVerdict::kFrozen:          return "frozen";
  }
  return "unknown";
}

ReallocationGovernor::ReallocationGovernor(GovernorConfig config)
    : config_(config) {
  config_.validate();
}

uint32_t ReallocationGovernor::commits_in_window(double now,
                                                 double window) const {
  uint32_t count = 0;
  for (double t : commit_times_) {
    if (t > now - window) {
      ++count;
    }
  }
  return count;
}

GovernorVerdict ReallocationGovernor::consider(double now,
                                               double current_objective,
                                               double proposed_objective) {
  ++proposals_;

  if (frozen_) {
    if (config_.freeze_duration > 0.0 && now >= frozen_until_) {
      frozen_ = false;
    } else {
      return GovernorVerdict::kFrozen;
    }
  }

  // Relative believed improvement. A saturated (infinite) current
  // objective counts as fully improvable by any finite proposal.
  double improvement = 0.0;
  if (std::isinf(current_objective)) {
    improvement = std::isfinite(proposed_objective) ? 1.0 : 0.0;
  } else if (current_objective > 0.0 &&
             std::isfinite(proposed_objective)) {
    improvement =
        (current_objective - proposed_objective) / current_objective;
  }
  if (improvement < config_.min_improvement) {
    return GovernorVerdict::kNoImprovement;
  }

  if (has_committed_ && now - last_commit_ < config_.min_dwell) {
    return GovernorVerdict::kDwell;
  }

  if (commits_in_window(now, config_.budget_window) >=
      config_.window_budget) {
    return GovernorVerdict::kBudgetExhausted;
  }

  // Flap guard: would this commit push the trailing flap_window count
  // past the threshold?
  if (commits_in_window(now, config_.flap_window) + 1 >
      config_.flap_threshold) {
    frozen_ = true;
    frozen_until_ = now + config_.freeze_duration;
    ++freezes_;
    return GovernorVerdict::kFrozen;
  }

  // Commit. Prune times that no longer matter for either window.
  const double horizon =
      std::max(config_.budget_window, config_.flap_window);
  std::erase_if(commit_times_,
                [&](double t) { return t <= now - horizon; });
  commit_times_.push_back(now);
  last_commit_ = now;
  has_committed_ = true;
  ++commits_;
  return GovernorVerdict::kCommit;
}

void ReallocationGovernor::reset() {
  commit_times_.clear();
  last_commit_ = 0.0;
  has_committed_ = false;
  frozen_ = false;
  frozen_until_ = 0.0;
  proposals_ = 0;
  commits_ = 0;
  freezes_ = 0;
}

size_t ReallocationGovernor::save_state(std::vector<double>& out) const {
  out.push_back(static_cast<double>(commit_times_.size()));
  out.insert(out.end(), commit_times_.begin(), commit_times_.end());
  out.push_back(last_commit_);
  out.push_back(has_committed_ ? 1.0 : 0.0);
  out.push_back(frozen_ ? 1.0 : 0.0);
  out.push_back(frozen_until_);
  out.push_back(static_cast<double>(proposals_));
  out.push_back(static_cast<double>(commits_));
  out.push_back(static_cast<double>(freezes_));
  return commit_times_.size() + 8;
}

size_t ReallocationGovernor::restore_state(std::span<const double> state) {
  const auto is_count = [](double v) {
    return v >= 0.0 && v <= 0x1p53 && v == std::floor(v);
  };
  const auto is_flag = [](double v) { return v == 0.0 || v == 1.0; };
  if (state.empty() || !is_count(state[0])) {
    return 0;
  }
  const auto count = static_cast<size_t>(state[0]);
  const size_t length = count + 8;
  if (state.size() < length) {
    return 0;
  }
  const std::span<const double> times = state.subspan(1, count);
  const std::span<const double> tail = state.subspan(1 + count, 7);
  const double last_commit = tail[0];
  const double proposals = tail[4];
  const double commits = tail[5];
  const double freezes = tail[6];
  for (const double t : times) {
    if (!std::isfinite(t)) {
      return 0;
    }
  }
  // The invariants consider() and reset() keep: the history ends at the
  // last commit, commits and freezes are disjoint outcomes of distinct
  // proposals, and a governor that never committed has no history.
  if (!std::isfinite(last_commit) || !is_flag(tail[1]) ||
      !is_flag(tail[2]) || !std::isfinite(tail[3]) || !is_count(proposals) ||
      !is_count(commits) || !is_count(freezes) ||
      commits + freezes > proposals ||
      static_cast<double>(count) > commits ||
      (tail[1] == 1.0) != (commits > 0.0) ||
      (count > 0 && times.back() != last_commit) ||
      (tail[1] == 0.0 && last_commit != 0.0) ||
      (tail[2] == 1.0 && freezes == 0.0)) {
    return 0;
  }
  commit_times_.assign(times.begin(), times.end());
  last_commit_ = last_commit;
  has_committed_ = tail[1] == 1.0;
  frozen_ = tail[2] == 1.0;
  frozen_until_ = tail[3];
  proposals_ = static_cast<uint64_t>(proposals);
  commits_ = static_cast<uint64_t>(commits);
  freezes_ = static_cast<uint64_t>(freezes);
  return length;
}

}  // namespace hs::uncertainty
