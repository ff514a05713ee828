#include "uncertainty/adaptive.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "alloc/optimized.h"
#include "alloc/scheme.h"
#include "util/check.h"
#include "util/math_util.h"

namespace hs::uncertainty {

void AdaptiveOptions::validate() const {
  HS_CHECK(std::isfinite(mean_job_size) && mean_job_size > 0.0,
           "adaptive mean_job_size must be finite and > 0, got "
               << mean_job_size);
  HS_CHECK(std::isfinite(time_constant) && time_constant > 0.0,
           "adaptive time_constant must be finite and > 0, got "
               << time_constant);
  HS_CHECK(std::isfinite(safety_factor) && safety_factor > 0.0,
           "adaptive safety_factor must be finite and > 0, got "
               << safety_factor);
  HS_CHECK(reestimate_every >= 1,
           "adaptive reestimate_every must be >= 1, got "
               << reestimate_every);
  HS_CHECK(min_rho > 0.0 && min_rho <= max_rho && max_rho < 1.0,
           "adaptive rho clamp range out of order: [" << min_rho << ", "
                                                      << max_rho << "]");
  governor.validate();
}

GovernedAdaptiveDispatcher::GovernedAdaptiveDispatcher(
    std::vector<double> believed_speeds, double believed_rho,
    AdaptiveOptions options)
    : believed_speeds_(std::move(believed_speeds)),
      believed_rho_(believed_rho),
      options_(options),
      bank_(believed_speeds_.size(), options.mean_job_size,
            options.time_constant),
      governor_(options.governor),
      assumed_rho_(0.0) {
  HS_CHECK(!believed_speeds_.empty(),
           "governed adaptive dispatcher needs at least one machine");
  for (double s : believed_speeds_) {
    HS_CHECK(std::isfinite(s) && s > 0.0,
             "believed machine speed must be finite and > 0, got " << s);
  }
  HS_CHECK(std::isfinite(believed_rho) && believed_rho > 0.0,
           "believed rho must be finite and > 0, got " << believed_rho);
  options_.validate();
  assumed_rho_ =
      std::clamp(believed_rho_, options_.min_rho, options_.max_rho);
  available_.assign(believed_speeds_.size(), true);
  install(solve(believed_speeds_, assumed_rho_));
}

std::string GovernedAdaptiveDispatcher::name() const {
  return options_.scheme == AdaptiveScheme::kOptimized ? "governed-orr"
                                                       : "governed-wrr";
}

bool GovernedAdaptiveDispatcher::mask_active() const {
  bool any_down = false;
  bool any_up = false;
  for (const bool up : available_) {
    any_down = any_down || !up;
    any_up = any_up || up;
  }
  return any_down && any_up;
}

alloc::Allocation GovernedAdaptiveDispatcher::solve(
    const std::vector<double>& speeds, double rho) const {
  if (options_.scheme == AdaptiveScheme::kOptimized) {
    return alloc::OptimizedAllocation().compute(speeds, rho);
  }
  return alloc::WeightedAllocation().compute(speeds, rho);
}

void GovernedAdaptiveDispatcher::solve_into(std::span<const double> speeds,
                                            double rho,
                                            std::vector<double>& fractions) {
  if (options_.scheme == AdaptiveScheme::kOptimized) {
    alloc::OptimizedAllocation().compute_into(speeds, rho, fractions,
                                              solver_scratch_);
  } else {
    alloc::WeightedAllocation().compute_into(speeds, rho, fractions);
  }
}

void GovernedAdaptiveDispatcher::install(alloc::Allocation allocation) {
  // The governor's sanity guard: whatever the estimates were, the
  // committed fractions must form a distribution.
  double sum = 0.0;
  for (size_t i = 0; i < allocation.size(); ++i) {
    sum += allocation[i];
  }
  HS_CHECK(std::abs(sum - 1.0) <= 1e-9,
           "re-allocation fractions must sum to 1, got " << sum);
  if (allocation_ == nullptr) {
    allocation_ = std::make_unique<alloc::Allocation>(std::move(allocation));
  } else {
    *allocation_ = std::move(allocation);
  }
  install_inner();
}

void GovernedAdaptiveDispatcher::install_raw(
    std::span<const double> fractions) {
  // Allocation::assign validates and normalizes exactly once — the same
  // single normalization the solve()→Allocation chain applies, so the
  // committed fractions are bit-identical to the reconstructing path.
  if (allocation_ == nullptr) {
    allocation_ = std::make_unique<alloc::Allocation>(
        std::vector<double>(fractions.begin(), fractions.end()));
  } else {
    allocation_->assign(fractions);
  }
  install_inner();
}

void GovernedAdaptiveDispatcher::install_inner() {
  if (inner_ == nullptr) {
    inner_ =
        std::make_unique<dispatch::SmoothRoundRobinDispatcher>(*allocation_);
  } else {
    // Fresh construction and in-place rebuild produce identical cadence
    // state (rebuild() copies the fractions bit-for-bit and resets).
    inner_->rebuild(*allocation_);
  }
}

void GovernedAdaptiveDispatcher::on_arrival(double now) {
  last_now_ = now;
  bank_.observe_arrival(now);
  if (++arrivals_since_tick_ >= options_.reestimate_every) {
    arrivals_since_tick_ = 0;
    maybe_reallocate(now);
  }
}

void GovernedAdaptiveDispatcher::maybe_reallocate(double now) {
  if (!bank_.warmed_up()) {
    return;
  }
  const double lambda_hat = bank_.lambda_hat(0.0);
  if (lambda_hat <= 0.0) {
    return;
  }
  const std::vector<double> speeds_hat = bank_.speeds_hat(believed_speeds_);
  const double total_hat = util::kahan_sum(speeds_hat);
  const double rho_raw =
      lambda_hat * options_.mean_job_size / total_hat;
  if (trace_ != nullptr) {
    trace_->record(now, obs::TraceEventKind::kEstimateUpdate,
                   obs::TraceSink::kNoJob, obs::TraceSink::kScheduler, 0,
                   rho_raw);
  }
  if (mask_active()) {
    // The fault layer owns routing while machines are blacklisted; the
    // estimators keep accruing and proposals resume on full health.
    return;
  }

  double assumed = 0.0;
  alloc::Allocation proposed = [&] {
    if (options_.scheme == AdaptiveScheme::kOptimized) {
      auto solved = alloc::solve_from_estimates(
          speeds_hat, lambda_hat, options_.mean_job_size,
          options_.safety_factor, options_.min_rho, options_.max_rho);
      assumed = solved.assumed_rho;
      return std::move(solved.allocation);
    }
    assumed = std::clamp(rho_raw * options_.safety_factor,
                         options_.min_rho, options_.max_rho);
    return alloc::WeightedAllocation().compute(speeds_hat, assumed);
  }();

  // Both objectives are believed F(α) (Definition 1) under the *same*
  // fresh estimates: how suboptimal has the live allocation become, and
  // how much would the proposal recover?
  const double f_current =
      alloc::objective_value(*allocation_, speeds_hat, assumed);
  const double f_proposed =
      alloc::objective_value(proposed, speeds_hat, assumed);

  const uint64_t freezes_before = governor_.freezes();
  const GovernorVerdict verdict =
      governor_.consider(now, f_current, f_proposed);
  if (verdict == GovernorVerdict::kCommit) {
    const double improvement =
        std::isinf(f_current) ? 1.0 : (f_current - f_proposed) / f_current;
    if (trace_ != nullptr) {
      trace_->record(now, obs::TraceEventKind::kReallocCommit,
                     obs::TraceSink::kNoJob, obs::TraceSink::kScheduler,
                     static_cast<uint16_t>(
                         std::min<uint64_t>(governor_.commits(), 0xffff)),
                     improvement);
    }
    assumed_rho_ = assumed;
    ReallocEvent event;
    event.time = now;
    event.assumed_rho = assumed;
    event.fractions.reserve(proposed.size());
    for (size_t i = 0; i < proposed.size(); ++i) {
      event.fractions.push_back(proposed[i]);
    }
    timeline_.push_back(std::move(event));
    install(std::move(proposed));
    return;
  }
  if (trace_ != nullptr) {
    trace_->record(now, obs::TraceEventKind::kReallocReject,
                   obs::TraceSink::kNoJob, obs::TraceSink::kScheduler, 0,
                   static_cast<double>(verdict));
    if (governor_.freezes() > freezes_before) {
      trace_->record(now, obs::TraceEventKind::kGovernorFreeze,
                     obs::TraceSink::kNoJob, obs::TraceSink::kScheduler, 0,
                     static_cast<double>(governor_.freezes()));
    }
  }
}

size_t GovernedAdaptiveDispatcher::pick(rng::Xoshiro256& gen) {
  const size_t machine = inner_->pick(gen);
  bank_.observe_dispatch(machine, last_now_);
  return machine;
}

void GovernedAdaptiveDispatcher::on_departure_report(size_t machine) {
  on_departure_report(machine, last_now_);
}

void GovernedAdaptiveDispatcher::on_departure_report(size_t machine,
                                                     double now) {
  on_departure_report(machine, now, options_.mean_job_size);
}

void GovernedAdaptiveDispatcher::on_departure_report(size_t machine,
                                                     double now,
                                                     double work) {
  HS_CHECK(machine < believed_speeds_.size(),
           "machine index out of range: " << machine);
  bank_.observe_departure(machine, now, work);
}

void GovernedAdaptiveDispatcher::on_dispatch_result(size_t machine,
                                                    bool accepted,
                                                    double /*now*/) {
  if (!accepted) {
    bank_.forget_dispatch(machine);
  }
}

bool GovernedAdaptiveDispatcher::set_available_mask(
    const std::vector<bool>& available) {
  HS_CHECK(available.size() == believed_speeds_.size(),
           "availability mask size " << available.size()
                                     << " != machine count "
                                     << believed_speeds_.size());
  if (available == available_) {
    return true;
  }
  for (size_t i = 0; i < available.size(); ++i) {
    if (available_[i] && !available[i]) {
      // Newly down: its outstanding dispatches died with it — without
      // this, phantom busy time would depress its speed estimate forever.
      bank_.forget_all_outstanding(i);
    }
  }
  available_ = available;
  rebuild_for_mask();
  ++mask_rebuilds_;
  return true;
}

void GovernedAdaptiveDispatcher::rebuild_for_mask() {
  // Availability changes are mandatory: rebuild immediately from the
  // freshest estimates (believed values until warm-up), bypassing the
  // governor — the PR1 survivor-reallocation path. Every intermediate
  // lives in a reused scratch buffer, so mask flips at a fixed cluster
  // size touch the allocator zero times once warm.
  if (bank_.warmed_up()) {
    bank_.speeds_hat_into(believed_speeds_, speeds_hat_scratch_);
  } else {
    speeds_hat_scratch_.assign(believed_speeds_.begin(),
                               believed_speeds_.end());
  }
  const std::vector<double>& speeds_hat = speeds_hat_scratch_;
  const double lambda_hat = bank_.lambda_hat(0.0);
  const double total = util::kahan_sum(speeds_hat);
  const double rho_base =
      lambda_hat > 0.0 ? lambda_hat * options_.mean_job_size / total
                       : believed_rho_;
  const double assumed =
      std::clamp(rho_base * options_.safety_factor, options_.min_rho,
                 options_.max_rho);
  if (!mask_active()) {
    assumed_rho_ = assumed;
    solve_into(speeds_hat, assumed, fractions_scratch_);
    install_raw(fractions_scratch_);
    return;
  }
  // Survivors absorb the whole stream: scale the assumed utilization by
  // total/survivor capacity, clamped (past max_rho the optimized scheme
  // approaches the weighted one anyway).
  survivor_speeds_scratch_.clear();
  for (size_t i = 0; i < speeds_hat.size(); ++i) {
    if (available_[i]) {
      survivor_speeds_scratch_.push_back(speeds_hat[i]);
    }
  }
  const double survivor_total = util::kahan_sum(survivor_speeds_scratch_);
  const double effective =
      std::clamp(assumed * total / survivor_total, options_.min_rho,
                 options_.max_rho);
  solve_into(survivor_speeds_scratch_, effective,
             survivor_fractions_scratch_);
  // Normalize the survivor solve (the Allocation the reconstructing
  // path built from it), then expand with zeros; install_raw's single
  // normalization reproduces the outer Allocation bit-identically.
  alloc::Allocation::normalize(survivor_fractions_scratch_);
  fractions_scratch_.assign(speeds_hat.size(), 0.0);
  size_t next_survivor = 0;
  for (size_t i = 0; i < speeds_hat.size(); ++i) {
    if (available_[i]) {
      fractions_scratch_[i] = survivor_fractions_scratch_[next_survivor++];
    }
  }
  assumed_rho_ = effective;
  install_raw(fractions_scratch_);
}

void GovernedAdaptiveDispatcher::reset() {
  bank_.reset();
  governor_.reset();
  timeline_.clear();
  arrivals_since_tick_ = 0;
  mask_rebuilds_ = 0;
  last_now_ = 0.0;
  available_.assign(believed_speeds_.size(), true);
  assumed_rho_ =
      std::clamp(believed_rho_, options_.min_rho, options_.max_rho);
  install(solve(believed_speeds_, assumed_rho_));
}

const alloc::Allocation& GovernedAdaptiveDispatcher::allocation() const {
  return *allocation_;
}

size_t GovernedAdaptiveDispatcher::save_state(std::vector<double>& out) const {
  const size_t n = believed_speeds_.size();
  out.push_back(assumed_rho_);
  out.push_back(last_now_);
  out.push_back(static_cast<double>(arrivals_since_tick_));
  for (size_t i = 0; i < n; ++i) {
    out.push_back(available_.empty() || available_[i] ? 1.0 : 0.0);
  }
  size_t written = 3 + n + bank_.save_state(out);
  const auto& f = allocation_->fractions();
  out.insert(out.end(), f.begin(), f.end());
  written += n + governor_.save_state(out);
  return written + inner_->save_state(out);
}

size_t GovernedAdaptiveDispatcher::restore_state(
    std::span<const double> state) {
  const size_t n = believed_speeds_.size();
  const size_t bank_len = 4 + 5 * n;
  const size_t fixed = 3 + n + bank_len + n;  // before the governor block
  if (state.size() < fixed) {
    return 0;
  }
  const double rho = state[0];
  const double ticks = state[2];
  if (!(rho > 0.0 && rho < 1.0) || !std::isfinite(state[1]) ||
      !(ticks >= 0.0 && ticks <= 0x1p53) || ticks != std::floor(ticks)) {
    return 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (!(state[3 + i] == 0.0 || state[3 + i] == 1.0)) {
      return 0;
    }
  }
  // Restore the governor into a copy first, so a malformed block leaves
  // this dispatcher unchanged.
  ReallocationGovernor governor = governor_;
  const size_t governor_len = governor.restore_state(state.subspan(fixed));
  if (governor_len == 0 ||
      bank_.restore_state(state.subspan(3 + n, bank_len)) != bank_len) {
    return 0;
  }
  assumed_rho_ = rho;
  last_now_ = state[1];
  arrivals_since_tick_ = static_cast<uint64_t>(ticks);
  available_.assign(n, true);
  for (size_t i = 0; i < n; ++i) {
    available_[i] = state[3 + i] == 1.0;
  }
  allocation_->assign_exact(state.subspan(3 + n + bank_len, n));
  governor_ = std::move(governor);
  const size_t own = fixed + governor_len;
  return own + inner_->restore_state(state.subspan(own));
}

}  // namespace hs::uncertainty
