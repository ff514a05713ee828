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
  solve_into(believed_speeds_, assumed_rho_, fractions_scratch_);
  install_raw(fractions_scratch_);
}

std::string GovernedAdaptiveDispatcher::name() const {
  return options_.scheme == AdaptiveScheme::kOptimized ? "governed-orr"
                                                       : "governed-wrr";
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

void GovernedAdaptiveDispatcher::install_raw(
    std::span<const double> fractions) {
  // Allocation::assign validates and normalizes exactly once — the same
  // single normalization OptimizedAllocation::compute applies, so the
  // committed fractions are bit-identical to a constructed Allocation.
  if (allocation_.has_value()) {
    allocation_->assign(fractions);
  } else {
    allocation_.emplace(
        std::vector<double>(fractions.begin(), fractions.end()));
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
  bank_.speeds_hat_into(believed_speeds_, speeds_hat_scratch_);
  const std::vector<double>& speeds_hat = speeds_hat_scratch_;
  const double total_hat = util::kahan_sum(speeds_hat);
  const double rho_raw =
      lambda_hat * options_.mean_job_size / total_hat;
  if (trace_ != nullptr) {
    trace_->record(now, obs::TraceEventKind::kEstimateUpdate,
                   obs::TraceSink::kNoJob, obs::TraceSink::kScheduler, 0,
                   rho_raw);
  }
  if (alloc::restricts(available_)) {
    // The fault layer owns routing while machines are blacklisted; the
    // estimators keep accruing and proposals resume on full health.
    return;
  }
  if (options_.scheme == AdaptiveScheme::kOptimized) {
    HS_CHECK(std::isfinite(lambda_hat),
             "lambda estimate must be finite, got " << lambda_hat);
    HS_CHECK(total_hat > 0.0,
             "estimated total speed must be > 0, got " << total_hat);
  }
  const double assumed = std::clamp(rho_raw * options_.safety_factor,
                                    options_.min_rho, options_.max_rho);
  solve_into(speeds_hat, assumed, fractions_scratch_);
  // The proposal buffer is made at the first re-estimation, not at
  // construction, and reused (swapped with the live one) from then on.
  if (proposal_.has_value()) {
    proposal_->assign(fractions_scratch_);
  } else {
    proposal_.emplace(fractions_scratch_);
  }

  // Both objectives are believed F(α) (Definition 1) under the *same*
  // fresh estimates: how suboptimal has the live allocation become, and
  // how much would the proposal recover?
  const double f_current =
      alloc::objective_value(*allocation_, speeds_hat, assumed);
  const double f_proposed =
      alloc::objective_value(*proposal_, speeds_hat, assumed);

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
    timeline_.push_back(ReallocEvent{now, assumed, proposal_->fractions()});
    std::swap(*allocation_, *proposal_);
    install_inner();
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
  const double lambda_hat = bank_.lambda_hat(0.0);
  const double rho_base =
      lambda_hat > 0.0 ? lambda_hat * options_.mean_job_size /
                             util::kahan_sum(speeds_hat_scratch_)
                       : believed_rho_;
  const double assumed =
      std::clamp(rho_base * options_.safety_factor, options_.min_rho,
                 options_.max_rho);
  assumed_rho_ = alloc::survivor_fractions_into(
      speeds_hat_scratch_, available_, assumed, options_.min_rho,
      options_.max_rho,
      [this](std::span<const double> speeds, double rho,
             std::vector<double>& out) { solve_into(speeds, rho, out); },
      fractions_scratch_, survivor_scratch_);
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
  solve_into(believed_speeds_, assumed_rho_, fractions_scratch_);
  install_raw(fractions_scratch_);
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
  const std::span<const double> fractions = state.subspan(3 + n + bank_len, n);
  if (!alloc::Allocation::exact_fractions_valid(fractions)) {
    return 0;
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
  allocation_->assign_exact(fractions);
  governor_ = std::move(governor);
  const size_t own = fixed + governor_len;
  return own + inner_->restore_state(state.subspan(own));
}

}  // namespace hs::uncertainty
