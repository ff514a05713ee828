#include "alloc/allocation.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/check.h"
#include "util/math_util.h"

namespace hs::alloc {

void Allocation::normalize(std::vector<double>& fractions) {
  HS_CHECK(!fractions.empty(), "allocation needs at least one machine");
  double sum = 0.0;
  for (double& f : fractions) {
    HS_CHECK(f > -1e-9, "allocation fraction significantly negative: " << f);
    f = std::max(f, 0.0);
    sum += f;
  }
  HS_CHECK(std::fabs(sum - 1.0) < 1e-6,
           "allocation fractions must sum to 1, got " << sum);
  for (double& f : fractions) {
    f /= sum;
  }
}

Allocation::Allocation(std::vector<double> fractions)
    : fractions_(std::move(fractions)) {
  normalize(fractions_);
}

void Allocation::assign(std::span<const double> fractions) {
  fractions_.assign(fractions.begin(), fractions.end());
  normalize(fractions_);
}

bool Allocation::exact_fractions_valid(std::span<const double> fractions) {
  double sum = 0.0;
  for (double f : fractions) {
    if (!(f >= 0.0 && f <= 1.0)) {
      return false;
    }
    sum += f;
  }
  return !fractions.empty() && std::fabs(sum - 1.0) < 1e-6;
}

void Allocation::assign_exact(std::span<const double> fractions) {
  HS_CHECK(exact_fractions_valid(fractions),
           "restored allocation fractions must be non-empty, each in "
           "[0, 1], and sum to 1");
  fractions_.assign(fractions.begin(), fractions.end());
}

bool restricts(const std::vector<bool>& available) {
  const bool any_up =
      std::find(available.begin(), available.end(), true) != available.end();
  return any_up &&
         std::find(available.begin(), available.end(), false) !=
             available.end();
}

size_t Allocation::active_count() const {
  return static_cast<size_t>(
      std::count_if(fractions_.begin(), fractions_.end(),
                    [](double f) { return f > 0.0; }));
}

std::vector<double> Allocation::machine_utilizations(
    std::span<const double> speeds, double system_utilization) const {
  HS_CHECK(speeds.size() == fractions_.size(),
           "speed vector size " << speeds.size() << " != allocation size "
                                << fractions_.size());
  HS_CHECK(system_utilization >= 0.0,
           "negative system utilization " << system_utilization);
  const double total_speed = util::kahan_sum(speeds);
  std::vector<double> result(fractions_.size());
  for (size_t i = 0; i < fractions_.size(); ++i) {
    // λᵢ/(sᵢμ) with λ = ρ·μ·Σs and λᵢ = αᵢλ.
    result[i] = fractions_[i] * system_utilization * total_speed / speeds[i];
  }
  return result;
}

double Allocation::max_machine_utilization(std::span<const double> speeds,
                                           double system_utilization) const {
  const auto utils = machine_utilizations(speeds, system_utilization);
  return *std::max_element(utils.begin(), utils.end());
}

std::string Allocation::to_string(int precision) const {
  std::ostringstream oss;
  oss.precision(precision);
  oss << std::fixed << "{";
  for (size_t i = 0; i < fractions_.size(); ++i) {
    if (i > 0) {
      oss << ", ";
    }
    oss << fractions_[i];
  }
  oss << "}";
  return oss.str();
}

}  // namespace hs::alloc
