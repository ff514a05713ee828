// Shared pieces of the end-to-end benchmark driver (hs_e2e).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "tracing.h"

namespace hs::e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Scales the work: each workload does what the seed-state build does
  /// in about this many seconds on the reference host (README.md).
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace JSON destination (traced runs only; empty = none).
  std::string trace_out;
};

/// What one workload run reports: metrics by name, the operation counts
/// and every correctness check that failed.
struct Report {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

/// The q-quantile of `values` by nth_element (reorders them); 0 if empty.
[[nodiscard]] inline double quantile_of(std::vector<double>& values,
                                        double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t k = std::min(values.size() - 1,
                            static_cast<size_t>(q * static_cast<double>(
                                                        values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

/// Set-up cost: blocks of repeated build() calls, taken at points of a
/// run the caller chooses. Host noise only ever slows a block down, and
/// for seconds at a time, so the cost is the best block's mean.
class SetupProbe {
 public:
  explicit SetupProbe(std::function<void()> build) : build_(std::move(build)) {}

  /// Call build() repeatedly for 20 ms.
  void run_block() {
    const int64_t start = now_ns();
    int64_t elapsed = 0;
    uint64_t calls = 0;
    do {
      build_();
      ++calls;
      elapsed = now_ns() - start;
    } while (elapsed < 20'000'000);
    per_call_.push_back(static_cast<double>(elapsed) * 1e-9 /
                        static_cast<double>(calls));
  }

  /// Seconds per build() call in the best block so far.
  [[nodiscard]] double best_seconds() const {
    return *std::min_element(per_call_.begin(), per_call_.end());
  }

 private:
  std::function<void()> build_;
  std::vector<double> per_call_;
};

/// Set-up cost measured on the spot: the best of 10 back-to-back blocks.
[[nodiscard]] inline double time_setup(std::function<void()> build) {
  SetupProbe probe(std::move(build));
  for (int b = 0; b < 10; ++b) {
    probe.run_block();
  }
  return probe.best_seconds();
}

/// `n` machine speeds drawn U(0.5, 20). The cluster is fixed; the
/// workload seed drives only the traffic.
[[nodiscard]] std::vector<double> uniform_speeds(size_t n);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] Report run_sim_workload(const Options& options);
[[nodiscard]] Report run_serve_workload(const Options& options);
[[nodiscard]] bool is_sim_workload(const std::string& name);

}  // namespace hs::e2e
