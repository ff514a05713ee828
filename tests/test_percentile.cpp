// Tests for the P² streaming quantile estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rng/distributions.h"
#include "stats/percentile.h"
#include "util/check.h"

namespace {

using hs::stats::P2Quantile;

double exact_quantile(std::vector<double> data, double q) {
  std::sort(data.begin(), data.end());
  const double pos = q * static_cast<double>(data.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= data.size()) {
    return data.back();
  }
  return data[lo] * (1.0 - frac) + data[lo + 1] * frac;
}

TEST(P2Quantile, EmptyIsZero) {
  P2Quantile p(0.5);
  EXPECT_EQ(p.value(), 0.0);
  EXPECT_EQ(p.count(), 0u);
}

TEST(P2Quantile, FewSamplesExact) {
  P2Quantile p(0.5);
  p.add(3.0);
  p.add(1.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.value(), 2.0);
}

TEST(P2Quantile, InvalidQuantileThrows) {
  EXPECT_THROW(P2Quantile(0.0), hs::util::CheckError);
  EXPECT_THROW(P2Quantile(1.0), hs::util::CheckError);
}

struct P2Case {
  const char* label;
  double q;
  int distribution;  // 0=uniform, 1=exponential, 2=bounded pareto
  double rel_tol;
};

// gtest puts the printed parameter into each listed test name. The raw
// bytes hold a pointer and padding and would rename the test on every
// build.
void PrintTo(const P2Case& c, std::ostream* os) { *os << c.label; }

class P2Accuracy : public ::testing::TestWithParam<P2Case> {};

TEST_P(P2Accuracy, TracksExactQuantile) {
  const P2Case& c = GetParam();
  hs::rng::Xoshiro256 gen(777);
  hs::rng::Exponential exp_dist(0.5);
  hs::rng::BoundedPareto bp(1.0, 1000.0, 1.2);

  P2Quantile p(c.q);
  std::vector<double> data;
  const int n = 200000;
  data.reserve(n);
  for (int i = 0; i < n; ++i) {
    double x = 0.0;
    switch (c.distribution) {
      case 0:
        x = gen.uniform(0.0, 100.0);
        break;
      case 1:
        x = exp_dist.sample(gen);
        break;
      default:
        x = bp.sample(gen);
        break;
    }
    p.add(x);
    data.push_back(x);
  }
  const double exact = exact_quantile(data, c.q);
  EXPECT_NEAR(p.value(), exact, c.rel_tol * exact) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, P2Accuracy,
    ::testing::Values(P2Case{"uniform_p50", 0.50, 0, 0.02},
                      P2Case{"uniform_p95", 0.95, 0, 0.02},
                      P2Case{"uniform_p99", 0.99, 0, 0.02},
                      P2Case{"exponential_p90", 0.90, 1, 0.05},
                      P2Case{"exponential_p99", 0.99, 1, 0.05},
                      P2Case{"pareto_p95", 0.95, 2, 0.10}),
    [](const auto& info) { return info.param.label; });

TEST(P2Quantile, MonotoneInQ) {
  hs::rng::Xoshiro256 gen(31);
  P2Quantile p50(0.5), p90(0.9), p99(0.99);
  for (int i = 0; i < 50000; ++i) {
    const double x = gen.uniform(0.0, 1.0);
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  EXPECT_LT(p50.value(), p90.value());
  EXPECT_LT(p90.value(), p99.value());
}

}  // namespace
