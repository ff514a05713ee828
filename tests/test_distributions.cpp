// Tests for the random variate distributions, including the paper's
// Bounded Pareto job-size model and the H2 arrival model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "rng/distributions.h"
#include "util/check.h"

namespace {

using namespace hs::rng;

// Empirical mean/variance of a distribution from n samples.
struct Empirical {
  double mean = 0.0;
  double variance = 0.0;
};

Empirical sample_stats(const Distribution& dist, int n, uint64_t seed) {
  Xoshiro256 gen(seed);
  double sum = 0.0;
  double sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = dist.sample(gen);
    sum += x;
    sumsq += x * x;
  }
  Empirical e;
  e.mean = sum / n;
  e.variance = sumsq / n - e.mean * e.mean;
  return e;
}

// ------------------------------------------------------------------
// Parameterized check: every finite-variance distribution's empirical
// moments must match its analytic moments.
struct MomentCase {
  const char* label;
  std::shared_ptr<const Distribution> dist;
  double mean_tol;   // relative
  double var_tol;    // relative
};

// gtest puts the printed parameter into each listed test name. The raw
// bytes hold pointers and would rename the test on every build.
void PrintTo(const MomentCase& c, std::ostream* os) { *os << c.label; }

class MomentMatch : public ::testing::TestWithParam<MomentCase> {};

TEST_P(MomentMatch, EmpiricalMatchesAnalytic) {
  const MomentCase& c = GetParam();
  const Empirical e = sample_stats(*c.dist, 400000, 12345);
  EXPECT_NEAR(e.mean, c.dist->mean(), c.mean_tol * c.dist->mean() + 1e-12)
      << c.label;
  if (std::isfinite(c.dist->variance()) && c.dist->variance() > 0.0) {
    EXPECT_NEAR(e.variance, c.dist->variance(),
                c.var_tol * c.dist->variance())
        << c.label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllDistributions, MomentMatch,
    ::testing::Values(
        MomentCase{"exp_1", std::make_shared<Exponential>(1.0), 0.01, 0.05},
        MomentCase{"exp_20", std::make_shared<Exponential>(20.0), 0.01, 0.05},
        MomentCase{"uniform", std::make_shared<Uniform>(2.0, 8.0), 0.01, 0.05},
        MomentCase{"deterministic", std::make_shared<Deterministic>(3.5),
                   1e-12, 0.0},
        MomentCase{"h2_cv2",
                   std::make_shared<HyperExponential2>(
                       HyperExponential2::fit_mean_cv(2.2, 2.0)),
                   0.02, 0.10},
        MomentCase{"h2_cv3",
                   std::make_shared<HyperExponential2>(
                       HyperExponential2::fit_mean_cv(1.0, 3.0)),
                   0.02, 0.10},
        MomentCase{"erlang4", std::make_shared<Erlang>(4, 2.0), 0.01, 0.05},
        MomentCase{"weibull",
                   std::make_shared<Weibull>(1.5, 3.0), 0.01, 0.05},
        MomentCase{"lognormal",
                   std::make_shared<LogNormal>(0.0, 0.5), 0.01, 0.08},
        // α=2 variance converges very slowly (E[X⁴] is log-divergent),
        // hence the loose variance tolerance.
        MomentCase{"bp_alpha2",
                   std::make_shared<BoundedPareto>(10.0, 21600.0, 2.0), 0.02,
                   0.60}),
    [](const auto& info) { return info.param.label; });

// ------------------------------------------------------------------ CV

TEST(DistributionCv, ExponentialIsOne) {
  EXPECT_NEAR(Exponential(3.0).cv(), 1.0, 1e-12);
}

TEST(DistributionCv, ErlangBelowOne) {
  EXPECT_NEAR(Erlang(4, 1.0).cv(), 0.5, 1e-12);
}

TEST(DistributionCv, DeterministicIsZero) {
  EXPECT_EQ(Deterministic(5.0).cv(), 0.0);
}

// --------------------------------------------------------- HyperExp fit

TEST(HyperExpFit, MatchesTargetMeanAndCv) {
  for (double mean : {0.5, 2.2, 76.8}) {
    for (double cv : {1.0, 1.5, 2.64, 3.0, 5.0}) {
      const auto h2 = HyperExponential2::fit_mean_cv(mean, cv);
      EXPECT_NEAR(h2.mean(), mean, 1e-9 * mean) << "cv=" << cv;
      EXPECT_NEAR(h2.cv(), cv, 1e-6 * cv) << "mean=" << mean;
    }
  }
}

TEST(HyperExpFit, BalancedMeans) {
  const auto h2 = HyperExponential2::fit_mean_cv(2.0, 3.0);
  // Balanced-means property: p/rate1 == (1-p)/rate2 == mean/2.
  EXPECT_NEAR(h2.p() / h2.rate1(), 1.0, 1e-9);
  EXPECT_NEAR((1.0 - h2.p()) / h2.rate2(), 1.0, 1e-9);
}

TEST(HyperExpFit, CvBelowOneRejected) {
  EXPECT_THROW(HyperExponential2::fit_mean_cv(1.0, 0.5),
               hs::util::CheckError);
}

TEST(HyperExpFit, PaperArrivalModel) {
  // §4.1: inter-arrival CV = 3.0. Check the fit is a proper mixture.
  const auto h2 = HyperExponential2::fit_mean_cv(2.2, 3.0);
  EXPECT_GT(h2.p(), 0.5);
  EXPECT_LT(h2.p(), 1.0);
  EXPECT_GT(h2.rate1(), h2.rate2());  // frequent short gaps, rare long ones
}

// -------------------------------------------------------- BoundedPareto

TEST(BoundedPareto, PaperJobSizeMeanIs76point8) {
  // §4.1: B(k=10 s, p=21600 s, α=1.0) has average job size 76.8 s.
  const BoundedPareto bp(10.0, 21600.0, 1.0);
  EXPECT_NEAR(bp.mean(), 76.8, 0.05);
}

TEST(BoundedPareto, SamplesWithinBounds) {
  const BoundedPareto bp(10.0, 21600.0, 1.0);
  Xoshiro256 gen(77);
  for (int i = 0; i < 200000; ++i) {
    const double x = bp.sample(gen);
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 21600.0);
  }
}

TEST(BoundedPareto, EmpiricalMeanMatchesHeavyTail) {
  // α=1 converges slowly; allow a loose tolerance with many samples.
  const BoundedPareto bp(10.0, 21600.0, 1.0);
  const Empirical e = sample_stats(bp, 4000000, 321);
  EXPECT_NEAR(e.mean, bp.mean(), 0.05 * bp.mean());
}

TEST(BoundedPareto, MomentLogBranch) {
  // For α == r the moment integral has a logarithmic form.
  const BoundedPareto bp(10.0, 21600.0, 1.0);
  const double k = 10.0, p = 21600.0;
  const double expected = (k * p / (p - k)) * std::log(p / k);
  EXPECT_NEAR(bp.moment(1), expected, 1e-9 * expected);
}

TEST(BoundedPareto, MomentGeneralBranch) {
  const BoundedPareto bp(2.0, 32.0, 1.5);
  // E[X] = norm * a/(1-a) * (p^{1-a} - k^{1-a}) with a=1.5.
  const double k = 2.0, p = 32.0, a = 1.5;
  const double norm = std::pow(k, a) / (1.0 - std::pow(k / p, a));
  const double expected =
      norm * a / (1.0 - a) * (std::pow(p, 1.0 - a) - std::pow(k, 1.0 - a));
  EXPECT_NEAR(bp.mean(), expected, 1e-9 * expected);
}

TEST(BoundedPareto, SecondMomentMatchesEmpirically) {
  const BoundedPareto bp(1.0, 100.0, 2.5);
  const Empirical e = sample_stats(bp, 1000000, 55);
  const double second = bp.moment(2);
  EXPECT_NEAR(e.variance + e.mean * e.mean, second, 0.03 * second);
}

TEST(BoundedPareto, SmallerAlphaHasHeavierTail) {
  const BoundedPareto light(10.0, 21600.0, 2.0);
  const BoundedPareto heavy(10.0, 21600.0, 0.9);
  EXPECT_GT(heavy.mean(), light.mean());
}

TEST(BoundedPareto, InvalidParamsThrow) {
  EXPECT_THROW(BoundedPareto(0.0, 10.0, 1.0), hs::util::CheckError);
  EXPECT_THROW(BoundedPareto(10.0, 10.0, 1.0), hs::util::CheckError);
  EXPECT_THROW(BoundedPareto(10.0, 100.0, 0.0), hs::util::CheckError);
}

// ------------------------------------------------------------- Others

TEST(Exponential, InvalidRateThrows) {
  EXPECT_THROW(Exponential(0.0), hs::util::CheckError);
  EXPECT_THROW(Exponential(-1.0), hs::util::CheckError);
}

TEST(Uniform, ReversedBoundsThrow) {
  EXPECT_THROW(Uniform(2.0, 2.0), hs::util::CheckError);
}

TEST(Names, AreDescriptive) {
  EXPECT_NE(Exponential(2.0).name().find("2"), std::string::npos);
  EXPECT_NE(BoundedPareto(10, 21600, 1).name().find("21600"),
            std::string::npos);
  EXPECT_NE(HyperExponential2::fit_mean_cv(1, 3).name().find("HyperExp"),
            std::string::npos);
}

TEST(StandardNormal, MomentsMatch) {
  Xoshiro256 gen(101);
  const int n = 500000;
  double sum = 0.0, sumsq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = sample_standard_normal(gen);
    sum += z;
    sumsq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sumsq / n, 1.0, 0.01);
}

// ------------------------------------------------------ DiscreteChoice

TEST(DiscreteChoice, FrequenciesMatchWeights) {
  DiscreteChoice choice({1.0, 2.0, 3.0, 4.0});
  Xoshiro256 gen(31);
  std::vector<int> counts(4, 0);
  const int n = 500000;
  for (int i = 0; i < n; ++i) {
    counts[choice.sample(gen)]++;
  }
  for (size_t i = 0; i < 4; ++i) {
    const double expected = choice.probability(i) * n;
    EXPECT_NEAR(counts[i], expected, 0.03 * expected) << "index " << i;
  }
}

TEST(DiscreteChoice, ZeroWeightNeverChosen) {
  DiscreteChoice choice({0.5, 0.0, 0.5});
  Xoshiro256 gen(37);
  for (int i = 0; i < 100000; ++i) {
    EXPECT_NE(choice.sample(gen), 1u);
  }
}

TEST(DiscreteChoice, SingleWeight) {
  DiscreteChoice choice({7.0});
  Xoshiro256 gen(41);
  EXPECT_EQ(choice.sample(gen), 0u);
  EXPECT_DOUBLE_EQ(choice.probability(0), 1.0);
}

TEST(DiscreteChoice, InvalidWeightsThrow) {
  // Explicit empty vector: plain {} would be ambiguous with the copy
  // constructor now that DiscreteChoice is default-constructible.
  EXPECT_THROW(DiscreteChoice(std::vector<double>{}), hs::util::CheckError);
  EXPECT_THROW(DiscreteChoice({0.0, 0.0}), hs::util::CheckError);
  EXPECT_THROW(DiscreteChoice({1.0, -0.5}), hs::util::CheckError);
}

TEST(DiscreteChoice, ProbabilitiesNormalized) {
  DiscreteChoice choice({2.0, 6.0});
  EXPECT_DOUBLE_EQ(choice.probability(0), 0.25);
  EXPECT_DOUBLE_EQ(choice.probability(1), 0.75);
}

}  // namespace
