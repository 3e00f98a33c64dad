#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/rng.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/table.h"

namespace gnnpart {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream os;
  os << Status::NotFound("x");
  EXPECT_EQ(os.str(), "NotFound: x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IoError("disk"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(ResultTest, OkStatusIsRejected) {
  Result<int> r{Status::Ok()};
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOut) {
  Result<std::string> r(std::string("hello"));
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.NextInRange(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianHasRoughlyZeroMeanUnitVar) {
  Rng rng(17);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleEmptyAndSingle) {
  Rng rng(23);
  std::vector<int> empty;
  rng.Shuffle(&empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{5};
  rng.Shuffle(&one);
  EXPECT_EQ(one[0], 5);
}

TEST(RngTest, ForkStreamsAreIndependentAndDeterministic) {
  Rng a(29), b(29);
  Rng fa = a.Fork(1);
  Rng fb = b.Fork(1);
  EXPECT_EQ(fa.Next(), fb.Next());
  Rng f2 = b.Fork(2);
  EXPECT_NE(a.Fork(1).Next(), f2.Next());
}

TEST(RngTest, SplitMix64IsStable) {
  // Pinned values guard against accidental algorithm changes that would
  // silently change every experiment.
  EXPECT_EQ(SplitMix64(0), 16294208416658607535ULL);
  EXPECT_EQ(SplitMix64(1), 10451216379200822465ULL);
}

// ----------------------------------------------------------------- Stats

TEST(StatsTest, MeanAndStdDev) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
}

TEST(StatsTest, MeanOfEmptyIsZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(StdDev({}), 0.0);
}

TEST(StatsTest, SummarizeQuartiles) {
  DistributionSummary s = Summarize({1, 2, 3, 4, 5});
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.q1, 2);
  EXPECT_DOUBLE_EQ(s.median, 3);
  EXPECT_DOUBLE_EQ(s.q3, 4);
  EXPECT_DOUBLE_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3);
  EXPECT_EQ(s.count, 5u);
}

TEST(StatsTest, SummarizeSingleValue) {
  DistributionSummary s = Summarize({7});
  EXPECT_DOUBLE_EQ(s.min, 7);
  EXPECT_DOUBLE_EQ(s.max, 7);
  EXPECT_DOUBLE_EQ(s.median, 7);
}

TEST(StatsTest, SummarizeEmpty) {
  DistributionSummary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0);
}

TEST(StatsTest, PerfectPositiveCorrelation) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(RSquaredLinear(x, y), 1.0, 1e-12);
}

TEST(StatsTest, PerfectNegativeCorrelation) {
  std::vector<double> x{1, 2, 3, 4};
  std::vector<double> y{8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y), -1.0, 1e-12);
}

TEST(StatsTest, ZeroVarianceGivesZeroCorrelation) {
  std::vector<double> x{1, 1, 1};
  std::vector<double> y{1, 2, 3};
  EXPECT_EQ(PearsonCorrelation(x, y), 0.0);
}

TEST(StatsTest, MismatchedSizesGiveZero) {
  EXPECT_EQ(PearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
}

TEST(StatsTest, LinearFitRecoversLine) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 + 2.0 * xi);
  LinearFit fit = FitLinear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 3.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(StatsTest, MaxOverMeanBalance) {
  EXPECT_DOUBLE_EQ(MaxOverMean({10, 10, 10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(MaxOverMean({20, 10, 10, 0}), 2.0);
  EXPECT_EQ(MaxOverMean({}), 0.0);
}

// ----------------------------------------------------------------- Table

TEST(TableTest, PrintsHeaderAndRows) {
  TablePrinter t({"a", "bb"});
  t.AddRow({"1", "2"});
  t.AddRow({"333"});
  std::ostringstream os;
  t.Print(os);
  std::string out = os.str();
  EXPECT_NE(out.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(out.find("| 333 |    |"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(TablePrinter::Fmt(1.2345, 2), "1.23");
  EXPECT_EQ(TablePrinter::Fmt(2.0, 0), "2");
}

}  // namespace
}  // namespace gnnpart
