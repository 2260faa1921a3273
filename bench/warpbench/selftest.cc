// Unit checks of the benchmark's own math: quantiles, the open-loop arrival
// schedule, refused requests in tail latency, and the target crossing. The
// run-to-run spread is compare.py's and is checked by selftest.py.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "bench/warpbench/harness.h"
#include "bench/warpbench/sweeps.h"

namespace warpbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_TRUE(std::isnan(Quantile({}, 0.5)));
}

TEST(Quantile, RefusedRequestsCountAsInfiniteLatency) {
  // 1000 requests, 1% refused: p99 falls on the refused ones.
  std::vector<double> latency;
  for (int i = 0; i < 990; ++i) latency.push_back(1.0 + i * 0.001);
  for (int i = 0; i < 10; ++i) latency.push_back(kInf);
  EXPECT_TRUE(std::isinf(Quantile(latency, 0.99)));
  EXPECT_FALSE(std::isinf(Quantile(latency, 0.5)));
  // One refusal in a thousand does not reach p99.
  latency.assign(999, 2.0);
  latency.push_back(kInf);
  EXPECT_DOUBLE_EQ(Quantile(latency, 0.99), 2.0);
}

TEST(PoissonSchedule, ReproducibleFromSeed) {
  const std::vector<RateStep> steps = {{200.0, 2.0}, {400.0, 2.0}};
  const std::vector<double> a = PoissonSchedule(steps, 7);
  EXPECT_EQ(a, PoissonSchedule(steps, 7));
  EXPECT_NE(a, PoissonSchedule(steps, 8));
  for (size_t i = 1; i < a.size(); ++i) ASSERT_LT(a[i - 1], a[i]);
  ASSERT_FALSE(a.empty());
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 4.0);
}

TEST(PoissonSchedule, MeanRateWithinTwoPercentPerStep) {
  const std::vector<RateStep> steps = {{400.0, 100.0}, {800.0, 100.0}};
  for (uint64_t seed : {1, 2, 3}) {
    const std::vector<double> due = PoissonSchedule(steps, seed);
    size_t first = 0;
    while (first < due.size() && due[first] < 100.0) ++first;
    EXPECT_NEAR(first / 100.0, 400.0, 8.0) << "seed " << seed;
    EXPECT_NEAR((due.size() - first) / 100.0, 800.0, 16.0) << "seed " << seed;
  }
}

TEST(CrossingSweep, InterpolatesBetweenEvaluations) {
  const std::vector<double> ll = {-10.0, -9.0, -8.0};
  EXPECT_DOUBLE_EQ(CrossingSweep(ll, -8.5), 1.5);
  EXPECT_DOUBLE_EQ(CrossingSweep(ll, -9.0), 1.0);
  EXPECT_DOUBLE_EQ(CrossingSweep(ll, -10.0), 0.0);
  EXPECT_DOUBLE_EQ(CrossingSweep(ll, -7.0), -1.0);
}

TEST(SecondsToSweep, SumsMeasuredSweepsUpToTheCrossing) {
  const std::vector<double> seconds = {1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(SecondsToSweep(seconds, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(SecondsToSweep(seconds, 0.5), 0.5);
  EXPECT_DOUBLE_EQ(SecondsToSweep(seconds, 2.25), 4.0);
  EXPECT_DOUBLE_EQ(SecondsToSweep(seconds, 3.0), 7.0);
  EXPECT_DOUBLE_EQ(SecondsToSweep(seconds, 3.5), -1.0);
  EXPECT_DOUBLE_EQ(SecondsToSweep(seconds, -1.0), -1.0);
}

}  // namespace
}  // namespace warpbench
