// Unit tests for src/base: time, units, result, rng, stats, strings, logging.
#include <gtest/gtest.h>

#include "src/base/log.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/stats.h"
#include "src/base/strings.h"
#include "src/base/time.h"
#include "src/base/units.h"

namespace lv {
namespace {

TEST(DurationTest, FactoriesAndAccessors) {
  EXPECT_EQ(Duration::Nanos(5).ns(), 5);
  EXPECT_EQ(Duration::Micros(3).ns(), 3000);
  EXPECT_EQ(Duration::Millis(2).ns(), 2000000);
  EXPECT_EQ(Duration::Seconds(1).ns(), 1000000000);
  EXPECT_DOUBLE_EQ(Duration::Millis(2).ms(), 2.0);
  EXPECT_DOUBLE_EQ(Duration::Micros(1500).ms(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::MillisF(2.3).ms(), 2.3);
}

TEST(DurationTest, Arithmetic) {
  Duration a = Duration::Millis(10);
  Duration b = Duration::Millis(4);
  EXPECT_EQ((a + b).ms(), 14.0);
  EXPECT_EQ((a - b).ms(), 6.0);
  EXPECT_EQ((a * 3).ms(), 30.0);
  EXPECT_EQ((a / 2).ms(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
  a += b;
  EXPECT_EQ(a.ms(), 14.0);
  EXPECT_LT(b, a);
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Nanos(12).ToString(), "12ns");
  EXPECT_EQ(Duration::Micros(450).ToString(), "450us");
  EXPECT_EQ(Duration::MillisF(2.3).ToString(), "2.3ms");
  EXPECT_EQ(Duration::Seconds(42).ToString(), "42s");
}

TEST(TimePointTest, Ordering) {
  TimePoint t0;
  TimePoint t1 = t0 + Duration::Millis(5);
  EXPECT_LT(t0, t1);
  EXPECT_EQ((t1 - t0).ms(), 5.0);
  EXPECT_EQ((t1 - Duration::Millis(5)), t0);
}

TEST(BytesTest, FactoriesAndConversions) {
  EXPECT_EQ(Bytes::KiB(1).count(), 1024);
  EXPECT_EQ(Bytes::MiB(1).count(), 1024 * 1024);
  EXPECT_DOUBLE_EQ(Bytes::MiB(9).mib(), 9.0);
  EXPECT_DOUBLE_EQ(Bytes::GiB(1).gib(), 1.0);
  EXPECT_EQ(Bytes::KiBF(0.5).count(), 512);
}

TEST(BytesTest, PagesFor) {
  EXPECT_EQ(PagesFor(Bytes::Count(0)), 0);
  EXPECT_EQ(PagesFor(Bytes::Count(1)), 1);
  EXPECT_EQ(PagesFor(Bytes::KiB(4)), 1);
  EXPECT_EQ(PagesFor(Bytes::KiB(4) + Bytes::Count(1)), 2);
  EXPECT_EQ(PagesFor(Bytes::MiB(1)), 256);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.code(), ErrorCode::kOk);

  Result<int> bad = Err(ErrorCode::kNotFound, "no such domain");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kNotFound);
  EXPECT_EQ(bad.error().ToString(), "NOT_FOUND: no such domain");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(ResultTest, StatusOkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status bad = Err(ErrorCode::kConflict, "transaction retry");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kConflict);
}

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000000), b.Uniform(0, 1000000));
  }
}

TEST(RngTest, UniformBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.Add(rng.Exponential(Duration::Millis(10)).ms());
  }
  EXPECT_NEAR(acc.mean(), 10.0, 0.5);
}

TEST(RngTest, NormalTruncatesAtMin) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    Duration d = rng.Normal(Duration::Millis(1), Duration::Millis(5), Duration::Micros(100));
    EXPECT_GE(d.ns(), Duration::Micros(100).ns());
  }
}

TEST(AccumulatorTest, Moments) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.Add(x);
  }
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);
}

TEST(SamplesTest, Quantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(s.Median(), 50.5);
  EXPECT_NEAR(s.Quantile(0.9), 90.1, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(SamplesTest, CdfMonotone) {
  Samples s;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    s.Add(rng.UniformReal(0, 100));
  }
  auto cdf = s.Cdf(20);
  ASSERT_EQ(cdf.size(), 20u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GT(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(TimeSeriesTest, StepFunction) {
  TimeSeries ts;
  TimePoint t0;
  ts.Record(t0 + Duration::Millis(10), 1);
  ts.Record(t0 + Duration::Millis(20), 3);
  ts.Record(t0 + Duration::Millis(30), 2);
  EXPECT_DOUBLE_EQ(ts.At(t0), 0.0);
  EXPECT_DOUBLE_EQ(ts.At(t0 + Duration::Millis(15)), 1.0);
  EXPECT_DOUBLE_EQ(ts.At(t0 + Duration::Millis(25)), 3.0);
  EXPECT_DOUBLE_EQ(ts.At(t0 + Duration::Millis(35)), 2.0);
  EXPECT_DOUBLE_EQ(ts.MaxValue(), 3.0);
}

TEST(StringsTest, SplitDropsEmptyTokens) {
  EXPECT_EQ(Split("/local/domain/3", '/'),
            (std::vector<std::string>{"local", "domain", "3"}));
  EXPECT_EQ(Split("/local//domain//", '/'), (std::vector<std::string>{"local", "domain"}));
  EXPECT_TRUE(Split("", '/').empty());
  EXPECT_TRUE(Split("///", '/').empty());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, '/'), "a/b/c");
  EXPECT_EQ(Join({}, '/'), "");
  EXPECT_EQ(Join({"x"}, '/'), "x");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("dom%d: %s", 3, "running"), "dom3: running");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
  // Results that just fit the one-pass buffer, just miss it, and far exceed it.
  for (size_t len : {255, 256, 1000}) {
    std::string body(len - 1, 'x');
    EXPECT_EQ(StrFormat("%s!", body.c_str()), body + "!");
    EXPECT_EQ(StrFormat("%*d", static_cast<int>(len), 7), std::string(len - 1, ' ') + "7");
  }
}

TEST(StringsTest, HasPrefix) {
  EXPECT_TRUE(HasPrefix("/local/domain/3/device", "/local/domain/3"));
  EXPECT_FALSE(HasPrefix("/local", "/local/domain"));
}

// Lines below the level are dropped; with a clock attached each line carries
// its simulated timestamp, and after DetachClock it carries none.
TEST(LoggerTest, LinesCarryTheAttachedClockAndRespectTheLevel) {
  Logger& logger = Logger::Get();
  const LogLevel saved = logger.level();
  logger.set_level(LogLevel::kInfo);
  Duration now = Duration::Micros(2500);
  logger.AttachClock(
      [](void* ctx) { return TimePoint() + *static_cast<Duration*>(ctx); }, &now);
  testing::internal::CaptureStderr();
  LV_INFO("clocktest", "hello %d", 7);
  LV_DEBUG("clocktest", "filtered");
  logger.DetachClock();
  LV_WARN("clocktest", "plain");
  std::string err = testing::internal::GetCapturedStderr();
  logger.set_level(saved);
  EXPECT_EQ(err,
            "[    2.500000ms] INFO  clocktest  hello 7\n"
            "WARN  clocktest  plain\n");
}

}  // namespace
}  // namespace lv
