// Unit tests for src/base: time, units, result, rng, stats, strings, logging,
// and the id-keyed table.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/id_table.h"
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


// --- IdTable ------------------------------------------------------------------

// Applies a stream of finds, inserts and erases to an IdTable and to
// std::unordered_map, and after every operation compares the size and every
// id the stream has touched; every 64 operations ForEach must visit exactly
// the reference's entries, each once.
class IdTableDifferential {
 public:
  void Insert(int64_t id, int value) {
    auto [got, inserted] = table_.TryEmplace(id, value);
    auto [want, want_inserted] = reference_.try_emplace(id, value);
    ASSERT_EQ(inserted, want_inserted) << "id " << id;
    ASSERT_EQ(*got, want->second) << "id " << id;
    Touch(id);
  }
  void Erase(int64_t id) {
    ASSERT_EQ(table_.Erase(id), reference_.erase(id) == 1) << "id " << id;
    Touch(id);
  }
  void Find(int64_t id) {
    Touch(id);
  }
  bool Has(int64_t id) const { return reference_.contains(id); }
  size_t size() const { return reference_.size(); }

 private:
  void Touch(int64_t id) {
    if (seen_.try_emplace(id, true).second) {
      touched_.push_back(id);
    }
    ASSERT_EQ(table_.size(), reference_.size());
    for (int64_t t : touched_) {
      auto it = reference_.find(t);
      const int* got = table_.Find(t);
      if (it == reference_.end()) {
        ASSERT_EQ(got, nullptr) << "id " << t;
      } else {
        ASSERT_NE(got, nullptr) << "id " << t;
        ASSERT_EQ(*got, it->second) << "id " << t;
      }
    }
    if (++ops_ % 64 == 0) {
      std::vector<std::pair<int64_t, int>> visited;
      table_.ForEach([&](int64_t k, const int& v) { visited.emplace_back(k, v); });
      std::vector<std::pair<int64_t, int>> want(reference_.begin(), reference_.end());
      std::sort(visited.begin(), visited.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(visited, want);
    }
  }

  IdTable<int> table_;
  std::unordered_map<int64_t, int> reference_;
  std::unordered_map<int64_t, bool> seen_;
  std::vector<int64_t> touched_;
  int64_t ops_ = 0;
};

// The simulator's pattern: ids issued in increasing order, erased in random
// order, with lookups of live, erased and never-issued ids.
TEST(IdTableTest, MatchesUnorderedMapOnIncreasingIdsErasedAtRandom) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    IdTableDifferential diff;
    std::vector<int64_t> live;
    int64_t next_id = 1;
    for (int op = 0; op < 1500; ++op) {
      int64_t dice = rng.Uniform(0, 9);
      if (dice < 5 || live.empty()) {
        live.push_back(next_id);
        diff.Insert(next_id++, static_cast<int>(rng.Uniform(0, 1000)));
      } else if (dice < 9) {
        size_t pick = static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
        diff.Erase(live[pick]);
        live[pick] = live.back();
        live.pop_back();
      } else {
        diff.Find(rng.Uniform(0, next_id + 5));
      }
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Arbitrary 64-bit ids, negative ones included, with repeated inserts and
// erases of ids already present or absent.
TEST(IdTableTest, MatchesUnorderedMapOnRandom64BitIds) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    IdTableDifferential diff;
    std::vector<int64_t> used;
    for (int op = 0; op < 1500; ++op) {
      int64_t id = !used.empty() && rng.Chance(0.4)
                       ? used[static_cast<size_t>(
                             rng.Uniform(0, static_cast<int64_t>(used.size()) - 1))]
                       : static_cast<int64_t>(rng.engine()());
      used.push_back(id);
      int64_t dice = rng.Uniform(0, 2);
      if (dice == 0) {
        diff.Insert(id, static_cast<int>(rng.Uniform(0, 1000)));
      } else if (dice == 1) {
        diff.Erase(id);
      } else {
        diff.Find(id);
      }
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// Every id here hashes to the last slot of any table up to 1024 slots, so
// the probe run starts at the end of the slot array and wraps to its front:
// lookups, growth and the backward shift of an erase all cross the wrap.
TEST(IdTableTest, MatchesUnorderedMapWhenProbeRunsWrap) {
  // id * kMultiplier == h (mod 2^64) for id = h * inverse.
  uint64_t inverse = IdTable<int>::kMultiplier;
  for (int i = 0; i < 6; ++i) {
    inverse *= 2 - IdTable<int>::kMultiplier * inverse;
  }
  ASSERT_EQ(inverse * IdTable<int>::kMultiplier, 1u);
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    IdTableDifferential diff;
    std::vector<int64_t> ids;
    for (int i = 0; i < 300; ++i) {
      uint64_t top_slot = (uint64_t{0x3ff} << 54) | (rng.engine()() >> 10);
      ids.push_back(static_cast<int64_t>(top_slot * inverse));
    }
    for (int op = 0; op < 1500; ++op) {
      int64_t id = ids[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(ids.size()) - 1))];
      if (rng.Chance(0.55)) {
        diff.Insert(id, op);
      } else {
        diff.Erase(id);
      }
      if (HasFatalFailure()) {
        return;
      }
    }
  }
}

// A value's address survives growth and the erasure of its neighbours.
TEST(IdTableTest, ValuesStayPutThroughGrowthAndErasure) {
  IdTable<std::vector<int>> table;
  std::vector<int>* held = table.TryEmplace(7, std::vector<int>{1, 2, 3}).first;
  for (int64_t id = 8; id < 2000; ++id) {
    table[id].push_back(static_cast<int>(id));
  }
  for (int64_t id = 8; id < 2000; id += 2) {
    ASSERT_TRUE(table.Erase(id));
  }
  for (int64_t id = 2000; id < 3000; ++id) {
    table[id].push_back(static_cast<int>(id));
  }
  EXPECT_EQ(table.Find(7), held);
  EXPECT_EQ(*held, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(table.size(), 1u + 996u + 1000u);
  EXPECT_FALSE(table.TryEmplace(7, std::vector<int>{9}).second);
  EXPECT_EQ(*held, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace lv
