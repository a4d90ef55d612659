#include <gtest/gtest.h>

#include "util/date.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/str.h"

namespace recycledb {
namespace {

TEST(DateTest, EpochIsZero) { EXPECT_EQ(DateFromYmd(1970, 1, 1), 0); }

TEST(DateTest, RoundTrip) {
  for (int y : {1992, 1996, 1998, 2000, 2024}) {
    for (int m : {1, 2, 6, 12}) {
      for (int d : {1, 15, 28}) {
        DateT dt = DateFromYmd(y, m, d);
        int yy, mm, dd;
        YmdFromDate(dt, &yy, &mm, &dd);
        EXPECT_EQ(yy, y);
        EXPECT_EQ(mm, m);
        EXPECT_EQ(dd, d);
      }
    }
  }
}

TEST(DateTest, Ordering) {
  EXPECT_LT(DateFromYmd(1996, 7, 1), DateFromYmd(1996, 10, 1));
  EXPECT_LT(DateFromYmd(1995, 12, 31), DateFromYmd(1996, 1, 1));
}

TEST(DateTest, AddMonths) {
  DateT d = DateFromYmd(1996, 7, 1);
  EXPECT_EQ(AddMonths(d, 3), DateFromYmd(1996, 10, 1));
  EXPECT_EQ(AddMonths(d, 6), DateFromYmd(1997, 1, 1));
  EXPECT_EQ(AddMonths(d, -7), DateFromYmd(1995, 12, 1));
}

TEST(DateTest, AddMonthsClampsDay) {
  EXPECT_EQ(AddMonths(DateFromYmd(1996, 1, 31), 1), DateFromYmd(1996, 2, 29));
  EXPECT_EQ(AddMonths(DateFromYmd(1997, 1, 31), 1), DateFromYmd(1997, 2, 28));
}

TEST(DateTest, Leap) {
  EXPECT_EQ(DateFromYmd(1996, 3, 1) - DateFromYmd(1996, 2, 1), 29);
  EXPECT_EQ(DateFromYmd(1997, 3, 1) - DateFromYmd(1997, 2, 1), 28);
}

TEST(DateTest, Strings) {
  EXPECT_EQ(DateToString(DateFromYmd(1996, 7, 1)), "1996-07-01");
  EXPECT_EQ(DateFromString("1996-07-01"), DateFromYmd(1996, 7, 1));
  EXPECT_EQ(DateFromString("bogus"), INT32_MIN);
  EXPECT_EQ(DateFromString("1996-13-01"), INT32_MIN);
}

TEST(DateTest, StringRoundTripEveryDay) {
  const DateT first = DateFromYmd(1992, 1, 1);
  const DateT last = DateFromYmd(1998, 12, 31);
  for (DateT d = first; d <= last; ++d)
    ASSERT_EQ(DateFromString(DateToString(d)), d) << DateToString(d);
  for (int y : {1900, 2000, 2024}) {
    for (DateT d = DateFromYmd(y, 2, 27); d <= DateFromYmd(y, 3, 1); ++d)
      EXPECT_EQ(DateFromString(DateToString(d)), d) << DateToString(d);
  }
}

TEST(DateTest, LeapDayEdges) {
  EXPECT_EQ(DateFromString("1900-02-29"), INT32_MIN);  // century, not leap
  EXPECT_EQ(DateFromString("2000-02-29"), DateFromYmd(2000, 2, 29));
  EXPECT_EQ(DateFromString("2024-02-29"), DateFromYmd(2024, 2, 29));
  EXPECT_EQ(DateFromString("2023-02-29"), INT32_MIN);
  EXPECT_EQ(DateFromString("2024-02-30"), INT32_MIN);
}

TEST(DateTest, StringsAreExactlyYyyyMmDd) {
  for (const char* bad :
       {"1994-01-01junk", "1994-01-01 12:00", "1994-1-1", " +1994-01-01",
        "+1994-01-01", "1994-01-1", "94-01-01", "01994-01-01", "1994/01/01",
        "1994-01-0x", "1994-00-01", "1994-01-00", "1994-04-31", "", "-"})
    EXPECT_EQ(DateFromString(bad), INT32_MIN) << bad;
  EXPECT_EQ(DateFromString("0001-01-01"), DateFromYmd(1, 1, 1));
  EXPECT_EQ(DateFromString("9999-12-31"), DateFromYmd(9999, 12, 31));
}

TEST(LikeTest, Basics) {
  EXPECT_TRUE(LikeMatch("hello", "hello"));
  EXPECT_FALSE(LikeMatch("hello", "help"));
  EXPECT_TRUE(LikeMatch("hello", "h%"));
  EXPECT_TRUE(LikeMatch("hello", "%o"));
  EXPECT_TRUE(LikeMatch("hello", "%ell%"));
  EXPECT_TRUE(LikeMatch("hello", "h_llo"));
  EXPECT_FALSE(LikeMatch("hello", "h_lo"));
  EXPECT_TRUE(LikeMatch("", "%"));
  EXPECT_FALSE(LikeMatch("", "_"));
  EXPECT_TRUE(LikeMatch("PROMO BURNISHED", "PROMO%"));
  EXPECT_FALSE(LikeMatch("STANDARD POLISHED", "PROMO%"));
  EXPECT_TRUE(LikeMatch("special requests against", "%special%requests%"));
}

TEST(LikeTest, BacktrackHeavy) {
  EXPECT_TRUE(LikeMatch("aaaaaaab", "%a_b"));
  EXPECT_FALSE(LikeMatch("aaaaaaaa", "%a_b"));
  EXPECT_TRUE(LikeMatch("mississippi", "%ss%pp%"));
}

TEST(StrFormatTest, Formats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformRangeBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformRange(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    double v = r.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::NotFound("missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing");
}

TEST(ResultTest, ValueAndError) {
  Result<int> r(7);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 7);
  Result<int> e(Status::Internal("boom"));
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kInternal);
}

Result<int> Half(int x) {
  if (x % 2) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  RDB_ASSIGN_OR_RETURN(int h, Half(x));
  RDB_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(7).ok());
}

}  // namespace
}  // namespace recycledb
