// Tests for the utility layer: exact picosecond time, clock units, string
// helpers, phase timers and the storage ledger.
#include <limits>

#include <gtest/gtest.h>

#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace tv {
namespace {

TEST(TimeUtil, NsConversionIsExact) {
  EXPECT_EQ(from_ns(1.0), 1000);
  EXPECT_EQ(from_ns(0.5), 500);
  EXPECT_EQ(from_ns(6.25), 6250);
  EXPECT_EQ(from_ns(-1.0), -1000);
  EXPECT_DOUBLE_EQ(to_ns(from_ns(47.5)), 47.5);
  // Half-cycle of round-tripping at the thesis' 0.5 ns resolution.
  for (double v = 0.0; v < 100.0; v += 0.5) {
    EXPECT_DOUBLE_EQ(to_ns(from_ns(v)), v);
  }
}

TEST(TimeUtil, FloorModIsAlwaysNonNegative) {
  EXPECT_EQ(floor_mod(7, 5), 2);
  EXPECT_EQ(floor_mod(-1, 5), 4);
  EXPECT_EQ(floor_mod(-11, 5), 4);
  EXPECT_EQ(floor_mod(0, 5), 0);
  EXPECT_EQ(floor_mod(10, 5), 0);
  for (Time a = -20; a <= 20; ++a) {
    Time r = floor_mod(a, 7);
    EXPECT_GE(r, 0);
    EXPECT_LT(r, 7);
    EXPECT_EQ(floor_mod(r - a, 7), 0);  // congruence
  }
}

TEST(TimeUtil, FormatNsMatchesListings) {
  EXPECT_EQ(format_ns(from_ns(11.5)), "11.5");
  EXPECT_EQ(format_ns(from_ns(49.0)), "49.0");
  EXPECT_EQ(format_ns(from_ns(0)), "0.0");
  EXPECT_EQ(format_ns(from_ns(3.5)), "3.5");
  EXPECT_EQ(format_ns(from_ns(6.25)), "6.250");  // sub-0.1 precision kept
  EXPECT_EQ(format_ns(from_ns(-1.0)), "-1.0");
}

TEST(TimeUtil, ClockUnits) {
  ClockUnits u = ClockUnits::from_ns_per_unit(6.25);
  EXPECT_EQ(u.to_time(8.0), from_ns(50.0));
  EXPECT_EQ(u.to_time(2.0), from_ns(12.5));
  EXPECT_EQ(u.to_time(0.5), from_ns(3.125));
  EXPECT_DOUBLE_EQ(u.from_time(from_ns(50.0)), 8.0);
}

TEST(TimeUtil, DeadlineSaturatesInsteadOfOverflowing) {
  EXPECT_TRUE(Deadline::after_seconds(0).expired());
  EXPECT_FALSE(Deadline::after_seconds(3600).expired());
  // Budgets past the nanosecond clock's ~292-year range must saturate, not
  // wrap into the past and expire at once.
  for (double s : {1e9, 1e10, 1e12, 1e300, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    Deadline d = Deadline::after_seconds(s);
    EXPECT_TRUE(d.armed()) << s;
    EXPECT_FALSE(d.expired()) << s;
  }
}

TEST(Strings, TrimAndSplit) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n"), "");
  auto parts = split("2-3,5-6,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "2-3");
  EXPECT_EQ(parts[2], "");
  EXPECT_TRUE(starts_with("CLOCK", "CLO"));
  EXPECT_FALSE(starts_with("CL", "CLO"));
}

TEST(Strings, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(parse_double("6.25", v));
  EXPECT_DOUBLE_EQ(v, 6.25);
  EXPECT_TRUE(parse_double("-1.0", v));
  EXPECT_DOUBLE_EQ(v, -1.0);
  EXPECT_TRUE(parse_double("  42 ", v));
  EXPECT_FALSE(parse_double("4.5x", v));
  EXPECT_FALSE(parse_double("", v));
  EXPECT_EQ(upper("abC dEf"), "ABC DEF");
}

TEST(Stats, PhaseTimerAccumulatesPhases) {
  PhaseTimer t;
  t.start("a");
  t.stop();
  t.start("b");  // implicit stop of a running phase is allowed
  t.start("c");
  t.stop();
  ASSERT_EQ(t.phases().size(), 3u);
  EXPECT_EQ(t.phases()[0].first, "a");
  EXPECT_EQ(t.phases()[2].first, "c");
  EXPECT_GE(t.total_seconds(), 0.0);
}

TEST(Stats, StorageLedgerPercentages) {
  StorageLedger ledger;
  ledger.add("A", 750);
  ledger.add("B", 250);
  ledger.add("A", 250);  // accumulates
  EXPECT_EQ(ledger.total(), 1250u);
  std::string table = ledger.to_table();
  EXPECT_NE(table.find("A"), std::string::npos);
  EXPECT_NE(table.find("80.0%"), std::string::npos);
  EXPECT_NE(table.find("20.0%"), std::string::npos);
  EXPECT_NE(table.find("TOTAL"), std::string::npos);
}

}  // namespace
}  // namespace tv
