// Tests for the util module: text helpers, tables, rng, memory meter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "dbm/dbm.h"
#include "util/memory_meter.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "util/text.h"
#include "util/thread_pool.h"

namespace tigat::util {
namespace {

TEST(Text, JoinAndSplit) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, " && "), "a && b && c");
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Text, Trim) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, StartsWith) {
  EXPECT_TRUE(starts_with("control: A<> p", "control:"));
  EXPECT_FALSE(starts_with("ctl", "control:"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Text, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 1.234), "1.23");
  EXPECT_EQ(format("empty"), "empty");
}

TEST(Text, ParseIntIsStrict) {
  EXPECT_EQ(parse_int<int>("42"), 42);
  EXPECT_EQ(parse_int<int>("-7"), -7);
  EXPECT_EQ(parse_int<unsigned>("0", 0u, 8u), 0u);
  EXPECT_EQ(parse_int<unsigned>("8", 0u, 8u), 8u);
  EXPECT_EQ(parse_int<unsigned>("9", 0u, 8u), std::nullopt);
  EXPECT_EQ(parse_int<unsigned>("-1"), std::nullopt);
  EXPECT_EQ(parse_int<long>("-1", 0L), std::nullopt);
  EXPECT_EQ(parse_int<int>(""), std::nullopt);
  EXPECT_EQ(parse_int<int>("abc"), std::nullopt);
  EXPECT_EQ(parse_int<int>("1x"), std::nullopt);
  EXPECT_EQ(parse_int<int>(" 1"), std::nullopt);
  EXPECT_EQ(parse_int<int>("+1"), std::nullopt);
  EXPECT_EQ(parse_int<int>("99999999999"), std::nullopt);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Text, ParseDoubleIsStrict) {
  EXPECT_EQ(parse_double("2.5", 0.0, 10.0), 2.5);
  EXPECT_EQ(parse_double("0", 0.0, 10.0), 0.0);
  EXPECT_EQ(parse_double("1e1", 0.0, 10.0), 10.0);
  EXPECT_EQ(parse_double("10.5", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("-1", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("abc", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("1s", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double(" 1", 0.0, 10.0), std::nullopt);
  EXPECT_EQ(parse_double("nan", 0.0, 10.0), std::nullopt);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_double("inf", -inf, inf), std::nullopt);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string s = t.to_string();
  // Header, separator, two rows.
  EXPECT_EQ(split(s, '\n').size(), 5u);  // + trailing empty
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("12345"), std::string::npos);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, RangeIsInclusiveAndCovers) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 400; ++i) {
    const auto v = rng.range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, Uniform01InRange) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(MemoryMeter, TracksCurrentAndPeak) {
  MemoryMeter m;
  m.add(100);
  m.add(50);
  EXPECT_EQ(m.current(), 150u);
  EXPECT_EQ(m.peak(), 150u);
  m.sub(120);
  EXPECT_EQ(m.current(), 30u);
  EXPECT_EQ(m.peak(), 150u);
  m.add(10);
  EXPECT_EQ(m.peak(), 150u);  // peak unchanged below high-water
  m.reset_peak();
  EXPECT_EQ(m.peak(), 40u);
  m.reset();
  EXPECT_EQ(m.current(), 0u);
  EXPECT_EQ(m.peak(), 0u);
}

TEST(MemoryMeter, SubClampsAtZero) {
  MemoryMeter m;
  m.add(5);
  m.sub(50);
  EXPECT_EQ(m.current(), 0u);
}

// The zone layer's per-thread accounting: four pool workers construct
// zones, then free them in a different assignment (a worker frees
// zones others built, whose bytes those others may not have flushed).
// Whenever parallel_for has returned the meter is exact.
TEST(MemoryMeter, ZoneBytesAreExactAfterEveryParallelJob) {
  constexpr std::size_t kZones = 20000;  // ~60 granules of bytes
  const std::size_t baseline = zone_memory().current();
  const std::size_t per_zone = dbm::Dbm::universal(4).memory_bytes();
  EXPECT_EQ(zone_memory().current(), baseline);
  std::vector<std::unique_ptr<dbm::Dbm>> zones(kZones);
  ThreadPool pool(4);
  ASSERT_EQ(pool.worker_count(), 4u);
  pool.parallel_for(kZones, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Copies and moves on the way, as the solver makes them.
      dbm::Dbm z = dbm::Dbm::universal(4);
      zones[i] = std::make_unique<dbm::Dbm>(dbm::Dbm(z));
    }
  });
  EXPECT_EQ(zone_memory().current(), baseline + kZones * per_zone);
  EXPECT_GE(zone_memory().peak(), baseline + kZones * per_zone);
  pool.parallel_for(kZones, 1000, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) zones[kZones - 1 - i].reset();
  });
  EXPECT_EQ(zone_memory().current(), baseline);
}

TEST(MemoryMeter, MebibyteConversion) {
  EXPECT_DOUBLE_EQ(to_mebibytes(1 << 20), 1.0);
  EXPECT_DOUBLE_EQ(to_mebibytes(0), 0.0);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  // Just sanity: non-negative and monotone.
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.restart();
  EXPECT_GE(w.seconds(), 0.0);
}

}  // namespace
}  // namespace tigat::util
