#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>
#include <unordered_set>

#include "livesim/stats/csv.h"
#include "livesim/util/fingerprint.h"
#include "livesim/util/ids.h"
#include "livesim/util/json_writer.h"
#include "livesim/util/time.h"

namespace livesim {
namespace {

TEST(Time, ConversionRoundTrips) {
  EXPECT_EQ(time::from_seconds(1.5), 1'500'000);
  EXPECT_EQ(time::from_millis(2.5), 2'500);
  EXPECT_DOUBLE_EQ(time::to_seconds(3 * time::kSecond), 3.0);
  EXPECT_DOUBLE_EQ(time::to_millis(time::kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(time::to_seconds(time::from_seconds(12.345)), 12.345);
}

TEST(Time, UnitRelations) {
  EXPECT_EQ(time::kSecond, 1000 * time::kMillisecond);
  EXPECT_EQ(time::kMinute, 60 * time::kSecond);
  EXPECT_EQ(time::kHour, 60 * time::kMinute);
  EXPECT_EQ(time::kDay, 24 * time::kHour);
}

TEST(Time, DayIndex) {
  EXPECT_EQ(time::day_index(0), 0);
  EXPECT_EQ(time::day_index(time::kDay - 1), 0);
  EXPECT_EQ(time::day_index(time::kDay), 1);
  EXPECT_EQ(time::day_index(10 * time::kDay + 5), 10);
}

TEST(Ids, DefaultIsInvalid) {
  BroadcastId id;
  EXPECT_FALSE(id.valid());
  EXPECT_TRUE(BroadcastId{7}.valid());
}

TEST(Ids, ComparisonAndOrdering) {
  EXPECT_EQ(UserId{3}, UserId{3});
  EXPECT_NE(UserId{3}, UserId{4});
  EXPECT_LT(UserId{3}, UserId{4});
}

TEST(Ids, TypesAreDistinct) {
  // Compile-time property: BroadcastId and UserId do not interconvert.
  static_assert(!std::is_convertible_v<BroadcastId, UserId>);
  static_assert(!std::is_convertible_v<std::uint64_t, BroadcastId>);
}

TEST(Ids, Hashable) {
  std::unordered_set<DatacenterId> set;
  set.insert(DatacenterId{1});
  set.insert(DatacenterId{2});
  set.insert(DatacenterId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Fingerprint, EmptyMixerIsTheBasis) {
  EXPECT_EQ(Fingerprint{}.value(), 0xcbf29ce484222325ULL);
}

TEST(Fingerprint, FixedSequenceMatchesHandComputedFnv1a) {
  // Word-at-a-time FNV-1a over {1, bits(2.5) = 0x4004000000000000,
  // 0xdeadbeef, bits(-0.0) = 0x8000000000000000}, computed offline.
  Fingerprint fp;
  fp.mix(1).mix_double(2.5).mix(0xdeadbeefULL).mix_double(-0.0);
  EXPECT_EQ(fp.value(), 0xc1f1fcf5c4e729e3ULL);
  // Position-sensitive: the same words in another order hash elsewhere.
  Fingerprint swapped;
  swapped.mix_double(2.5).mix(1).mix(0xdeadbeefULL).mix_double(-0.0);
  EXPECT_NE(swapped.value(), fp.value());
}

TEST(Fingerprint, MixDoubleIsMixOfTheBitPattern) {
  for (double x : {0.0, -0.0, 1.0, -2.75, 1e-300, 6.02e23}) {
    Fingerprint a, b;
    a.mix(7).mix_double(x);
    b.mix(7).mix(std::bit_cast<std::uint64_t>(x));
    EXPECT_EQ(a.value(), b.value()) << x;
  }
  Fingerprint pos, neg;
  EXPECT_NE(pos.mix_double(0.0).value(), neg.mix_double(-0.0).value());
}

TEST(Csv, RendersHeaderAndRows) {
  stats::CsvWriter w({"x", "rtmp", "hls"});
  w.add_row({0.0, 0.1, 0.2});
  w.add_row({1.0, 0.5, 0.25});
  const std::string text = w.render();
  EXPECT_EQ(text, "x,rtmp,hls\n0,0.1,0.2\n1,0.5,0.25\n");
}

TEST(Csv, RejectsBadShape) {
  EXPECT_THROW(stats::CsvWriter({}), std::invalid_argument);
  stats::CsvWriter w({"a", "b"});
  EXPECT_THROW(w.add_row({1.0}), std::invalid_argument);
}

TEST(Csv, WriteDisabledWithoutDir) {
  stats::CsvWriter w({"a"});
  w.add_row({1.0});
  EXPECT_FALSE(w.write("", "test").has_value());
}

TEST(Csv, WritesToDirectory) {
  stats::CsvWriter w({"a", "b"});
  w.add_row({1.5, 2.5});
  const auto path = w.write("/tmp", "livesim_csv_test");
  ASSERT_TRUE(path.has_value());
  std::ifstream in(*path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
}

// The layout every BENCH_*.json file shares: root members and elements of
// arrays of containers on their own lines, everything else inline.
TEST(JsonWriter, GoldenLayoutEscapesAndNumberFormats) {
  JsonWriter w;
  w.begin_object()
      .field("name", "a\"b\\c\nd\x01")
      .field("u64", std::uint64_t{18446744073709551615ULL})
      .field("neg", -3)
      .field("ok", true)
      .field("r0", 120.4, 0)
      .field("r3", 2.0 / 3.0, 3)
      .field("r6", 0.25, 6)
      .field("nan", std::nan(""), 1)
      .field("fp", JsonWriter::hex(0xabcULL))
      .key("inline")
      .begin_object()
      .key("xs")
      .begin_array()
      .value(1)
      .value(2.5, 2)
      .end_array()
      .field("empty", "")
      .end_object()
      .key("rows")
      .begin_array()
      .begin_object()
      .field("a", 1)
      .end_object()
      .begin_object()
      .field("a", 2)
      .end_object()
      .end_array()
      .key("none")
      .begin_array()
      .end_array()
      .end_object();
  EXPECT_EQ(w.str(),
            "{\n"
            "  \"name\": \"a\\\"b\\\\c\\u000ad\\u0001\",\n"
            "  \"u64\": 18446744073709551615,\n"
            "  \"neg\": -3,\n"
            "  \"ok\": true,\n"
            "  \"r0\": 120,\n"
            "  \"r3\": 0.667,\n"
            "  \"r6\": 0.250000,\n"
            "  \"nan\": null,\n"
            "  \"fp\": \"0000000000000abc\",\n"
            "  \"inline\": {\"xs\": [1, 2.50], \"empty\": \"\"},\n"
            "  \"rows\": [\n"
            "    {\"a\": 1},\n"
            "    {\"a\": 2}\n"
            "  ],\n"
            "  \"none\": []\n"
            "}\n");
}

TEST(JsonWriter, DeterminismBlockComparesEveryFingerprint) {
  const std::vector<std::pair<unsigned, std::uint64_t>> same = {{1, 7}, {8, 7}};
  const std::vector<std::pair<unsigned, std::uint64_t>> differ = {{1, 7},
                                                                  {2, 9}};
  JsonWriter a;
  a.begin_object();
  write_determinism(a, same);
  a.end_object();
  EXPECT_EQ(a.str(),
            "{\n  \"determinism\": {\"threads\": [1, 8], \"fingerprints\": "
            "[\"0000000000000007\", \"0000000000000007\"], \"identical\": "
            "true}\n}\n");
  JsonWriter b;
  b.begin_object();
  write_determinism(b, differ);
  b.end_object();
  EXPECT_NE(b.str().find("\"identical\": false"), std::string::npos);
}

TEST(JsonWriter, SaveWritesTheDocument) {
  JsonWriter w;
  w.begin_object().field("a", 1).end_object();
  const char* path = "/tmp/livesim_json_writer_test.json";
  ASSERT_TRUE(w.save(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), w.str());
  std::remove(path);
}

// A failed open or a failed closing flush must be reported, never leave a
// truncated file behind an exit code of 0.
TEST(JsonWriter, SaveReportsOpenAndFlushFailure) {
  JsonWriter w;
  w.begin_object().field("a", 1).end_object();
  EXPECT_FALSE(w.save("/nonexistent-livesim-dir/out.json"));
  if (std::FILE* f = std::fopen("/dev/full", "w")) {
    std::fclose(f);
    EXPECT_FALSE(w.save("/dev/full"));  // ENOSPC surfaces at fclose
  } else {
    GTEST_SKIP() << "/dev/full is not available";
  }
}

}  // namespace
}  // namespace livesim
