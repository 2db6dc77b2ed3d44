// Unit tests of the benchmark harness arithmetic (perfbench/harness.h).
//
//   cmake --build .bench_build --target harness_test
//   .bench_build/harness_test
//
// or `python3 perfbench/run.py --unit-tests`.

#include "harness.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace cot::perfbench {
namespace {

std::vector<uint32_t> OneTo(uint32_t n) {
  std::vector<uint32_t> v;
  for (uint32_t i = n; i >= 1; --i) v.push_back(i);  // descending on purpose
  return v;
}

TEST(PercentileTest, NearestRankOnOneToThousand) {
  std::vector<uint32_t> v = OneTo(1000);
  PercentileResult p50 = Percentile(v, 50.0);
  EXPECT_EQ(p50.value, 500.0);
  EXPECT_EQ(p50.count, 1000u);
  EXPECT_EQ(p50.beyond, 500u);
  PercentileResult p999 = Percentile(v, 99.9);
  EXPECT_EQ(p999.value, 999.0);
  EXPECT_EQ(p999.beyond, 1u);
  PercentileResult p100 = Percentile(v, 100.0);
  EXPECT_EQ(p100.value, 1000.0);
  EXPECT_EQ(p100.beyond, 0u);
}

TEST(PercentileTest, SampleCountBehindP999) {
  // p99.9 has at least ten samples beyond it only from 10,000 samples on.
  std::vector<uint32_t> small = OneTo(9999);
  EXPECT_LT(Percentile(small, 99.9).beyond, 10u);
  std::vector<uint32_t> enough = OneTo(10000);
  PercentileResult p = Percentile(enough, 99.9);
  EXPECT_EQ(p.value, 9990.0);
  EXPECT_EQ(p.beyond, 10u);
  EXPECT_EQ(p.count, 10000u);
}

TEST(PercentileTest, RoundsRankUp) {
  std::vector<uint32_t> v = {30, 10, 20};
  EXPECT_EQ(Percentile(v, 50.0).value, 20.0);  // rank ceil(1.5) = 2
  EXPECT_EQ(Percentile(v, 1.0).value, 10.0);   // rank clamps to 1
  std::vector<uint32_t> one = {7};
  PercentileResult p = Percentile(one, 99.9);
  EXPECT_EQ(p.value, 7.0);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(PercentileTest, EmptyIsZeroWithNoSamples) {
  std::vector<uint32_t> v;
  PercentileResult p = Percentile(v, 99.9);
  EXPECT_EQ(p.value, 0.0);
  EXPECT_EQ(p.count, 0u);
  EXPECT_EQ(p.beyond, 0u);
}

TEST(ValueCodecTest, WrittenValuesDecodeToTheirKey) {
  for (uint64_t key : {uint64_t{0}, uint64_t{1}, uint64_t{999999}, kKeyMask}) {
    for (uint64_t seq : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40}) {
      uint64_t v = EncodeValue(key, seq);
      ASSERT_TRUE(DecodeKey(v).has_value());
      EXPECT_EQ(*DecodeKey(v), key);
      EXPECT_TRUE(ValueIsFor(key, v, /*initial=*/12345));
      EXPECT_FALSE(ValueIsFor(key ^ 1, v, /*initial=*/12345));
    }
  }
}

TEST(ValueCodecTest, DistinctSequencesGiveDistinctValues) {
  EXPECT_NE(EncodeValue(5, 1), EncodeValue(5, 2));
}

TEST(ValueCodecTest, UntaggedValuesMustBeTheInitialValue) {
  const uint64_t initial = 0x0123456789abcdefULL;  // tag bit clear
  EXPECT_FALSE(DecodeKey(initial).has_value());
  EXPECT_TRUE(ValueIsFor(77, initial, initial));
  EXPECT_FALSE(ValueIsFor(77, initial + 1, initial));
}

TEST(SelfTimeTest, SpanLosesOneClockReadPlusTwoPerNestedSpan) {
  EXPECT_DOUBLE_EQ(SpanNs(100.0, 0, 20.0), 80.0);
  EXPECT_DOUBLE_EQ(SpanNs(300.0, 2, 20.0), 200.0);  // 300 - 20 * (1 + 4)
  EXPECT_DOUBLE_EQ(SpanNs(30.0, 1, 20.0), 0.0);     // clamps at zero
}

TEST(SelfTimeTest, SpansLoseOneClockReadEach) {
  EXPECT_DOUBLE_EQ(SpansNs(1000.0, 10, 20.0), 800.0);
  EXPECT_DOUBLE_EQ(SpansNs(100.0, 10, 20.0), 0.0);
}

TEST(SelfTimeTest, SelfIsParentMinusChildrenAndMayGoNegative) {
  EXPECT_DOUBLE_EQ(SelfNs(1000.0, {100.0, 250.0, 50.0}), 600.0);
  EXPECT_DOUBLE_EQ(SelfNs(1000.0, {}), 1000.0);
  EXPECT_DOUBLE_EQ(SelfNs(100.0, {80.0, 40.0}), -20.0);
}

}  // namespace
}  // namespace cot::perfbench
