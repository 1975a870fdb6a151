#include "storage/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace fedcal {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.is_numeric());
  EXPECT_EQ(v.ToString(), "NULL");
}

TEST(ValueTest, TypePredicates) {
  const Value i(int64_t{4});
  const Value d(2.5);
  const Value s("x");
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(i.is_numeric());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(d.is_numeric());
  EXPECT_TRUE(s.is_string());
  EXPECT_FALSE(s.is_numeric());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{3}).Compare(Value(3.5)), 0);
  EXPECT_GT(Value(4.5).Compare(Value(int64_t{4})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc"), Value("abc"));
  EXPECT_GT(Value("b").Compare(Value("a")), 0);
}

TEST(ValueTest, NullsSortFirstAndCompareEqual) {
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_GT(Value("x").Compare(Value()), 0);
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value(int64_t{-7}).ToString(), "-7");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(ValueTest, HashConsistentWithCrossTypeEquality) {
  // 3 (int) == 3.0 (double), so the hashes must agree for hash joins.
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("a").Hash(), Value("a").Hash());
  // INT64_MAX rounds to 2^63, so it equals that double and must hash as
  // it does (casting 2^63 back to int64 is undefined).
  const Value top(std::numeric_limits<int64_t>::max());
  const Value two63(0x1p63);
  ASSERT_EQ(top, two63);
  EXPECT_EQ(top.Hash(), two63.Hash());
}

TEST(ValueTest, ByteSizeReasonable) {
  EXPECT_EQ(Value(int64_t{1}).ByteSize(), 8u);
  EXPECT_EQ(Value(1.0).ByteSize(), 8u);
  EXPECT_EQ(Value().ByteSize(), 1u);
  EXPECT_GT(Value("hello").ByteSize(), 5u);
}

TEST(ValueTest, RowHashDiffersForDifferentRows) {
  Row a{Value(int64_t{1}), Value("x")};
  Row b{Value(int64_t{2}), Value("x")};
  Row a2{Value(int64_t{1}), Value("x")};
  EXPECT_EQ(HashRow(a), HashRow(a2));
  EXPECT_NE(HashRow(a), HashRow(b));
}

TEST(ValueTest, MixedTypeComparisonIsDeterministic) {
  const int c1 = Value(int64_t{1}).Compare(Value("1"));
  const int c2 = Value(int64_t{2}).Compare(Value("zzz"));
  EXPECT_EQ(c1, c2);  // ordering depends only on type, not content
  EXPECT_EQ(Value("1").Compare(Value(int64_t{1})), -c1);
}

}  // namespace
}  // namespace fedcal
