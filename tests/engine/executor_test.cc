#include "engine/executor.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstring>
#include <limits>
#include <map>
#include <vector>

#include "common/rng.h"
#include "engine/exec_common.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

class ExecutorEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.AddTable(MakeTable(
        "emp",
        {{"id", DataType::kInt64},
         {"dept", DataType::kInt64},
         {"salary", DataType::kDouble},
         {"name", DataType::kString}},
        {{I(1), I(10), D(100.0), S("alice")},
         {I(2), I(10), D(200.0), S("bob")},
         {I(3), I(20), D(300.0), S("carol")},
         {I(4), I(20), D(400.0), S("dave")},
         {I(5), I(30), D(500.0), S("erin")}}));
    db_.AddTable(MakeTable("dept",
                           {{"id", DataType::kInt64},
                            {"dname", DataType::kString}},
                           {{I(10), S("eng")},
                            {I(20), S("sales")},
                            {I(30), S("hr")}}));
  }

  MiniDb db_;
};

TEST_F(ExecutorEndToEndTest, SimpleProjection) {
  ASSERT_OK_AND_ASSIGN(TablePtr r, db_.Run("SELECT id FROM emp"));
  EXPECT_EQ(r->num_rows(), 5u);
  EXPECT_EQ(r->schema().num_columns(), 1u);
  EXPECT_EQ(r->schema().column(0).name, "id");
}

TEST_F(ExecutorEndToEndTest, FilterGreaterThan) {
  ASSERT_OK_AND_ASSIGN(TablePtr r,
                       db_.Run("SELECT id FROM emp WHERE salary > 250"));
  auto rows = SortedRows(*r);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsInt64(), 3);
  EXPECT_EQ(rows[1][0].AsInt64(), 4);
  EXPECT_EQ(rows[2][0].AsInt64(), 5);
}

TEST_F(ExecutorEndToEndTest, StringEquality) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r, db_.Run("SELECT id FROM emp WHERE name = 'carol'"));
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->row(0)[0].AsInt64(), 3);
}

TEST_F(ExecutorEndToEndTest, EquiJoin) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT e.name, d.dname FROM emp e, dept d "
              "WHERE e.dept = d.id AND e.salary >= 300"));
  auto rows = SortedRows(*r);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].AsString(), "carol");
  EXPECT_EQ(rows[0][1].AsString(), "sales");
  EXPECT_EQ(rows[2][0].AsString(), "erin");
  EXPECT_EQ(rows[2][1].AsString(), "hr");
}

TEST_F(ExecutorEndToEndTest, JoinSyntax) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT e.name FROM emp e JOIN dept d ON e.dept = d.id "
              "WHERE d.dname = 'eng'"));
  auto rows = SortedRows(*r);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsString(), "alice");
  EXPECT_EQ(rows[1][0].AsString(), "bob");
}

TEST_F(ExecutorEndToEndTest, GroupByAggregates) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT dept, COUNT(*) AS c, SUM(salary) AS s, AVG(salary) "
              "AS a, MIN(salary) AS lo, MAX(salary) AS hi FROM emp "
              "GROUP BY dept ORDER BY dept"));
  ASSERT_EQ(r->num_rows(), 3u);
  EXPECT_EQ(r->row(0)[0].AsInt64(), 10);
  EXPECT_EQ(r->row(0)[1].AsInt64(), 2);
  EXPECT_DOUBLE_EQ(r->row(0)[2].AsDouble(), 300.0);
  EXPECT_DOUBLE_EQ(r->row(0)[3].AsDouble(), 150.0);
  EXPECT_DOUBLE_EQ(r->row(0)[4].AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(r->row(0)[5].AsDouble(), 200.0);
  EXPECT_EQ(r->row(2)[0].AsInt64(), 30);
  EXPECT_EQ(r->row(2)[1].AsInt64(), 1);
}

TEST_F(ExecutorEndToEndTest, GlobalAggregateOnEmptyInput) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT COUNT(*) AS c, SUM(salary) AS s FROM emp "
              "WHERE salary > 10000"));
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->row(0)[0].AsInt64(), 0);
  EXPECT_TRUE(r->row(0)[1].is_null());
}

TEST_F(ExecutorEndToEndTest, Having) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept "
              "HAVING COUNT(*) >= 2 ORDER BY dept"));
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->row(0)[0].AsInt64(), 10);
  EXPECT_EQ(r->row(1)[0].AsInt64(), 20);
}

TEST_F(ExecutorEndToEndTest, OrderByDescAndLimit) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2"));
  ASSERT_EQ(r->num_rows(), 2u);
  EXPECT_EQ(r->row(0)[0].AsString(), "erin");
  EXPECT_EQ(r->row(1)[0].AsString(), "dave");
}

TEST_F(ExecutorEndToEndTest, Distinct) {
  ASSERT_OK_AND_ASSIGN(TablePtr r, db_.Run("SELECT DISTINCT dept FROM emp"));
  EXPECT_EQ(r->num_rows(), 3u);
}

TEST_F(ExecutorEndToEndTest, ArithmeticInProjectionAndPredicate) {
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db_.Run("SELECT id, salary * 2 AS dbl FROM emp "
              "WHERE salary * 2 > 500 AND id < 5"));
  auto rows = SortedRows(*r);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 3);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 600.0);
}

TEST_F(ExecutorEndToEndTest, ThreeWayJoin) {
  MiniDb db;
  db.AddTable(MakeTable("a", {{"x", DataType::kInt64}},
                        {{I(1)}, {I(2)}, {I(3)}}));
  db.AddTable(MakeTable("b",
                        {{"x", DataType::kInt64}, {"y", DataType::kInt64}},
                        {{I(1), I(10)}, {I(2), I(20)}, {I(9), I(90)}}));
  db.AddTable(MakeTable("c", {{"y", DataType::kInt64}},
                        {{I(10)}, {I(20)}, {I(30)}}));
  ASSERT_OK_AND_ASSIGN(
      TablePtr r,
      db.Run("SELECT a.x, c.y FROM a, b, c WHERE a.x = b.x AND b.y = c.y"));
  auto rows = SortedRows(*r);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0].AsInt64(), 1);
  EXPECT_EQ(rows[0][1].AsInt64(), 10);
  EXPECT_EQ(rows[1][0].AsInt64(), 2);
  EXPECT_EQ(rows[1][1].AsInt64(), 20);
}

TEST_F(ExecutorEndToEndTest, WorkUnitsAccumulate) {
  ExecStats stats;
  ASSERT_OK_AND_ASSIGN(TablePtr r, db_.Run("SELECT id FROM emp", &stats));
  Unused(r);
  EXPECT_GT(stats.work_units, 0.0);
  EXPECT_EQ(stats.rows_scanned, 5u);
  EXPECT_EQ(stats.rows_output, 5u);
}

TEST_F(ExecutorEndToEndTest, NullsNeverMatchJoins) {
  MiniDb db;
  db.AddTable(MakeTable("l", {{"k", DataType::kInt64}}, {{I(1)}, {N()}}));
  db.AddTable(MakeTable("r", {{"k", DataType::kInt64}}, {{I(1)}, {N()}}));
  ASSERT_OK_AND_ASSIGN(
      TablePtr out, db.Run("SELECT l.k FROM l, r WHERE l.k = r.k"));
  EXPECT_EQ(out->num_rows(), 1u);
}

TEST_F(ExecutorEndToEndTest, UnknownTableFails) {
  auto r = db_.Run("SELECT x FROM nosuch");
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorEndToEndTest, UnknownColumnFails) {
  auto r = db_.Run("SELECT bogus FROM emp");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

/// n sequential adds, the reference AddRepeated must equal bit for bit.
double AddOneByOne(double w, double c, size_t n) {
  for (size_t i = 0; i < n; ++i) w += c;
  return w;
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

TEST(AddRepeatedTest, EqualsOneAddAtATime) {
  // The join-output price, other prices, and operands that cross binades,
  // sit on ties (0.1's low bits tie below w = 0.5), start at zero, or are
  // subnormal, negative or tiny next to w.
  const std::vector<double> prices = {0.1, 0.3, 1.0 / 3.0, 0.75, 1e-20,
                                      5e-324, 2.5, 1e6};
  const std::vector<double> starts = {0.0,   0.25,  0.3,    0.5,
                                      1.0,   7.9,   1023.9, 4095.95,
                                      1e15,  9e15,  -3.0,   DBL_MIN,
                                      1e-310};
  for (double c : prices) {
    for (double w : starts) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{17},
                       size_t{4096}, size_t{70001}}) {
        EXPECT_EQ(Bits(AddRepeated(w, c, n)), Bits(AddOneByOne(w, c, n)))
            << "w=" << w << " c=" << c << " n=" << n;
      }
    }
  }
  Rng rng(7);
  for (int t = 0; t < 300; ++t) {
    const double w = rng.UniformDouble(0, 1e4) * (rng.Bernoulli(0.5) ? 1 : 1e-3);
    const double c = rng.UniformDouble(0, 2) * (rng.Bernoulli(0.5) ? 1 : 1e-6);
    const auto n = static_cast<size_t>(rng.UniformInt(0, 20000));
    EXPECT_EQ(Bits(AddRepeated(w, c, n)), Bits(AddOneByOne(w, c, n)))
        << "w=" << w << " c=" << c << " n=" << n;
  }
}

TEST(AddRepeatedTest, DiffersFromOneMultiply) {
  // What one add per pair buys: 0.1 is not a double, so n adds of it are
  // not n times it.
  EXPECT_NE(Bits(AddRepeated(0.0, 0.1, 1000)), Bits(1000 * 0.1));
}

/// Sets each new key's slot to the next number, as the join build does,
/// and returns the numbers by key.
std::map<int64_t, uint32_t> NumberKeys(Int64KeyIndex* index,
                                       const std::vector<int64_t>& keys) {
  std::map<int64_t, uint32_t> numbers;
  for (int64_t k : keys) {
    uint32_t& slot = index->Slot(k);
    if (slot == Int64KeyIndex::kNone) {
      slot = static_cast<uint32_t>(numbers.size());
      numbers[k] = slot;
    }
    EXPECT_EQ(slot, numbers.at(k)) << k;
  }
  return numbers;
}

TEST(Int64KeyIndexTest, AddressesCompactKeysByOffset) {
  Int64KeyIndex index(3);
  NumberKeys(&index, {-3, 5, -1, 5});
  EXPECT_TRUE(index.direct());
  EXPECT_EQ(index.Find(-3), 0u);
  EXPECT_EQ(index.Find(5), 1u);
  EXPECT_EQ(index.Find(-1), 2u);
  // Keys inside the window that Slot never saw, and keys outside it.
  EXPECT_EQ(index.Find(0), Int64KeyIndex::kNone);
  EXPECT_EQ(index.Find(6), Int64KeyIndex::kNone);
  EXPECT_EQ(index.Find(-4), Int64KeyIndex::kNone);
  EXPECT_EQ(index.Find(std::numeric_limits<int64_t>::min()),
            Int64KeyIndex::kNone);
  EXPECT_EQ(index.Find(std::numeric_limits<int64_t>::max()),
            Int64KeyIndex::kNone);
}

TEST(Int64KeyIndexTest, WideKeysMoveToTheHashMap) {
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  Int64KeyIndex index(3);
  NumberKeys(&index, {0, 1, hi, lo, hi, 1});
  EXPECT_FALSE(index.direct());
  EXPECT_EQ(index.Find(0), 0u);  // set while the window was direct
  EXPECT_EQ(index.Find(1), 1u);
  EXPECT_EQ(index.Find(hi), 2u);
  EXPECT_EQ(index.Find(lo), 3u);
  EXPECT_EQ(index.Find(2), Int64KeyIndex::kNone);
  // Keys spanning just the floor of 2^22 slots stay direct; one more
  // moves them to the map. Past the floor, 4 x rows + 1024 slots may be
  // direct.
  Int64KeyIndex narrow(2);
  NumberKeys(&narrow, {0, (int64_t{1} << 22) - 1});
  EXPECT_TRUE(narrow.direct());
  Int64KeyIndex wide(2);
  NumberKeys(&wide, {0, int64_t{1} << 22});
  EXPECT_FALSE(wide.direct());
  EXPECT_EQ(wide.Find(int64_t{1} << 22), 1u);
  Int64KeyIndex many(size_t{1} << 21);
  NumberKeys(&many, {int64_t{1} << 23, 0});
  EXPECT_TRUE(many.direct());
  EXPECT_EQ(many.Find(0), 1u);
}

TEST(Int64KeyIndexTest, WindowGrowsBothWaysToTheInt64Ends) {
  // Seeded keys arrive in any order, so the window grows left and right.
  Rng rng(3);
  std::vector<int64_t> keys;
  for (int i = 0; i < 2000; ++i) keys.push_back(rng.UniformInt(-5000, 5000));
  Int64KeyIndex index(keys.size());
  const std::map<int64_t, uint32_t> numbers = NumberKeys(&index, keys);
  EXPECT_TRUE(index.direct());
  for (int64_t k = -5002; k <= 5002; ++k) {
    auto it = numbers.find(k);
    EXPECT_EQ(index.Find(k),
              it == numbers.end() ? Int64KeyIndex::kNone : it->second)
        << k;
  }
  // Windows that reach either end of the int64 range stop growing there.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  for (const std::vector<int64_t>& ends :
       {std::vector<int64_t>{hi - 10, hi, hi - 100, hi - 1},
        std::vector<int64_t>{lo + 10, lo, lo + 100, lo + 1}}) {
    Int64KeyIndex end(4);
    const std::map<int64_t, uint32_t> n = NumberKeys(&end, ends);
    EXPECT_TRUE(end.direct());
    for (const auto& [k, number] : n) EXPECT_EQ(end.Find(k), number) << k;
    EXPECT_EQ(end.Find(ends[0] + 1), Int64KeyIndex::kNone);
  }
}

}  // namespace
}  // namespace fedcal
