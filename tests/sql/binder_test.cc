#include "sql/binder.h"

#include <gtest/gtest.h>

#include "sql/parser.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

class BinderTest : public ::testing::Test {
 protected:
  Schema emp_ = Schema({{"id", DataType::kInt64},
                        {"dept", DataType::kInt64},
                        {"salary", DataType::kDouble},
                        {"name", DataType::kString}});
  Schema dept_ = Schema({{"id", DataType::kInt64},
                         {"dname", DataType::kString}});

  Result<BoundQuery> Bind(const std::string& sql,
                          std::vector<Schema> schemas) {
    FEDCAL_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
    return BindQuery(stmt, std::move(schemas));
  }
};

TEST_F(BinderTest, ResolvesUnqualifiedColumns) {
  ASSERT_OK_AND_ASSIGN(BoundQuery bq,
                       Bind("SELECT salary FROM emp", {emp_}));
  ASSERT_EQ(bq.outputs.size(), 1u);
  EXPECT_EQ(bq.outputs[0]->column_index(), 2u);
  EXPECT_EQ(bq.output_schema.column(0).name, "salary");
  EXPECT_EQ(bq.output_schema.column(0).type, DataType::kDouble);
}

TEST_F(BinderTest, QualifiedColumnsUseAlias) {
  ASSERT_OK_AND_ASSIGN(BoundQuery bq,
                       Bind("SELECT e.name FROM emp e", {emp_}));
  EXPECT_EQ(bq.outputs[0]->column_index(), 3u);
  EXPECT_EQ(bq.input_schema.column(3).name, "e.name");
}

TEST_F(BinderTest, JoinLayoutIsLeftToRight) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bq,
      Bind("SELECT d.dname FROM emp e, dept d WHERE e.dept = d.id",
           {emp_, dept_}));
  EXPECT_EQ(bq.input_schema.num_columns(), 6u);
  EXPECT_EQ(bq.tables[1].slot_offset, 4u);
  // d.dname is the 6th slot.
  EXPECT_EQ(bq.outputs[0]->column_index(), 5u);
}

TEST_F(BinderTest, AmbiguousColumnRejected) {
  auto r = Bind("SELECT id FROM emp e, dept d", {emp_, dept_});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kBindError);
}

TEST_F(BinderTest, UnknownColumnRejected) {
  EXPECT_FALSE(Bind("SELECT wat FROM emp", {emp_}).ok());
  EXPECT_FALSE(Bind("SELECT e.wat FROM emp e", {emp_}).ok());
  EXPECT_FALSE(Bind("SELECT x.id FROM emp e", {emp_}).ok());
}

TEST_F(BinderTest, DuplicateAliasRejected) {
  EXPECT_FALSE(Bind("SELECT 1 FROM emp e, dept e", {emp_, dept_}).ok());
}

TEST_F(BinderTest, StringNumericComparisonRejected) {
  EXPECT_FALSE(Bind("SELECT id FROM emp WHERE name > 5", {emp_}).ok());
  EXPECT_FALSE(Bind("SELECT id FROM emp WHERE salary = 'x'", {emp_}).ok());
}

TEST_F(BinderTest, ArithmeticAndNegationOverStringsRejected) {
  // Rejected at bind time, in every clause, rather than failing at the
  // first offending cell.
  for (const char* sql :
       {"SELECT name + 1 FROM emp", "SELECT id * name FROM emp",
        "SELECT id FROM emp WHERE name / 2 > 1", "SELECT -name FROM emp",
        "SELECT id FROM emp WHERE -(name) IS NULL",
        "SELECT dept, SUM(salary) FROM emp GROUP BY dept "
        "HAVING MIN(name) - 1 > 0",
        "SELECT dept FROM emp GROUP BY dept HAVING MIN(name) > 1",
        "SELECT dept FROM emp GROUP BY dept HAVING MAX(name) LIKE 5"}) {
    auto r = Bind(sql, {emp_});
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kBindError) << sql;
  }
  // Strings still take MIN/MAX, comparisons with strings, LIKE, NOT and
  // IS NULL.
  for (const char* sql :
       {"SELECT -salary, -id FROM emp WHERE NOT name AND name IS NOT NULL",
        "SELECT dept FROM emp GROUP BY dept HAVING MIN(name) > 'a'"}) {
    EXPECT_OK(Bind(sql, {emp_}).status());
  }
}

TEST_F(BinderTest, StarExpansion) {
  ASSERT_OK_AND_ASSIGN(BoundQuery bq,
                       Bind("SELECT * FROM emp e, dept d", {emp_, dept_}));
  EXPECT_EQ(bq.outputs.size(), 6u);
  EXPECT_EQ(bq.output_schema.num_columns(), 6u);
}

TEST_F(BinderTest, AggregateQueryShape) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bq,
      Bind("SELECT dept, COUNT(*) AS c, SUM(salary) AS s FROM emp "
           "GROUP BY dept HAVING COUNT(*) > 1",
           {emp_}));
  EXPECT_TRUE(bq.has_aggregate);
  ASSERT_EQ(bq.group_by.size(), 1u);
  ASSERT_EQ(bq.aggs.size(), 2u);
  EXPECT_EQ(bq.aggs[0].func, AggFunc::kCount);
  EXPECT_TRUE(bq.aggs[0].count_star);
  EXPECT_EQ(bq.aggs[1].func, AggFunc::kSum);
  EXPECT_EQ(bq.aggs[1].result_type, DataType::kDouble);
  // Post-agg row: [dept, COUNT(*), SUM(salary)]; outputs reference it.
  EXPECT_EQ(bq.outputs[0]->column_index(), 0u);
  EXPECT_EQ(bq.outputs[1]->column_index(), 1u);
  EXPECT_EQ(bq.outputs[2]->column_index(), 2u);
  ASSERT_NE(bq.having, nullptr);
  EXPECT_EQ(bq.PostAggSchema().num_columns(), 3u);
}

TEST_F(BinderTest, DuplicateAggregatesDeduplicated) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bq,
      Bind("SELECT COUNT(*) AS a, COUNT(*) + 1 AS b FROM emp", {emp_}));
  EXPECT_EQ(bq.aggs.size(), 1u);
}

TEST_F(BinderTest, BareColumnOutsideGroupByRejected) {
  auto r = Bind("SELECT name, COUNT(*) FROM emp GROUP BY dept", {emp_});
  EXPECT_FALSE(r.ok());
}

TEST_F(BinderTest, GroupByExpressionMatchedStructurally) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bq,
      Bind("SELECT dept + 1, COUNT(*) FROM emp GROUP BY dept + 1",
           {emp_}));
  EXPECT_EQ(bq.group_by.size(), 1u);
  EXPECT_EQ(bq.outputs[0]->column_index(), 0u);
}

TEST_F(BinderTest, AggregateInWhereRejected) {
  EXPECT_FALSE(
      Bind("SELECT id FROM emp WHERE COUNT(*) > 1", {emp_}).ok());
}

TEST_F(BinderTest, NestedAggregateRejected) {
  EXPECT_FALSE(Bind("SELECT SUM(COUNT(*)) FROM emp", {emp_}).ok());
}

TEST_F(BinderTest, SumOverStringRejected) {
  EXPECT_FALSE(Bind("SELECT SUM(name) FROM emp", {emp_}).ok());
  EXPECT_FALSE(Bind("SELECT AVG(name) FROM emp", {emp_}).ok());
  // MIN/MAX over strings are fine.
  EXPECT_TRUE(Bind("SELECT MIN(name) FROM emp", {emp_}).ok());
}

TEST_F(BinderTest, OrderByBindsToOutputs) {
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bq,
      Bind("SELECT dept, COUNT(*) AS c FROM emp GROUP BY dept ORDER BY c "
           "DESC",
           {emp_}));
  ASSERT_EQ(bq.order_by.size(), 1u);
  EXPECT_EQ(bq.order_by[0].first->column_index(), 1u);
  EXPECT_TRUE(bq.order_by[0].second);
}

TEST_F(BinderTest, OrderByUnknownOutputRejected) {
  EXPECT_FALSE(
      Bind("SELECT dept FROM emp GROUP BY dept ORDER BY salary", {emp_})
          .ok());
}

TEST_F(BinderTest, TypeInference) {
  // Every bound node carries its type, and the schema takes it.
  ASSERT_OK_AND_ASSIGN(
      BoundQuery bq,
      Bind("SELECT id + 1 AS a, id / 2 AS b, salary + 1 AS c, id > 3 AS d, "
           "salary + NULL, -id, NULL, name, NOT name FROM emp",
           {emp_}));
  const std::vector<DataType> want = {
      DataType::kInt64, DataType::kDouble, DataType::kDouble,
      DataType::kInt64, DataType::kDouble, DataType::kInt64,
      DataType::kInt64, DataType::kString, DataType::kInt64};
  ASSERT_EQ(bq.outputs.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(bq.output_schema.column(i).type, want[i]) << i;
    EXPECT_EQ(bq.outputs[i]->type(), want[i]) << i;
  }
}

TEST_F(BinderTest, SchemaCountMismatchRejected) {
  EXPECT_FALSE(Bind("SELECT id FROM emp, dept", {emp_}).ok());
}

}  // namespace
}  // namespace fedcal
