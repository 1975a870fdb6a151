// Differential oracle for the production engine: every query runs through
// the columnar engine, over base tables chunked at two batch sizes, and
// through the row-at-a-time oracle (tests/oracle); results must be
// byte-identical and ExecStats bit-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/executor.h"
#include "storage/datagen.h"
#include "tests/oracle/row_executor.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using testing::D;
using testing::ExpectIdenticalStats;
using testing::I;
using testing::MakeTable;
using testing::MiniDb;
using testing::N;
using testing::S;

class ColumnarDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Deterministic generated tables big enough to span several batches
    // at the test batch size, with nulls and string columns.
    Rng rng(20260809);

    TableGenSpec emp;
    emp.name = "emp";
    emp.num_rows = 2'000;
    emp.columns = {{"id", DataType::kInt64},
                   {"dept", DataType::kInt64},
                   {"salary", DataType::kDouble},
                   {"tag", DataType::kString}};
    emp.generators = {ColumnGenSpec::Serial(),
                      ColumnGenSpec::UniformInt(1, 20),
                      ColumnGenSpec::UniformDouble(30'000, 120'000),
                      ColumnGenSpec::StringTag("t", 0, 50)};
    emp.generators[2].null_fraction = 0.05;

    TableGenSpec dept;
    dept.name = "dept";
    dept.num_rows = 25;
    dept.columns = {{"deptid", DataType::kInt64},
                    {"budget", DataType::kDouble},
                    {"city", DataType::kString}};
    dept.generators = {
        ColumnGenSpec::Serial(),
        ColumnGenSpec::UniformDouble(0, 1'000'000),
        ColumnGenSpec::StringPool({"sj", "ny", "sf", "tokyo"})};

    TableGenSpec sales;
    sales.name = "sales";
    sales.num_rows = 3'000;
    sales.columns = {{"sid", DataType::kInt64},
                     {"emp_id", DataType::kInt64},
                     {"amount", DataType::kDouble}};
    sales.generators = {ColumnGenSpec::Serial(),
                        ColumnGenSpec::UniformInt(0, 2'499),  // some dangle
                        ColumnGenSpec::UniformDouble(0, 10'000)};
    sales.generators[1].null_fraction = 0.02;

    for (const auto& spec : {emp, dept, sales}) {
      auto t = GenerateTable(spec, &rng);
      ASSERT_TRUE(t.ok()) << t.status().ToString();
      AddTable(t.MoveValue());
    }

    // A tiny table whose DOUBLE column `v` is given int64 cells as well as
    // doubles (ingest stores them as doubles), with an indexed column, so
    // IndexScan gets exercised.
    TablePtr odd = MakeTable("odd",
                             {{"k", DataType::kInt64},
                              {"v", DataType::kDouble},
                              {"g", DataType::kString}},
                             {{I(1), D(1.5), S("x")},
                              {I(2), I(7), S("y")},
                              {I(2), N(), S("x")},
                              {N(), D(-3.0), N()},
                              {I(4), I(0), S("y")}});
    ASSERT_TRUE(odd->CreateIndex("k").ok());
    AddTable(odd);

    // Nullable string keys whose later groups first appear past row 200
    // (chunk 3 at batch 64) and nullable int64/double columns. `m` (DOUBLE)
    // is given int64 cells in rows 0-63, stored as doubles at ingest; `q`
    // (INT) has a NULL in row 3.
    std::vector<Row> ev_rows;
    for (int64_t i = 0; i < 300; ++i) {
      Value key = i % 7 == 3 ? N()
                  : i < 200  ? S(i % 2 == 0 ? "a" : "b")
                             : S(i % 3 == 0 ? "late" : "later");
      ev_rows.push_back({I(i), std::move(key), i % 5 == 0 ? N() : I(i),
                         i % 4 == 1 ? N() : D(0.25 * static_cast<double>(i)),
                         i < 64 ? I(i) : D(0.5 * static_cast<double>(i)),
                         i == 3 ? N() : I(i)});
    }
    AddTable(MakeTable("ev",
                           {{"id", DataType::kInt64},
                            {"key", DataType::kString},
                            {"n", DataType::kInt64},
                            {"x", DataType::kDouble},
                            {"m", DataType::kDouble},
                            {"q", DataType::kInt64}},
                           ev_rows));

    // A join partner with duplicate int64 keys and nullable string and
    // double columns.
    std::vector<Row> evd_rows;
    for (int64_t i = 0; i < 40; ++i) {
      evd_rows.push_back(
          {I(i % 30), i % 6 == 0 ? N() : Value("l" + std::to_string(i % 4)),
           i % 5 == 2 ? N() : D(1.5 * static_cast<double>(i))});
    }
    AddTable(MakeTable("evd",
                           {{"did", DataType::kInt64},
                            {"label", DataType::kString},
                            {"w", DataType::kDouble}},
                           evd_rows));

    // int64 keys at both ends of the type, negative keys, NULL keys
    // between non-NULL ones, and keys too sparse for direct addressing.
    const int64_t kMin = std::numeric_limits<int64_t>::min();
    const int64_t kMax = std::numeric_limits<int64_t>::max();
    const std::vector<Value> ends = {I(kMin), I(kMax), I(-5), N(), I(0),
                                     I(kMax), I(-3),   N(), I(kMin), I(7)};
    std::vector<Row> ik_rows;
    std::vector<Row> ik2_rows;
    for (int64_t i = 0; i < 150; ++i) {
      ik_rows.push_back({ends[i % ends.size()],
                         i % 9 == 4 ? N() : I(-(i % 6)),
                         D(0.5 * static_cast<double>(i)),
                         I(i * 10'000'019)});
      ik2_rows.push_back({ends[(i * 7) % ends.size()],
                          I(i % 11 == 0 ? -1 : i),
                          I((i % 40) * 10'000'019)});
    }
    AddTable(MakeTable("ik",
                       {{"k", DataType::kInt64},
                        {"g", DataType::kInt64},
                        {"v", DataType::kDouble},
                        {"sp", DataType::kInt64}},
                       ik_rows));
    AddTable(MakeTable("ik2",
                       {{"k", DataType::kInt64},
                        {"w", DataType::kInt64},
                        {"sp", DataType::kInt64}},
                       ik2_rows));
  }

  /// Adds a copy of `t` to the database of every batch size, its payload
  /// cut into chunks of that size, with the same indexes. At batch 64 the
  /// scans then feed the engine many chunks, as they do at 4096 only at
  /// scale.
  void AddTable(const TablePtr& t) {
    for (auto& [batch, db] : dbs_) {
      ASSERT_OK_AND_ASSIGN(
          TablePtr copy,
          Table::FromRows(t->name(), t->schema(), t->rows(), batch));
      for (const std::string& column : t->indexed_columns()) {
        ASSERT_TRUE(copy->CreateIndex(column).ok());
      }
      db.AddTable(copy);
    }
  }

  MiniDb& db() { return dbs_.at(4096); }

  /// The oracle over this fixture's tables, read into row form on first
  /// use.
  oracle::RowExecutor Oracle() {
    return oracle::RowExecutor(oracle::RowExecutor::Caching(
        [this](const std::string& n) { return db().Resolve(n); }));
  }

  /// Runs `sql` through the oracle and the columnar engine (at several
  /// batch sizes) and asserts identical results and stats.
  void RunBoth(const std::string& sql) {
    auto plan = db().Plan(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    RunPlanBoth(plan.value(), sql);
  }

  /// RunBoth for a plan built by hand, for shapes the planner never
  /// emits (a Sort or Distinct below a Project, a Filter above a join).
  void RunPlanBoth(const PlanNodePtr& plan, const std::string& label) {
    ExecStats row_stats;
    auto row_res = Oracle().Execute(plan, &row_stats);
    ASSERT_TRUE(row_res.ok()) << label << ": " << row_res.status().ToString();
    const oracle::RowTablePtr row_t = row_res.MoveValue();

    for (auto& [batch, db] : dbs_) {
      ExecConfig cfg;
      cfg.batch_rows = batch;
      ExecStats col_stats;
      auto col_res =
          Executor([&db](const std::string& n) { return db.Resolve(n); }, cfg)
              .Execute(plan, &col_stats);
      ASSERT_TRUE(col_res.ok())
          << label << ": " << col_res.status().ToString();
      const std::string batch_label =
          label + " [batch=" + std::to_string(batch) + "]";
      EXPECT_EQ(oracle::FirstDifference(*row_t, *col_res.value()), "")
          << batch_label;
      ExpectIdenticalStats(row_stats, col_stats, batch_label);
    }
  }

  PlanNodePtr ScanOf(const std::string& table) {
    return PlanNode::Scan(table, db().Resolve(table).value()->schema());
  }

  /// ev JOIN evd ON ev.n = evd.did. Slots 0-5 are ev's (id, key, n, x, m,
  /// q) and 6-8 evd's (did, label, w).
  PlanNodePtr EvJoin(BoundExprPtr residual = nullptr) {
    return PlanNode::HashJoin(ScanOf("ev"), ScanOf("evd"), {2}, {0},
                              std::move(residual));
  }

  /// One database per batch size, holding the same tables.
  std::map<size_t, MiniDb> dbs_ = {{64, MiniDb()}, {4096, MiniDb()}};
};

BoundExprPtr Col(const PlanNode& node, size_t slot) {
  const ColumnDef& def = node.output_schema.column(slot);
  return BoundExpr::Column(slot, def.name, def.type);
}

BoundExprPtr Cmp(BinaryOp op, BoundExprPtr l, BoundExprPtr r) {
  return BoundExpr::Binary(op, std::move(l), std::move(r));
}

/// Projects `slots` of `child`, in order.
PlanNodePtr ProjectSlots(PlanNodePtr child, const std::vector<size_t>& slots) {
  std::vector<BoundExprPtr> exprs;
  Schema schema;
  for (size_t s : slots) {
    exprs.push_back(Col(*child, s));
    schema.AddColumn(child->output_schema.column(s));
  }
  return PlanNode::Project(std::move(child), std::move(exprs),
                           std::move(schema));
}

TEST_F(ColumnarDifferentialTest, Scan) { RunBoth("SELECT * FROM emp"); }

TEST_F(ColumnarDifferentialTest, FilterProject) {
  RunBoth("SELECT id, salary FROM emp WHERE salary > 50000");
  RunBoth("SELECT id, salary * 1.1 FROM emp WHERE dept = 3");
  RunBoth("SELECT id FROM emp WHERE tag LIKE 't1%'");
  RunBoth("SELECT id FROM emp WHERE salary > 40000 AND dept < 10");
  RunBoth("SELECT id FROM emp WHERE dept = 1 OR dept = 20");
  // Nullable filter column: three-valued logic drops NULL salaries.
  RunBoth("SELECT id FROM emp WHERE salary < 35000");
}

TEST_F(ColumnarDifferentialTest, ArithmeticProjections) {
  RunBoth("SELECT id + 1, salary / 2, dept * 10 FROM emp WHERE id < 500");
  RunBoth("SELECT salary / 0 FROM emp WHERE id < 10");  // div-by-zero
  RunBoth("SELECT -salary, -id FROM emp WHERE id < 100");
}

TEST_F(ColumnarDifferentialTest, Joins) {
  RunBoth(
      "SELECT emp.id, dept.city FROM emp, dept "
      "WHERE emp.dept = dept.deptid AND emp.id < 200");
  RunBoth(
      "SELECT emp.id, sales.amount FROM emp, sales "
      "WHERE emp.id = sales.emp_id AND sales.amount > 9000");
  // Three-way join.
  RunBoth(
      "SELECT emp.id, dept.city, sales.amount FROM emp, dept, sales "
      "WHERE emp.dept = dept.deptid AND emp.id = sales.emp_id "
      "AND sales.amount > 9500");
}

TEST_F(ColumnarDifferentialTest, Aggregates) {
  RunBoth("SELECT COUNT(*) FROM emp");
  RunBoth("SELECT COUNT(*) FROM emp WHERE id < 0");  // empty global group
  RunBoth(
      "SELECT dept, COUNT(*), SUM(salary), AVG(salary), MIN(salary), "
      "MAX(salary) FROM emp GROUP BY dept");
  RunBoth("SELECT dept, SUM(salary) FROM emp WHERE id < 700 GROUP BY dept");
}

TEST_F(ColumnarDifferentialTest, SortDistinctLimit) {
  RunBoth("SELECT id, salary FROM emp ORDER BY salary DESC LIMIT 50");
  RunBoth("SELECT dept FROM emp ORDER BY dept");
  RunBoth("SELECT DISTINCT dept FROM emp");
  RunBoth("SELECT DISTINCT city FROM dept ORDER BY city");
  RunBoth("SELECT id FROM emp LIMIT 10");
  RunBoth("SELECT id FROM emp LIMIT 0");
  RunBoth("SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept");
}

TEST_F(ColumnarDifferentialTest, MixedVariantTable) {
  RunBoth("SELECT * FROM odd");
  RunBoth("SELECT k, v FROM odd WHERE v > 0");
  RunBoth("SELECT k, v + 1 FROM odd");
  RunBoth("SELECT v FROM odd ORDER BY v");
  RunBoth("SELECT DISTINCT k FROM odd");
  // IndexScan path (equality on the indexed column).
  RunBoth("SELECT * FROM odd WHERE k = 2");
}

TEST_F(ColumnarDifferentialTest, StringGroupKeys) {
  // NULL keys form their own group; "late"/"later" are first seen in a
  // later chunk at batch 64.
  RunBoth("SELECT key, COUNT(*) FROM ev GROUP BY key");
  RunBoth(
      "SELECT key, SUM(n), AVG(n), COUNT(n), MIN(n), MAX(n), SUM(x), "
      "AVG(x), COUNT(x), MIN(x), MAX(x) FROM ev GROUP BY key");
  // `m` was given int64 and double cells, `q` int64 cells and a NULL.
  RunBoth("SELECT key, SUM(m), AVG(m), COUNT(m), MIN(m), MAX(m) FROM ev "
          "GROUP BY key");
  RunBoth("SELECT key, SUM(q), AVG(q), COUNT(q), MIN(q), MAX(q) FROM ev "
          "GROUP BY key");
  RunBoth("SELECT key, SUM(n) FROM ev WHERE id > 150 GROUP BY key");
  // Null-free string keys over the generated table.
  RunBoth(
      "SELECT tag, COUNT(*), SUM(salary), AVG(dept), MIN(tag) FROM emp "
      "GROUP BY tag");
  // The table given int64 cells for a DOUBLE column, grouped by a
  // nullable string.
  RunBoth("SELECT g, SUM(v), AVG(v), COUNT(v), MIN(v), MAX(v) FROM odd "
          "GROUP BY g");
  RunBoth("SELECT g, SUM(k), COUNT(*) FROM odd GROUP BY g");
}

TEST_F(ColumnarDifferentialTest, JoinEmitsNullableColumnsFromBothSides) {
  RunBoth(
      "SELECT ev.id, ev.key, ev.x, evd.label, evd.w FROM ev, evd "
      "WHERE ev.n = evd.did");
  // String join keys take the generic path.
  RunBoth(
      "SELECT ev.id, ev.key, evd.label, evd.w FROM ev, evd "
      "WHERE ev.key = evd.label");
  // A residual predicate compacts the candidate chunks.
  RunBoth(
      "SELECT ev.key, ev.m, evd.label, evd.w FROM ev, evd "
      "WHERE ev.n = evd.did AND evd.w > ev.x");
  RunBoth(
      "SELECT evd.label, COUNT(*), SUM(ev.x) FROM ev, evd "
      "WHERE ev.n = evd.did GROUP BY evd.label");
}

TEST_F(ColumnarDifferentialTest, SortDistinctGatherStrings) {
  RunBoth("SELECT tag, id FROM emp ORDER BY tag");
  RunBoth("SELECT DISTINCT tag FROM emp");
  RunBoth("SELECT key, id, x FROM ev ORDER BY key DESC");
  RunBoth("SELECT DISTINCT key FROM ev");
  RunBoth("SELECT DISTINCT key, m FROM ev ORDER BY key");
  RunBoth(
      "SELECT DISTINCT evd.label FROM ev, evd WHERE ev.n = evd.did "
      "ORDER BY evd.label");
}

TEST_F(ColumnarDifferentialTest, ColumnMasksOverSqlJoins) {
  // COUNT(*) reads no column: the join's chunks carry rows but no
  // present column.
  RunBoth("SELECT COUNT(*) FROM ev, evd WHERE ev.n = evd.did");
  RunBoth("SELECT COUNT(*) FROM emp, sales WHERE emp.id = sales.emp_id");
  // Residuals over columns nothing above them reads.
  RunBoth("SELECT ev.id FROM ev, evd WHERE ev.n = evd.did AND evd.w > ev.x");
  RunBoth(
      "SELECT evd.label, COUNT(*) FROM ev, evd "
      "WHERE ev.n = evd.did AND ev.key < evd.label GROUP BY evd.label");
  // A nested-loop join over filtered children reads every column of
  // both, though its parent reads two.
  RunBoth(
      "SELECT ev.id, evd.label FROM ev, evd "
      "WHERE ev.x > evd.w AND ev.id < 40 AND evd.did < 10");
  // Sort, Distinct and Limit above a join.
  RunBoth(
      "SELECT ev.id, evd.label FROM ev, evd WHERE ev.n = evd.did "
      "ORDER BY evd.label DESC LIMIT 20");
  RunBoth(
      "SELECT DISTINCT evd.label, ev.key FROM ev, evd "
      "WHERE ev.n = evd.did AND ev.id > 30");
}

TEST_F(ColumnarDifferentialTest, ColumnMasksOnHandBuiltPlans) {
  const PlanNodePtr j = EvJoin();
  // A join at the root returns every column, with and without a residual.
  RunPlanBoth(j, "join at the root");
  RunPlanBoth(EvJoin(Cmp(BinaryOp::kLt, Col(*j, 3), Col(*j, 8))),
              "join with a residual at the root");
  // The filter alone reads evd.w.
  RunPlanBoth(
      ProjectSlots(PlanNode::Filter(j, Cmp(BinaryOp::kGt, Col(*j, 8),
                                           BoundExpr::Literal(D(20)))),
                   {0, 7}),
      "filter above a join");
  // The sort alone reads evd.w and ev.id.
  RunPlanBoth(ProjectSlots(PlanNode::Sort(j, {{Col(*j, 8), true},
                                              {Col(*j, 0), false}}),
                           {1, 7}),
              "sort keys nothing above reads");
  // Distinct compares all nine columns; its parent reads one.
  RunPlanBoth(ProjectSlots(PlanNode::Distinct(j), {7}),
              "distinct over a join");
  // Limit passes its parent's slots through.
  RunPlanBoth(ProjectSlots(PlanNode::Limit(j, 25), {0, 8}),
              "limit over a join");
  RunPlanBoth(ProjectSlots(PlanNode::Limit(PlanNode::Sort(
                                               j, {{Col(*j, 3), false}}),
                                           30),
                           {1, 7}),
              "limit over a sort over a join");
  // A nested-loop join over filtered children, below a narrowing parent.
  const PlanNodePtr ev = PlanNode::Filter(
      ScanOf("ev"),
      Cmp(BinaryOp::kLt, Col(*ScanOf("ev"), 0), BoundExpr::Literal(I(40))));
  const PlanNodePtr evd = PlanNode::Filter(
      ScanOf("evd"),
      Cmp(BinaryOp::kLt, Col(*ScanOf("evd"), 0), BoundExpr::Literal(I(10))));
  const PlanNodePtr nlj = PlanNode::NestedLoopJoin(
      ev, evd, Cmp(BinaryOp::kGt, Col(*ev, 3), Col(*evd, 2)));
  RunPlanBoth(ProjectSlots(nlj, {0, 7}), "nested-loop join, filtered inputs");
}

TEST_F(ColumnarDifferentialTest, StringGroupKeysAcrossDictionaries) {
  // Two mirrors merged zero-copy, as two servers' fragments are: their
  // dictionaries code "b" and "a" differently, each holds a string the
  // other lacks, and "c" is first seen in the second one.
  const Schema schema({{"k", DataType::kString}, {"v", DataType::kInt64}});
  std::vector<Row> first;
  std::vector<Row> second;
  for (int64_t i = 0; i < 150; ++i) {
    first.push_back({i % 9 == 4 ? N() : S(i % 3 == 0 ? "b" : "a"), I(i)});
    second.push_back({S(i % 4 == 0 ? "a" : (i % 4 == 1 ? "c" : "b")), I(i)});
  }
  for (size_t batch : {64u, 4096u}) {
    auto merged = std::make_shared<ColumnarTable>(schema);
    merged->AppendTableZeroCopy(*ColumnarFromRows(schema, first, batch));
    merged->AppendTableZeroCopy(*ColumnarFromRows(schema, second, batch));
    const TablePtr two_dicts = Table::FromColumnar("two_dicts", merged);
    for (auto& [batch_rows, db] : dbs_) db.AddTable(two_dicts);
    RunBoth("SELECT k, COUNT(*), SUM(v), MIN(v) FROM two_dicts GROUP BY k");
    RunBoth("SELECT k, COUNT(*) FROM two_dicts WHERE v > 100 GROUP BY k");
    RunBoth("SELECT k, v FROM two_dicts WHERE v < 5 OR v > 145");
  }
}

TEST_F(ColumnarDifferentialTest, EmptyResults) {
  RunBoth("SELECT id FROM emp WHERE id > 1000000");
  RunBoth("SELECT emp.id FROM emp, dept "
          "WHERE emp.dept = dept.deptid AND dept.budget < 0");
}

TEST_F(ColumnarDifferentialTest, ErrorsFailBothEngines) {
  // Type mismatch surfaces as an error in both engines (the specific
  // first-cell message may differ only when several rows are bad).
  const std::string sql = "SELECT id FROM emp WHERE tag > 5";
  ExecStats s;
  auto col_res = db().Run(sql, &s);
  ASSERT_FALSE(col_res.ok());
  auto plan = db().Plan(sql);
  const Status row_status =
      plan.ok() ? Oracle().Execute(plan.value(), &s).status() : plan.status();
  ASSERT_FALSE(row_status.ok());
  EXPECT_EQ(row_status.ToString(), col_res.status().ToString());
}

TEST_F(ColumnarDifferentialTest, Int64KeysAtTheExtremes) {
  // Group ids: keys spanning the whole int64 range (hash side), a dense
  // negative range with NULLs between its keys, and sparse keys.
  RunBoth("SELECT k, COUNT(*), SUM(v), MIN(g) FROM ik GROUP BY k");
  RunBoth("SELECT g, COUNT(*), SUM(v), MAX(k) FROM ik GROUP BY g");
  RunBoth("SELECT sp, COUNT(*) FROM ik WHERE g < 0 GROUP BY sp");
  // Join keys at the extremes, materialized and accumulated, with the
  // group key on either side and equal to the join key.
  RunBoth("SELECT ik.k, ik.g, ik2.w FROM ik, ik2 WHERE ik.k = ik2.k");
  RunBoth(
      "SELECT ik.g, COUNT(*), SUM(ik2.w), AVG(ik.v) FROM ik, ik2 "
      "WHERE ik.k = ik2.k GROUP BY ik.g");
  RunBoth(
      "SELECT ik2.k, COUNT(*), MIN(ik.v) FROM ik, ik2 WHERE ik.k = ik2.k "
      "GROUP BY ik2.k");
  // Sparse join keys (hash side) and a dense negative join key.
  RunBoth(
      "SELECT ik2.w, COUNT(*), SUM(ik.v) FROM ik, ik2 WHERE ik.sp = ik2.sp "
      "GROUP BY ik2.w");
  RunBoth(
      "SELECT ik.g, COUNT(*) FROM ik, ik2 WHERE ik.g = ik2.w GROUP BY ik.g");
}

/// Every HashJoin node under `node`, depth first.
void HashJoinNodes(const obs::OperatorProfile& node,
                   std::vector<const obs::OperatorProfile*>* out) {
  if (node.op == "HashJoin") out->push_back(&node);
  for (const auto& child : node.children) HashJoinNodes(*child, out);
}

TEST_F(ColumnarDifferentialTest, FiltersOverNanZerosAndInfinities) {
  // A DOUBLE column holding NaN, -0.0, +0.0, +-inf, NULL and ordinary
  // values, and a nullable INT column, filtered by each comparison with a
  // constant on either side. Both engines compare by Value::Compare's
  // three-way rule: a NaN compares equal to everything, so =, <= and >=
  // keep it, and -0.0 equals +0.0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> cells = {D(nan), D(-0.0), D(0.0),  D(inf),
                                    D(-inf), N(),    D(1.5),  D(-2.0),
                                    D(3.0),  D(-nan)};
  std::vector<Row> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({I(i), cells[static_cast<size_t>(i) % cells.size()],
                    i % 7 == 3 ? N() : I(i % 5 - 2)});
  }
  AddTable(MakeTable("fp",
                     {{"id", DataType::kInt64},
                      {"x", DataType::kDouble},
                      {"n", DataType::kInt64}},
                     rows));
  const PlanNodePtr scan = ScanOf("fp");
  const std::vector<Value> constants = {I(0),   D(0.0),  D(-0.0),
                                        D(1.5), I(-2),   D(nan),
                                        D(inf), D(-inf), N()};
  for (size_t slot : {size_t{1}, size_t{2}}) {
    for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                        BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
      for (const Value& c : constants) {
        for (bool column_left : {true, false}) {
          BoundExprPtr col = Col(*scan, slot);
          BoundExprPtr lit = BoundExpr::Literal(c);
          BoundExprPtr pred =
              column_left ? Cmp(op, col, lit) : Cmp(op, lit, col);
          const std::string label = pred->ToString();
          RunPlanBoth(ProjectSlots(PlanNode::Filter(scan, pred), {0}), label);
        }
      }
    }
  }
}

TEST_F(ColumnarDifferentialTest, IntermediateCapOnHashJoins) {
  // max_intermediate_rows on both hash-join sinks: a materializing join,
  // one with a residual and a groupjoin. A cap one pair short and one far
  // short must fail with the oracle's Status at every batch size; a cap of
  // exactly the pairs must succeed with identical results and stats.
  auto join = [&](BoundExprPtr residual) {
    return PlanNode::HashJoin(ScanOf("emp"), ScanOf("dept"), {1}, {0},
                              std::move(residual));
  };
  // Slots 0-3 are emp's (id, dept, salary, tag), 4-6 dept's (deptid,
  // budget, city).
  const PlanNodePtr plain = join(nullptr);
  std::vector<AggItem> aggs(2);
  aggs[0].func = AggFunc::kCount;
  aggs[0].count_star = true;
  aggs[0].name = "n";
  aggs[1].func = AggFunc::kSum;
  aggs[1].arg = Col(*plain, 2);
  aggs[1].result_type = DataType::kDouble;
  aggs[1].name = "s";
  const std::vector<std::pair<std::string, PlanNodePtr>> plans = {
      {"materialize", plain},
      {"residual",
       join(Cmp(BinaryOp::kGt, Col(*plain, 0), Col(*plain, 4)))},
      {"groupjoin",
       PlanNode::Aggregate(join(nullptr), {Col(*plain, 6)}, aggs,
                           Schema({{"city", DataType::kString},
                                   {"n", DataType::kInt64},
                                   {"s", DataType::kDouble}}))}};
  auto oracle = [this](const ExecConfig& cfg) {
    return oracle::RowExecutor(
        oracle::RowExecutor::Caching(
            [this](const std::string& n) { return db().Resolve(n); }),
        cfg);
  };
  for (const auto& [name, plan] : plans) {
    ExecConfig profiled;
    profiled.profile = true;
    std::shared_ptr<obs::OperatorProfile> prof;
    ASSERT_TRUE(oracle(profiled).Execute(plan, nullptr, &prof).ok()) << name;
    std::vector<const obs::OperatorProfile*> joins;
    HashJoinNodes(*prof, &joins);
    ASSERT_EQ(joins.size(), 1u) << name;
    const size_t pairs = joins[0]->rows_out;
    ASSERT_GT(pairs, 100u) << name;
    for (size_t cap : {pairs - 1, pairs / 3, pairs}) {
      ExecConfig cfg;
      cfg.max_intermediate_rows = cap;
      ExecStats row_stats;
      auto row_res = oracle(cfg).Execute(plan, &row_stats);
      EXPECT_EQ(row_res.ok(), cap == pairs) << name << " cap " << cap;
      for (auto& [batch, db] : dbs_) {
        cfg.batch_rows = batch;
        const std::string label = name + " cap " + std::to_string(cap) +
                                  " [batch=" + std::to_string(batch) + "]";
        ExecStats col_stats;
        auto col_res =
            Executor([&db](const std::string& n) { return db.Resolve(n); },
                     cfg)
                .Execute(plan, &col_stats);
        ASSERT_EQ(col_res.ok(), row_res.ok()) << label;
        if (!row_res.ok()) {
          EXPECT_EQ(col_res.status().ToString(), row_res.status().ToString())
              << label;
          continue;
        }
        EXPECT_EQ(
            oracle::FirstDifference(*row_res.value(), *col_res.value()), "")
            << label;
        ExpectIdenticalStats(row_stats, col_stats, label);
      }
    }
  }
}

/// The columns of the seeded aggregate-over-join tables.
Schema CaseSchema() {
  return Schema({{"k", DataType::kInt64},
                 {"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
}

/// The int64 join keys of a seeded case: `count` values from `lo` on,
/// `step` apart. A step of 1 keeps them dense enough for the join's dense
/// layout; a wide step spreads a few values over more than 4 × rows + 64,
/// which takes the numbered layout.
struct KeyDomain {
  int64_t lo = 0;
  int64_t count = 10;
  int64_t step = 1;
};

/// `n` seeded rows of CaseSchema: nullable columns, keys from `keys`,
/// int64 cells for the DOUBLE column (stored as doubles at ingest),
/// doubles whose sums depend on their order, and strings from `pool`.
std::vector<Row> CaseRows(Rng* rng, size_t n, const KeyDomain& keys,
                          const std::vector<std::string>& pool) {
  const std::vector<double> scales = {1.0, 0.1, 1e16, -1e16, 1.0 / 3.0};
  std::vector<Row> rows;
  for (size_t r = 0; r < n; ++r) {
    auto null = [&] { return rng->Bernoulli(0.1); };
    Value k = null() ? N()
                     : I(keys.lo +
                         keys.step * rng->UniformInt(0, keys.count - 1));
    Value i = null() ? N() : I(rng->UniformInt(-1'000'000, 1'000'000));
    Value d = null() ? N()
              : rng->Bernoulli(0.15)
                  ? I(rng->UniformInt(-3, 3))
                  : D(scales[rng->UniformInt(0, 4)] *
                      static_cast<double>(rng->UniformInt(1, 9)));
    Value s = null() ? N() : Value(pool[rng->UniformInt(0, pool.size() - 1)]);
    rows.push_back({std::move(k), std::move(i), std::move(d), std::move(s)});
  }
  return rows;
}

/// Adds the seeded tables `lname` and `rname` to every database: rows
/// plus an append of a third as many again, whose new string ("new")
/// codes the later chunks in a second dictionary.
template <typename Dbs>
void AddCaseTables(Dbs* dbs, const std::string& lname,
                   const std::string& rname, Rng* rng, size_t ln, size_t rn,
                   const KeyDomain& lkeys, const KeyDomain& rkeys) {
  const std::vector<std::string> pool = {"a", "b", "c", "d"};
  const std::vector<std::string> wider = {"a", "b", "c", "d", "new"};
  const std::vector<Row> lbase = CaseRows(rng, ln, lkeys, pool);
  const std::vector<Row> lmore = CaseRows(rng, ln / 3, lkeys, wider);
  const std::vector<Row> rbase = CaseRows(rng, rn, rkeys, pool);
  const std::vector<Row> rmore = CaseRows(rng, rn / 3, rkeys, wider);
  for (auto& [batch, db] : *dbs) {
    for (const auto& [name, base, more] :
         {std::tuple{lname, &lbase, &lmore},
          std::tuple{rname, &rbase, &rmore}}) {
      ASSERT_OK_AND_ASSIGN(TablePtr t,
                           Table::FromRows(name, CaseSchema(), *base, batch));
      ASSERT_TRUE(t->AppendRows(*more).ok());
      db.AddTable(t);
    }
  }
}

TEST_F(ColumnarDifferentialTest, SeededAggregatesOverJoins) {
  // Each case joins two seeded tables, built from rows plus an append
  // whose new string codes the later chunks in a second dictionary, and
  // aggregates over the join. The seed picks the sides, the join keys
  // (int64, string or both), one or two group keys or none, every AggFunc
  // with arguments from either side, the edge cases (an empty side, no
  // matches) and the two shapes that keep the materializing join (a
  // residual, an expression argument).
  for (uint64_t seed = 0; seed < 300; ++seed) {
    Rng rng(seed);
    const std::string label = "case " + std::to_string(seed);
    const std::string lname = "l" + std::to_string(seed);
    const std::string rname = "r" + std::to_string(seed);
    const bool no_matches = seed % 10 == 1;
    const size_t ln = seed % 20 == 0 ? 0 : rng.UniformInt(1, 150);
    const size_t rn = seed % 20 == 10 ? 0 : rng.UniformInt(1, 150);
    // Keys 0..9, dense; in every fourth case ten keys a million apart,
    // which the join numbers.
    KeyDomain lkeys;
    if (seed % 4 == 3) lkeys.step = 1'000'003;
    KeyDomain rkeys = lkeys;
    if (no_matches) rkeys.lo = 100 * lkeys.step;
    AddCaseTables(&dbs_, lname, rname, &rng, ln, rn, lkeys, rkeys);

    const bool left_first = seed % 2 == 0;
    const PlanNodePtr build = ScanOf(left_first ? lname : rname);
    const PlanNodePtr probe = ScanOf(left_first ? rname : lname);
    std::vector<size_t> bkeys = {0};
    std::vector<size_t> pkeys = {0};
    if (seed % 6 == 4) bkeys = pkeys = {3};
    if (seed % 6 == 5) bkeys = pkeys = {0, 3};
    BoundExprPtr residual;
    if (seed % 5 == 2) {
      residual = Cmp(BinaryOp::kLt, BoundExpr::Column(1, "i", DataType::kInt64),
                     BoundExpr::Column(5, "i", DataType::kInt64));
    }
    const PlanNodePtr join = PlanNode::HashJoin(build, probe, bkeys, pkeys,
                                                residual);

    // Slots 0-3 are the build side's (k, i, d, s), 4-7 the probe side's.
    const std::vector<DataType> types = {DataType::kInt64, DataType::kInt64,
                                         DataType::kDouble, DataType::kString};
    auto col = [&](size_t slot) {
      return BoundExpr::Column(slot, "c" + std::to_string(slot),
                               types[slot % 4]);
    };
    std::vector<BoundExprPtr> group_by;
    Schema out;
    const size_t nkeys = seed % 7 == 0 ? 0 : rng.UniformInt(1, 2);
    for (size_t g = 0; g < nkeys; ++g) {
      const size_t slot = rng.UniformInt(0, 7);
      group_by.push_back(col(slot));
      out.AddColumn({"g" + std::to_string(g), types[slot % 4]});
    }
    std::vector<AggItem> aggs;
    for (AggFunc func : {AggFunc::kCount, AggFunc::kCount, AggFunc::kSum,
                         AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax}) {
      AggItem item;
      item.func = func;
      const bool numeric = func == AggFunc::kSum || func == AggFunc::kAvg;
      size_t slot = rng.UniformInt(0, 7);
      if (numeric && slot % 4 == 3) slot -= 1;  // no SUM/AVG of strings
      item.count_star = func == AggFunc::kCount && aggs.empty();
      if (!item.count_star) item.arg = col(slot);
      item.result_type = func == AggFunc::kCount  ? DataType::kInt64
                         : func == AggFunc::kAvg ? DataType::kDouble
                                                  : types[slot % 4];
      item.name = "a" + std::to_string(aggs.size());
      aggs.push_back(std::move(item));
    }
    if (seed % 5 == 3) {
      // An expression argument keeps the materializing join.
      aggs[2].arg = BoundExpr::Binary(BinaryOp::kAdd, col(1), col(5));
      aggs[2].result_type = DataType::kInt64;
    }
    for (const AggItem& a : aggs) out.AddColumn({a.name, a.result_type});
    const PlanNodePtr plan =
        PlanNode::Aggregate(join, std::move(group_by), aggs, std::move(out));

    ExecConfig profiled;
    profiled.profile = true;
    ExecStats row_stats;
    std::shared_ptr<obs::OperatorProfile> row_prof;
    auto row_res = oracle::RowExecutor(
                       oracle::RowExecutor::Caching([this](const std::string& n) {
                         return db().Resolve(n);
                       }),
                       profiled)
                       .Execute(plan, &row_stats, &row_prof);
    ASSERT_TRUE(row_res.ok()) << label << ": " << row_res.status().ToString();
    std::vector<const obs::OperatorProfile*> row_joins;
    HashJoinNodes(*row_prof, &row_joins);
    ASSERT_EQ(row_joins.size(), 1u) << label;
    const uint64_t pairs = row_joins[0]->rows_out;

    for (auto& [batch, db] : dbs_) {
      ExecConfig cfg = profiled;
      cfg.batch_rows = batch;
      ExecStats col_stats;
      std::shared_ptr<obs::OperatorProfile> col_prof;
      auto col_res =
          Executor([&db](const std::string& n) { return db.Resolve(n); }, cfg)
              .Execute(plan, &col_stats, &col_prof);
      const std::string batch_label =
          label + " [batch=" + std::to_string(batch) + "]";
      ASSERT_TRUE(col_res.ok()) << batch_label << ": "
                                << col_res.status().ToString();
      EXPECT_EQ(oracle::FirstDifference(*row_res.value(), *col_res.value()),
                "")
          << batch_label;
      ExpectIdenticalStats(row_stats, col_stats, batch_label);
      std::vector<const obs::OperatorProfile*> col_joins;
      HashJoinNodes(*col_prof, &col_joins);
      ASSERT_EQ(col_joins.size(), 1u) << batch_label;
      EXPECT_EQ(col_joins[0]->rows_out, pairs) << batch_label;
      EXPECT_EQ(col_joins[0]->rows_in, row_joins[0]->rows_in) << batch_label;
      if (residual == nullptr) {
        EXPECT_EQ(col_joins[0]->batches, (pairs + batch - 1) / batch)
            << batch_label;
      }
    }
  }
}

TEST_F(ColumnarDifferentialTest, SeededMaterializingJoins) {
  // Each case joins two seeded tables (CaseSchema, built as in
  // SeededAggregatesOverJoins) at the root, and again under a Project
  // that reads a seeded subset of the join's columns. The seed picks the
  // sides, the join keys (int64, string or both), the int64 key domain
  // (dense ones, ones the join numbers through a window or a hash map, and
  // one of about as many keys as rows, so runs of one pair per probe row
  // and of many both occur), the
  // edge cases (an empty side, no matches, NULL keys) and a residual.
  // Both batch sizes cut runs across batches.
  for (uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed + 1'000);
    const std::string label = "join case " + std::to_string(seed);
    const std::string lname = "ml" + std::to_string(seed);
    const std::string rname = "mr" + std::to_string(seed);
    const size_t ln = seed % 20 == 0 ? 0 : rng.UniformInt(1, 300);
    const size_t rn = seed % 20 == 10 ? 0 : rng.UniformInt(1, 300);
    KeyDomain lkeys;
    switch (seed % 4) {
      case 0:  // a few keys: long runs
        lkeys.count = rng.UniformInt(1, 4);
        break;
      case 1:  // about a key per row: runs of one
        lkeys.count = static_cast<int64_t>(std::max(ln, rn)) + 1;
        break;
      case 2:  // numbered: a few keys spread wide, or very wide (hashed)
        lkeys.count = rng.UniformInt(2, 40);
        lkeys.step = seed % 8 == 2 ? 1'000 : 998'244'353;
        lkeys.lo = -lkeys.step * 20;
        break;
      default:  // dense, with negative keys
        lkeys.lo = -rng.UniformInt(0, 50);
        lkeys.count = rng.UniformInt(5, 60);
        break;
    }
    KeyDomain rkeys = lkeys;
    if (seed % 10 == 7) rkeys.lo = lkeys.lo + lkeys.step * lkeys.count;
    AddCaseTables(&dbs_, lname, rname, &rng, ln, rn, lkeys, rkeys);

    const bool left_first = seed % 2 == 0;
    std::vector<size_t> keys = {0};
    if (seed % 6 == 4) keys = {3};
    if (seed % 6 == 5) keys = {0, 3};
    BoundExprPtr residual;
    if (seed % 5 == 2) {
      residual = Cmp(BinaryOp::kLt, BoundExpr::Column(1, "i", DataType::kInt64),
                     BoundExpr::Column(5, "i", DataType::kInt64));
    }
    const PlanNodePtr join =
        PlanNode::HashJoin(ScanOf(left_first ? lname : rname),
                           ScanOf(left_first ? rname : lname), keys, keys,
                           residual);
    std::vector<size_t> slots;
    for (size_t s = 0; s < 8; ++s) {
      if (rng.Bernoulli(0.4)) slots.push_back(s);
    }
    if (slots.empty()) slots.push_back(rng.UniformInt(0, 7));

    for (const auto& [plan, name] :
         {std::pair{join, label}, std::pair{ProjectSlots(join, slots),
                                            label + " under a Project"}}) {
      ExecConfig profiled;
      profiled.profile = true;
      ExecStats row_stats;
      std::shared_ptr<obs::OperatorProfile> row_prof;
      auto row_res = oracle::RowExecutor(
                         oracle::RowExecutor::Caching(
                             [this](const std::string& n) {
                               return db().Resolve(n);
                             }),
                         profiled)
                         .Execute(plan, &row_stats, &row_prof);
      ASSERT_TRUE(row_res.ok()) << name << ": " << row_res.status().ToString();
      std::vector<const obs::OperatorProfile*> row_joins;
      HashJoinNodes(*row_prof, &row_joins);
      ASSERT_EQ(row_joins.size(), 1u) << name;
      const uint64_t pairs = row_joins[0]->rows_out;

      for (auto& [batch, db] : dbs_) {
        ExecConfig cfg = profiled;
        cfg.batch_rows = batch;
        ExecStats col_stats;
        std::shared_ptr<obs::OperatorProfile> col_prof;
        auto col_res =
            Executor([&db](const std::string& n) { return db.Resolve(n); },
                     cfg)
                .Execute(plan, &col_stats, &col_prof);
        const std::string batch_label =
            name + " [batch=" + std::to_string(batch) + "]";
        ASSERT_TRUE(col_res.ok())
            << batch_label << ": " << col_res.status().ToString();
        EXPECT_EQ(
            oracle::FirstDifference(*row_res.value(), *col_res.value()), "")
            << batch_label;
        ExpectIdenticalStats(row_stats, col_stats, batch_label);
        std::vector<const obs::OperatorProfile*> col_joins;
        HashJoinNodes(*col_prof, &col_joins);
        ASSERT_EQ(col_joins.size(), 1u) << batch_label;
        EXPECT_EQ(col_joins[0]->rows_out, pairs) << batch_label;
        if (residual == nullptr) {
          EXPECT_EQ(col_joins[0]->batches, (pairs + batch - 1) / batch)
              << batch_label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace fedcal
