#include "expr/vector_eval.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/rng.h"
#include "expr/bound_expr.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/column_chunk.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using testing::D;
using testing::I;
using testing::N;
using testing::S;

/// Rows covering the null/typed space: (a int64, b double, c string,
/// d int64-with-nulls, e double given int64 cells too, which ingest stores
/// as doubles).
std::vector<Row> TestRows() {
  return {
      {I(1), D(1.5), S("apple"), I(10), D(0.5)},
      {I(2), D(-2.0), S("banana"), N(), I(7)},  // int64 for double col
      {I(3), D(0.0), S(""), I(30), D(2.5)},
      {I(-4), D(100.25), S("apricot"), I(40), N()},
      {I(0), D(3.0), S("cherry"), N(), D(-1.0)},
      {I(5), D(-0.5), S("a%b_c"), I(50), I(0)},
  };
}

Schema TestSchema() {
  return Schema({{"a", DataType::kInt64},
                 {"b", DataType::kDouble},
                 {"c", DataType::kString},
                 {"d", DataType::kInt64},
                 {"e", DataType::kDouble}});
}

ColumnChunk MakeChunk(const std::vector<Row>& rows) {
  ColumnarTablePtr ct = ColumnarFromRows(TestSchema(), rows, rows.size());
  return ct->chunks()[0];
}

/// TestRows as the chunk stores them: what BoundExpr::Eval reads.
std::vector<Row> StoredRows() {
  return ColumnarFromRows(TestSchema(), TestRows(), TestRows().size())
      ->MaterializeRows();
}

/// A value's type; NULL counts as every type.
bool FitsType(const Value& v, DataType t) {
  return v.is_null() || (t == DataType::kInt64 && v.is_int64()) ||
         (t == DataType::kDouble && v.is_double()) ||
         (t == DataType::kString && v.is_string());
}

/// Cell-exact equality: the same variant and value.
bool SameCell(const Value& a, const Value& b) {
  return a.is_null() == b.is_null() && a.is_int64() == b.is_int64() &&
         a.is_double() == b.is_double() && a.is_string() == b.is_string() &&
         a == b;
}

BoundExprPtr Col(size_t i) {
  static const char* names[] = {"a", "b", "c", "d", "e"};
  static const DataType types[] = {DataType::kInt64, DataType::kDouble,
                                   DataType::kString, DataType::kInt64,
                                   DataType::kDouble};
  return BoundExpr::Column(i, names[i], types[i]);
}

BoundExprPtr Lit(Value v) { return BoundExpr::Literal(std::move(v)); }

/// The oracle: vectorized evaluation must match row-at-a-time evaluation
/// cell for cell, variants included, in a column of the bound type.
void ExpectMatchesRowEval(const BoundExprPtr& expr) {
  const std::vector<Row> rows = StoredRows();
  const ColumnChunk chunk = MakeChunk(TestRows());
  Arena arena;
  VectorEvaluator eval(&arena);
  auto vres = eval.Eval(*expr, chunk);
  ASSERT_TRUE(vres.ok()) << expr->ToString() << ": "
                         << vres.status().ToString();
  const VectorResult& v = vres.value();
  if (v.constant) {
    EXPECT_TRUE(FitsType(v.const_value, expr->type())) << expr->ToString();
  } else {
    EXPECT_EQ(v.col->type(), expr->type()) << expr->ToString();
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    auto rres = expr->Eval(rows[i]);
    ASSERT_TRUE(rres.ok()) << expr->ToString();
    const Value expect = rres.value();
    const Value got = v.At(i);
    EXPECT_EQ(got, expect) << expr->ToString() << " row " << i;
    EXPECT_EQ(got.is_null(), expect.is_null())
        << expr->ToString() << " row " << i;
    EXPECT_EQ(got.is_int64(), expect.is_int64())
        << expr->ToString() << " row " << i;
    EXPECT_EQ(got.is_double(), expect.is_double())
        << expr->ToString() << " row " << i;
  }
}

TEST(VectorEvalTest, ColumnPassThroughIsZeroCopy) {
  const std::vector<Row> rows = TestRows();
  const ColumnChunk chunk = MakeChunk(rows);
  Arena arena;
  VectorEvaluator eval(&arena);
  auto vres = eval.Eval(*Col(0), chunk);
  ASSERT_TRUE(vres.ok());
  EXPECT_FALSE(vres.value().constant);
  // Same underlying column object as the chunk — no copy.
  EXPECT_EQ(vres.value().col.get(), chunk.columns[0].col.get());
}

TEST(VectorEvalTest, LiteralIsConstant) {
  Arena arena;
  VectorEvaluator eval(&arena);
  const ColumnChunk chunk = MakeChunk(TestRows());
  auto vres = eval.Eval(*Lit(I(42)), chunk);
  ASSERT_TRUE(vres.ok());
  EXPECT_TRUE(vres.value().constant);
  EXPECT_EQ(vres.value().const_value, Value(int64_t{42}));
}

TEST(VectorEvalTest, ComparisonsMatchRowEval) {
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(0), Lit(I(2))));
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(1), Lit(D(0.0))));
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(0), Col(3)));  // nulls
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(1), Col(4)));  // mixed
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(2), Lit(S("banana"))));
    // int-vs-double cross-type comparison.
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(0), Lit(D(1.5))));
  }
}

TEST(VectorEvalTest, ArithmeticMatchesRowEval) {
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv}) {
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(0), Lit(I(3))));
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(1), Col(4)));
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(0), Col(1)));
    ExpectMatchesRowEval(BoundExpr::Binary(op, Col(3), Lit(I(2))));
  }
  // Division by zero -> NULL (and by a zero-valued column cell).
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kDiv, Col(0), Lit(I(0))));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kDiv, Col(0), Col(4)));
}

TEST(VectorEvalTest, LogicalOpsMatchRowEval) {
  auto lt = BoundExpr::Binary(BinaryOp::kLt, Col(0), Lit(I(3)));
  auto gt = BoundExpr::Binary(BinaryOp::kGt, Col(1), Lit(D(0.0)));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kAnd, lt, gt));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kOr, lt, gt));
  // Three-valued logic over a nullable column.
  auto dnull = BoundExpr::Binary(BinaryOp::kGt, Col(3), Lit(I(20)));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kAnd, dnull, gt));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kOr, dnull, gt));
}

TEST(VectorEvalTest, LikeMatchesRowEval) {
  ExpectMatchesRowEval(
      BoundExpr::Binary(BinaryOp::kLike, Col(2), Lit(S("a%"))));
  ExpectMatchesRowEval(
      BoundExpr::Binary(BinaryOp::kLike, Col(2), Lit(S("%an%"))));
  ExpectMatchesRowEval(
      BoundExpr::Binary(BinaryOp::kLike, Col(2), Lit(S("a_p%"))));
}

TEST(VectorEvalTest, UnaryOpsMatchRowEval) {
  ExpectMatchesRowEval(BoundExpr::Unary(UnaryOp::kNeg, Col(0)));
  ExpectMatchesRowEval(BoundExpr::Unary(UnaryOp::kNeg, Col(1)));
  ExpectMatchesRowEval(BoundExpr::Unary(UnaryOp::kNeg, Col(4)));  // mixed
  ExpectMatchesRowEval(BoundExpr::Unary(UnaryOp::kIsNull, Col(3)));
  ExpectMatchesRowEval(BoundExpr::Unary(UnaryOp::kIsNotNull, Col(3)));
  ExpectMatchesRowEval(BoundExpr::Unary(
      UnaryOp::kNot, BoundExpr::Binary(BinaryOp::kLt, Col(0), Lit(I(2)))));
  ExpectMatchesRowEval(BoundExpr::Unary(
      UnaryOp::kNot, BoundExpr::Binary(BinaryOp::kGt, Col(3), Lit(I(20)))));
}

TEST(VectorEvalTest, NullLiteralOperandsMatchRowEval) {
  // The blank column is of the bound type: DOUBLE for b + NULL.
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kEq, Col(0), Lit(N())));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kAdd, Col(1), Lit(N())));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kMul, Lit(N()), Col(0)));
  ExpectMatchesRowEval(BoundExpr::Binary(BinaryOp::kDiv, Col(0), Lit(N())));
  ExpectMatchesRowEval(BoundExpr::Unary(UnaryOp::kIsNull, Lit(N())));
}

TEST(VectorEvalTest, IllTypedHandBuiltTreesFail) {
  // Trees the binder rejects fail with a Status when a plan is built by
  // hand, and so does a column reference bound at another type than its
  // column's.
  const ColumnChunk chunk = MakeChunk(TestRows());
  Arena arena;
  VectorEvaluator eval(&arena);
  const std::vector<BoundExprPtr> bad = {
      BoundExpr::Binary(BinaryOp::kLt, Col(2), Lit(I(1))),
      BoundExpr::Binary(BinaryOp::kAdd, Col(2), Col(0)),
      BoundExpr::Binary(BinaryOp::kLike, Col(0), Lit(S("a%"))),
      BoundExpr::Unary(UnaryOp::kNeg, Col(2)),
      BoundExpr::Column(0, "a", DataType::kDouble),
  };
  for (const BoundExprPtr& e : bad) {
    EXPECT_FALSE(eval.Eval(*e, chunk).ok()) << e->ToString();
  }
}

TEST(VectorEvalTest, EvalSelectionMatchesIsTruthy) {
  const std::vector<Row> rows = StoredRows();
  const ColumnChunk chunk = MakeChunk(TestRows());
  const std::vector<BoundExprPtr> preds = {
      BoundExpr::Binary(BinaryOp::kLt, Col(0), Lit(I(3))),
      BoundExpr::Binary(BinaryOp::kGt, Col(3), Lit(I(15))),  // nullable
      BoundExpr::Binary(BinaryOp::kLike, Col(2), Lit(S("a%"))),
      BoundExpr::Binary(
          BinaryOp::kAnd,
          BoundExpr::Binary(BinaryOp::kGe, Col(0), Lit(I(0))),
          BoundExpr::Binary(BinaryOp::kLe, Col(1), Lit(D(3.0)))),
      Lit(I(1)),  // constant-true: selects everything
      Lit(I(0)),  // constant-false: selects nothing
  };
  for (const auto& pred : preds) {
    Arena arena;
    VectorEvaluator eval(&arena);
    size_t count = 0;
    auto sel = eval.EvalSelection(*pred, chunk, &count);
    ASSERT_TRUE(sel.ok()) << pred->ToString();
    std::vector<uint32_t> expect;
    for (size_t i = 0; i < rows.size(); ++i) {
      auto r = pred->Eval(rows[i]);
      ASSERT_TRUE(r.ok());
      if (IsTruthy(r.value())) expect.push_back(static_cast<uint32_t>(i));
    }
    ASSERT_EQ(count, expect.size()) << pred->ToString();
    for (size_t i = 0; i < count; ++i) {
      EXPECT_EQ(sel.value()[i], expect[i]) << pred->ToString();
    }
  }
}

TEST(VectorEvalTest, WorksOnOffsetSlices) {
  // Evaluation must honor per-column offsets (sliced chunks).
  const std::vector<Row> rows = StoredRows();
  ColumnarTablePtr ct = ColumnarFromRows(TestSchema(), rows, rows.size());
  const ColumnChunk sliced = ct->chunks()[0].Slice(2, 3);
  auto expr = BoundExpr::Binary(BinaryOp::kAdd, Col(0), Lit(I(100)));
  Arena arena;
  VectorEvaluator eval(&arena);
  auto vres = eval.Eval(*expr, sliced);
  ASSERT_TRUE(vres.ok());
  for (size_t i = 0; i < 3; ++i) {
    auto r = expr->Eval(rows[2 + i]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(vres.value().At(i), r.value()) << "slice row " << i;
  }
}

/// \brief Seeded SQL expressions over nullable INT, DOUBLE and STRING
/// columns, each with the type the SQL typing rules give it, or none when
/// they reject it: comparisons take two numbers or two strings, LIKE two
/// strings, arithmetic and negation numbers; AND, OR, NOT and IS [NOT]
/// NULL take anything. NULL is an INT literal.
class ExprGen {
 public:
  struct Expr {
    std::string sql;
    bool ok = true;  ///< well typed
    DataType type = DataType::kInt64;
    std::string op;  ///< the root's operator, "" for a leaf
  };

  static const std::vector<std::pair<std::string, DataType>>& Columns() {
    static const std::vector<std::pair<std::string, DataType>> cols = {
        {"i1", DataType::kInt64},  {"i2", DataType::kInt64},
        {"d1", DataType::kDouble}, {"d2", DataType::kDouble},
        {"s1", DataType::kString}, {"s2", DataType::kString}};
    return cols;
  }

  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  Expr Gen(int depth) {
    if (depth == 0 || rng_.Bernoulli(0.2)) return Leaf();
    const int pick = static_cast<int>(rng_.UniformInt(0, 16));
    if (pick >= 13) {
      static const char* kUnary[] = {"NOT", "-", "IS NULL", "IS NOT NULL"};
      const std::string op = kUnary[pick - 13];
      Expr o = Gen(depth - 1);
      Expr e;
      e.op = op;
      e.ok = o.ok && (op != "-" || o.type != DataType::kString);
      e.type = op == "-" ? o.type : DataType::kInt64;
      e.sql = pick < 15 ? "(" + op + " " + o.sql + ")"
                        : "(" + o.sql + " " + op + ")";
      return e;
    }
    static const char* kBinary[] = {"=", "<>", "<", "<=", ">", ">=", "AND",
                                    "OR", "+", "-", "*", "/", "LIKE"};
    const std::string op = kBinary[pick];
    // Strings come only from leaves, so LIKE mostly takes string leaves to
    // be well typed often enough.
    const bool like = op == "LIKE" && rng_.Bernoulli(0.7);
    Expr l = like ? StringLeaf() : Gen(depth - 1);
    Expr r = like ? StringLeaf() : Gen(depth - 1);
    const bool ls = l.type == DataType::kString;
    const bool rs = r.type == DataType::kString;
    Expr e;
    e.op = op;
    e.sql = "(" + l.sql + " " + op + " " + r.sql + ")";
    e.ok = l.ok && r.ok;
    if (pick < 6) {
      e.ok = e.ok && ls == rs;
    } else if (op == "LIKE") {
      e.ok = e.ok && ls && rs;
    } else if (pick >= 8) {
      e.ok = e.ok && !ls && !rs;
      const bool ints =
          l.type == DataType::kInt64 && r.type == DataType::kInt64;
      e.type = op != "/" && ints ? DataType::kInt64 : DataType::kDouble;
    }
    return e;
  }

 private:
  Expr Leaf() {
    Expr e;
    switch (rng_.UniformInt(0, 9)) {
      case 0:
        e.sql = std::to_string(rng_.UniformInt(0, 4));
        break;
      case 1: {
        static const char* kDoubles[] = {"0.0", "0.5", "2.5", "3.25"};
        e.sql = kDoubles[rng_.UniformInt(0, 3)];
        e.type = DataType::kDouble;
        break;
      }
      case 2:
        return StringLeaf();
      case 3:
        e.sql = "NULL";
        break;
      default: {
        const auto& col = Columns()[rng_.UniformInt(0, 5)];
        e.sql = col.first;
        e.type = col.second;
        break;
      }
    }
    return e;
  }

  Expr StringLeaf() {
    static const char* kStrings[] = {"''",   "'a'", "'ab'", "'a%'",
                                     "'_b'", "'%'", "s1",   "s2"};
    Expr e;
    e.sql = kStrings[rng_.UniformInt(0, 7)];
    e.type = DataType::kString;
    return e;
  }

  Rng rng_;
};

TEST(VectorEvalTest, SeededExpressionsMatchRowEval) {
  // 1,000 seeded expressions of depth up to 3 over every BinaryOp and
  // UnaryOp, bound as SQL over a table chunked at 64 and at 4096 rows: an
  // ill-typed one must fail to bind, a well-typed one must evaluate to
  // what BoundExpr::Eval gives row by row, cell variants included, in a
  // column of its bound type, and select the rows Eval finds truthy.
  std::vector<ColumnDef> defs;
  for (const auto& [name, type] : ExprGen::Columns()) {
    defs.push_back({name, type});
  }
  const Schema schema(defs);
  Rng data(7);
  std::vector<Row> rows;
  const std::vector<std::string> strings = {"", "a", "ab", "b", "a_c", "xa"};
  for (int r = 0; r < 300; ++r) {
    auto null = [&] { return r % 2 == 0 && data.Bernoulli(0.2); };
    rows.push_back(
        {null() ? N() : I(data.UniformInt(-5, 5)), I(data.UniformInt(0, 3)),
         null() ? N() : D(0.25 * static_cast<double>(data.UniformInt(-8, 8))),
         D(0.5 * static_cast<double>(data.UniformInt(0, 6))),
         null() ? N() : Value(strings[data.UniformInt(0, 5)]),
         Value(strings[data.UniformInt(0, 5)])});
  }
  std::map<size_t, TablePtr> tables;
  for (size_t batch : {64u, 4096u}) {
    ASSERT_OK_AND_ASSIGN(tables[batch],
                         Table::FromRows("t", schema, rows, batch));
  }
  const std::vector<Row> stored = tables.at(64)->rows();

  std::map<std::string, size_t> well_typed;  // per root operator
  size_t ill_typed = 0;
  for (uint64_t seed = 0; seed < 1000; ++seed) {
    const ExprGen::Expr g = ExprGen(seed).Gen(3);
    const std::string sql = "SELECT " + g.sql + " FROM t";
    SCOPED_TRACE(sql);
    ASSERT_OK_AND_ASSIGN(SelectStmt stmt, ParseSelect(sql));
    Result<BoundQuery> bound = BindQuery(stmt, {schema});
    if (!g.ok) {
      ++ill_typed;
      ASSERT_FALSE(bound.ok());
      EXPECT_EQ(bound.status().code(), StatusCode::kBindError);
      continue;
    }
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ++well_typed[g.op];
    const BoundExprPtr& expr = bound->outputs[0];
    ASSERT_EQ(expr->type(), g.type);
    std::vector<Value> want;
    for (const Row& row : stored) {
      ASSERT_OK_AND_ASSIGN(Value v, expr->Eval(row));
      want.push_back(std::move(v));
    }
    for (const auto& [batch, table] : tables) {
      size_t base = 0;
      for (const ColumnChunk& chunk : table->columnar()->chunks()) {
        Arena arena;
        VectorEvaluator eval(&arena);
        ASSERT_OK_AND_ASSIGN(VectorResult v, eval.Eval(*expr, chunk));
        if (v.constant) {
          ASSERT_TRUE(FitsType(v.const_value, g.type));
        } else {
          ASSERT_EQ(v.col->type(), g.type) << "batch " << batch;
        }
        size_t count = 0;
        ASSERT_OK_AND_ASSIGN(const uint32_t* sel,
                             eval.EvalSelection(*expr, chunk, &count));
        size_t k = 0;
        for (size_t i = 0; i < chunk.length; ++i) {
          const Value& w = want[base + i];
          ASSERT_TRUE(SameCell(v.At(i), w))
              << "batch " << batch << " row " << base + i << ": "
              << v.At(i).ToString() << ", row engine " << w.ToString();
          if (IsTruthy(w)) {
            ASSERT_LT(k, count);
            ASSERT_EQ(sel[k++], i) << "batch " << batch;
          }
        }
        ASSERT_EQ(k, count) << "batch " << batch;
        base += chunk.length;
      }
    }
  }
  // Every operator was the root of some well-typed expression, and the
  // typing rules rejected a share of them.
  for (const char* op : {"=", "<>", "<", "<=", ">", ">=", "AND", "OR", "+",
                         "-", "*", "/", "LIKE", "NOT", "IS NULL",
                         "IS NOT NULL"}) {
    EXPECT_GT(well_typed[op], 5u) << op;
  }
  EXPECT_GT(ill_typed, 100u);
}

}  // namespace
}  // namespace fedcal
