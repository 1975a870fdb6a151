// Tests for hash indexes and index-scan access paths.
#include <gtest/gtest.h>

#include "cost/planner.h"
#include "engine/executor.h"
#include "sql/parser.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

TablePtr IndexedTable(size_t rows, int64_t key_max) {
  Rng rng(3);
  TableGenSpec spec;
  // Assigning the literal in place makes GCC 12 with the sanitizers
  // report an overlapping memcpy (-Wrestrict).
  spec.name = std::string(1, 't');
  spec.num_rows = rows;
  spec.columns = {{"k", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"tag", DataType::kString}};
  auto key_gen = ColumnGenSpec::UniformInt(0, key_max);
  key_gen.null_fraction = 0.02;
  spec.generators = {key_gen, ColumnGenSpec::UniformDouble(0, 100),
                     ColumnGenSpec::StringPool({"a", "b", "c"})};
  TablePtr t = GenerateTable(spec, &rng).MoveValue();
  EXPECT_TRUE(t->CreateIndex("k").ok());
  return t;
}

TEST(HashIndexTest, ProbeFindsAllMatches) {
  TablePtr t = IndexedTable(2'000, 50);
  const HashIndex* index = t->GetIndex("k");
  ASSERT_NE(index, nullptr);
  for (int64_t key : {0, 7, 25, 50}) {
    size_t truth = 0;
    for (const Row& row : t->rows()) {
      truth += !row[0].is_null() && row[0].AsInt64() == key ? 1 : 0;
    }
    size_t verified = 0;
    for (size_t row_id : index->Probe(Value(key))) {
      if (!t->row(row_id)[0].is_null() &&
          t->row(row_id)[0].Compare(Value(key)) == 0) {
        ++verified;
      }
    }
    EXPECT_EQ(verified, truth) << "key " << key;
  }
}

TEST(HashIndexTest, NullKeysNotIndexed) {
  TablePtr t = IndexedTable(500, 5);
  EXPECT_TRUE(t->GetIndex("k")->Probe(Value()).empty());
}

TEST(HashIndexTest, MaintainedAcrossAppends) {
  TablePtr t = IndexedTable(100, 10);
  const size_t before = t->GetIndex("k")->Probe(Value(int64_t{3})).size();
  ASSERT_OK(t->AppendRows({{I(3), D(1.0), S("x")}}));
  EXPECT_EQ(t->GetIndex("k")->Probe(Value(int64_t{3})).size(), before + 1);
}

TEST(HashIndexTest, CloneRebuildsIndexes) {
  TablePtr t = IndexedTable(100, 10);
  auto copy = t->CloneAs("copy");
  ASSERT_NE(copy->GetIndex("k"), nullptr);
  EXPECT_EQ(copy->GetIndex("k")->num_entries(),
            t->GetIndex("k")->num_entries());
}

TEST(HashIndexTest, CreateIndexOnMissingColumnFails) {
  TablePtr t = IndexedTable(10, 5);
  EXPECT_FALSE(t->CreateIndex("ghost").ok());
  EXPECT_EQ(t->indexed_columns(), std::vector<std::string>{"k"});
}

class IndexScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = IndexedTable(5'000, 200);
    stats_.Put(TableStats::Compute(*table_));
  }

  Result<std::vector<PlanNodePtr>> Plans(const std::string& sql) {
    FEDCAL_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
    FEDCAL_ASSIGN_OR_RETURN(BoundQuery bq,
                            BindQuery(stmt, {table_->schema()}));
    Planner planner(&stats_);
    return planner.PlanAlternatives(bq, 8);
  }

  static const PlanNode* Find(const PlanNodePtr& p, PlanKind k) {
    if (!p) return nullptr;
    if (p->kind == k) return p.get();
    if (auto* l = Find(p->left, k)) return l;
    return Find(p->right, k);
  }

  TablePtr table_;
  StatsCatalog stats_;
};

TEST_F(IndexScanTest, StatsRecordIndexedColumns) {
  EXPECT_EQ(stats_.GetStats("t")->indexed_columns,
            std::vector<std::string>{"k"});
}

TEST_F(IndexScanTest, PointQueryPrefersIndexScan) {
  ASSERT_OK_AND_ASSIGN(auto plans, Plans("SELECT v FROM t WHERE k = 42"));
  ASSERT_GE(plans.size(), 2u);  // index variant + full-scan variant
  // The index plan must be cheaper and therefore first.
  EXPECT_NE(Find(plans[0], PlanKind::kIndexScan), nullptr);
  EXPECT_EQ(Find(plans[0], PlanKind::kScan), nullptr);
  EXPECT_NE(Find(plans[1], PlanKind::kScan), nullptr);
  EXPECT_LT(plans[0]->estimated_work, plans[1]->estimated_work);
}

TEST_F(IndexScanTest, IndexAndScanAgreeOnResults) {
  ASSERT_OK_AND_ASSIGN(
      auto plans, Plans("SELECT v FROM t WHERE k = 42 AND v < 50"));
  ASSERT_GE(plans.size(), 2u);
  Executor exec([this](const std::string&) -> Result<TablePtr> {
    return table_;
  });
  ASSERT_OK_AND_ASSIGN(TablePtr a, exec.Execute(plans[0], nullptr));
  ASSERT_OK_AND_ASSIGN(TablePtr b, exec.Execute(plans[1], nullptr));
  EXPECT_EQ(SortedRows(*a), SortedRows(*b));
  EXPECT_GT(a->num_rows(), 0u);
}

TEST_F(IndexScanTest, RangePredicateCannotUseIndex) {
  ASSERT_OK_AND_ASSIGN(auto plans, Plans("SELECT v FROM t WHERE k > 42"));
  for (const auto& p : plans) {
    EXPECT_EQ(Find(p, PlanKind::kIndexScan), nullptr);
  }
}

TEST_F(IndexScanTest, NonIndexedColumnCannotUseIndex) {
  ASSERT_OK_AND_ASSIGN(auto plans,
                       Plans("SELECT k FROM t WHERE tag = 'a'"));
  for (const auto& p : plans) {
    EXPECT_EQ(Find(p, PlanKind::kIndexScan), nullptr);
  }
}

TEST_F(IndexScanTest, IndexScanChargesLessWork) {
  ASSERT_OK_AND_ASSIGN(auto plans, Plans("SELECT v FROM t WHERE k = 42"));
  Executor exec([this](const std::string&) -> Result<TablePtr> {
    return table_;
  });
  ExecStats via_index, via_scan;
  ASSERT_OK(exec.Execute(plans[0], &via_index).status());
  ASSERT_OK(exec.Execute(plans[1], &via_scan).status());
  EXPECT_LT(via_index.work_units, via_scan.work_units / 10.0);
}

TEST_F(IndexScanTest, IndexUseInJoinQuery) {
  // The point predicate shrinks one join side through the index.
  MiniDb db;
  db.AddTable(table_);
  auto dim = MakeTable("d", {{"k", DataType::kInt64},
                             {"label", DataType::kString}},
                       {{I(42), S("x")}, {I(43), S("y")}});
  db.AddTable(dim);
  ASSERT_OK_AND_ASSIGN(
      TablePtr joined,
      db.Run("SELECT d.label, COUNT(*) AS n FROM t, d "
             "WHERE t.k = 42 AND d.k = 42 GROUP BY d.label"));
  ASSERT_EQ(joined->num_rows(), 1u);
  EXPECT_EQ(joined->row(0)[0].AsString(), "x");
}

TEST_F(IndexScanTest, PlannerIndexesDisabledByOption) {
  auto stmt = ParseSelect("SELECT v FROM t WHERE k = 42").MoveValue();
  auto bq = BindQuery(stmt, {table_->schema()}).MoveValue();
  PlannerOptions opts;
  opts.use_indexes = false;
  Planner planner(&stats_, WorkCosts{}, opts);
  auto plans = planner.PlanAlternatives(bq, 8).MoveValue();
  for (const auto& p : plans) {
    EXPECT_EQ(Find(p, PlanKind::kIndexScan), nullptr);
  }
}

TEST_F(IndexScanTest, MissingIndexAtExecutionFailsCleanly) {
  auto plan = PlanNode::IndexScan("t", table_->schema(), "v",
                                  BoundExpr::Literal(Value(1.0)));
  Executor exec([this](const std::string&) -> Result<TablePtr> {
    return table_;
  });
  auto r = exec.Execute(plan, nullptr);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
}

}  // namespace
}  // namespace fedcal
