#pragma once

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "cost/planner.h"
#include "cost/stats_provider.h"
#include "engine/executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/table.h"

namespace fedcal::testing {

#define ASSERT_OK(expr)                                               \
  do {                                                                \
    const auto& _st = (expr);                                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                          \
  } while (0)

#define EXPECT_OK(expr)                                               \
  do {                                                                \
    const auto& _st = (expr);                                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                          \
  } while (0)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                              \
  ASSERT_OK_AND_ASSIGN_IMPL(FEDCAL_CONCAT(_r_, __LINE__), lhs, rexpr)

#define ASSERT_OK_AND_ASSIGN_IMPL(r, lhs, rexpr)                      \
  auto r = (rexpr);                                                   \
  ASSERT_TRUE(r.ok()) << r.status().ToString();                       \
  lhs = std::move(r).MoveValue()

/// A tiny self-contained "database": named tables with stats, an executor
/// resolving against them, and helpers to run SQL end to end.
class MiniDb {
 public:
  void AddTable(TablePtr table) {
    stats_.Put(TableStats::Compute(*table));
    tables_[table->name()] = std::move(table);
  }

  Result<TablePtr> Resolve(const std::string& name) const {
    auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no table " + name);
    return it->second;
  }

  const StatsCatalog& stats() const { return stats_; }

  /// Parse + bind + plan + execute.
  Result<TablePtr> Run(const std::string& sql, ExecStats* stats = nullptr,
                       ExecConfig config = {}) {
    FEDCAL_ASSIGN_OR_RETURN(PlanNodePtr plan, Plan(sql));
    Executor exec([this](const std::string& n) { return Resolve(n); },
                  config);
    return exec.Execute(plan, stats);
  }

  /// Parse + bind + plan.
  Result<PlanNodePtr> Plan(const std::string& sql) {
    FEDCAL_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
    std::vector<Schema> schemas;
    for (const auto& tr : stmt.from) {
      FEDCAL_ASSIGN_OR_RETURN(TablePtr t, Resolve(tr.table));
      schemas.push_back(t->schema());
    }
    FEDCAL_ASSIGN_OR_RETURN(BoundQuery bq, BindQuery(stmt, schemas));
    Planner planner(&stats_);
    return planner.Plan(bq);
  }

 private:
  std::map<std::string, TablePtr> tables_;
  StatsCatalog stats_;
};

/// Builds a table from a compact spec for tests, in one bulk load. Rows
/// must fit the columns' types (an int64 in a DOUBLE column is stored as
/// a double); a bad row fails the test and yields an empty table.
inline TablePtr MakeTable(const std::string& name,
                          std::vector<ColumnDef> cols,
                          const std::vector<Row>& rows,
                          size_t chunk_rows = Table::kDefaultChunkRows) {
  Schema schema(std::move(cols));
  Result<TablePtr> t = Table::FromRows(name, schema, rows, chunk_rows);
  if (t.ok()) return t.MoveValue();
  ADD_FAILURE() << t.status().ToString();
  return std::make_shared<Table>(name, std::move(schema), chunk_rows);
}

inline Value I(int64_t v) { return Value(v); }
inline Value D(double v) { return Value(v); }
inline Value S(const char* v) { return Value(v); }
inline Value N() { return Value::Null_(); }

/// Sorts a table's rows for order-insensitive comparison.
inline std::vector<Row> SortedRows(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
      const int c = a[i].Compare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  });
  return rows;
}

/// Bit-identical stats: the work-unit accounting is the simulation clock,
/// so even floating-point totals must match exactly (same accumulation
/// order), not approximately.
inline void ExpectIdenticalStats(const ExecStats& a, const ExecStats& b,
                                 const std::string& label) {
  EXPECT_EQ(a.work_units, b.work_units) << label;
  EXPECT_EQ(a.io_units, b.io_units) << label;
  EXPECT_EQ(a.rows_scanned, b.rows_scanned) << label;
  EXPECT_EQ(a.rows_output, b.rows_output) << label;
  EXPECT_EQ(a.bytes_output, b.bytes_output) << label;
  EXPECT_EQ(a.operators_executed, b.operators_executed) << label;
}

}  // namespace fedcal::testing
