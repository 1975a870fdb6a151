#pragma once

// The row-at-a-time reference executor: the test oracle that the
// production (columnar) engine is checked against, and the reference the
// engine speedup benches time. Tests and benches link it
// (fedcal_row_oracle); nothing under src/ does.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/exec_config.h"
#include "engine/plan.h"
#include "obs/operator_profile.h"
#include "storage/table.h"

namespace fedcal::oracle {

/// \brief A table in row form: what the row executor scans and returns.
struct RowTable {
  Schema schema;
  std::vector<Row> rows;
  /// Value::ByteSize summed over every cell appended.
  size_t bytes = 0;
  /// The table a base-table view was read from, whose hash indexes serve
  /// IndexScan; null for results.
  TablePtr source;

  explicit RowTable(Schema s) : schema(std::move(s)) {}

  size_t num_rows() const { return rows.size(); }
  void Append(Row row);
};

using RowTablePtr = std::shared_ptr<const RowTable>;

/// Reads every row of `table` into row form. Its byte size is recounted
/// from the cells, not taken from the table.
RowTablePtr RowView(const TablePtr& table);

/// Empty when `table` holds the oracle's rows in the same order, with the
/// same Value variant in every cell (1 as int64 differs from 1.0 as
/// double here, though they compare equal), the same byte size and column
/// types, and every chunk's columns of their declared types
/// (ColumnarTable::Typed); otherwise a description of the first
/// difference.
std::string FirstDifference(const RowTable& oracle, const Table& table);

/// \brief Executes physical plans one row at a time, charging the same
/// work units as the production engine in the same order.
class RowExecutor {
 public:
  using TableResolver =
      std::function<Result<RowTablePtr>(const std::string& table_name)>;

  explicit RowExecutor(TableResolver resolver, ExecConfig config = {})
      : resolver_(std::move(resolver)), config_(config) {}

  /// A resolver over `resolve`'s tables that reads each one into row form
  /// on first use and keeps that view (not thread-safe).
  static TableResolver Caching(
      std::function<Result<TablePtr>(const std::string&)> resolve);

  /// Runs the plan to completion. `stats` (may be null) receives the
  /// work-unit accounting for the whole tree; with `config().profile` on
  /// and `profile_out` non-null, `*profile_out` receives the per-operator
  /// profile (otherwise it is reset to null).
  Result<RowTablePtr> Execute(
      const PlanNodePtr& plan, ExecStats* stats,
      std::shared_ptr<obs::OperatorProfile>* profile_out = nullptr) const;

  const ExecConfig& config() const { return config_; }

 private:
  /// `parent` null = profiling off (the hot path); non-null = append this
  /// node's profile to parent->children.
  Result<RowTablePtr> ExecuteNode(const PlanNode& node, ExecStats* stats,
                                  obs::OperatorProfile* parent) const;
  Result<RowTablePtr> DispatchNode(const PlanNode& node, ExecStats* stats,
                                   obs::OperatorProfile* prof) const;

  Result<RowTablePtr> ExecScan(const PlanNode& node, ExecStats* stats) const;
  Result<RowTablePtr> ExecIndexScan(const PlanNode& node,
                                    ExecStats* stats) const;
  Result<RowTablePtr> ExecFilter(const PlanNode& node, ExecStats* stats,
                                 obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecProject(const PlanNode& node, ExecStats* stats,
                                  obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecHashJoin(const PlanNode& node, ExecStats* stats,
                                   obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecNestedLoopJoin(const PlanNode& node,
                                         ExecStats* stats,
                                         obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecAggregate(const PlanNode& node, ExecStats* stats,
                                    obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecSort(const PlanNode& node, ExecStats* stats,
                               obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecDistinct(const PlanNode& node, ExecStats* stats,
                                   obs::OperatorProfile* prof) const;
  Result<RowTablePtr> ExecLimit(const PlanNode& node, ExecStats* stats,
                                obs::OperatorProfile* prof) const;

  Status CheckSize(size_t rows) const;

  TableResolver resolver_;
  ExecConfig config_;
};

}  // namespace fedcal::oracle
