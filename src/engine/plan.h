#pragma once

#include <memory>
#include <string>
#include <vector>

#include "expr/bound_expr.h"
#include "sql/binder.h"
#include "storage/schema.h"

namespace fedcal {

/// \brief Physical operator kinds executed by the engine.
enum class PlanKind {
  kScan,
  kIndexScan,
  kFilter,
  kProject,
  kHashJoin,
  kNestedLoopJoin,
  kAggregate,
  kSort,
  kDistinct,
  kLimit,
};

const char* PlanKindName(PlanKind k);

struct PlanNode;
using PlanNodePtr = std::shared_ptr<PlanNode>;

/// \brief One aggregate computed by an Aggregate node.
struct AggItem {
  AggFunc func = AggFunc::kCount;
  bool count_star = false;
  BoundExprPtr arg;  ///< over the child's row; nullptr for COUNT(*)
  DataType result_type = DataType::kInt64;
  std::string name;
};

/// \brief A node in a physical plan tree.
///
/// Expressions in a node always reference slots of the row produced by its
/// child (left child for unary nodes; the concatenated [left, right] row
/// for join residual predicates).
struct PlanNode {
  PlanKind kind;
  Schema output_schema;

  PlanNodePtr left;   ///< child / build side
  PlanNodePtr right;  ///< probe side (joins only)

  // kScan / kIndexScan: resolved at execution time through the executor's
  // TableResolver.
  std::string table_name;

  // kIndexScan: hash-index point lookup `index_column = index_value`.
  std::string index_column;
  BoundExprPtr index_value;  ///< constant expression

  // kFilter (and scan-level pushed predicates use a Filter node directly
  // above the scan).
  BoundExprPtr predicate;

  // kProject
  std::vector<BoundExprPtr> projections;

  // kHashJoin: equality key slots; kNestedLoopJoin uses `predicate` over
  // the concatenated row. `residual` (hash join) is also over the
  // concatenated row.
  std::vector<size_t> left_keys;
  std::vector<size_t> right_keys;
  BoundExprPtr residual;

  // kAggregate
  std::vector<BoundExprPtr> group_by;
  std::vector<AggItem> aggs;

  // kSort: (expr over child row, descending)
  std::vector<std::pair<BoundExprPtr, bool>> sort_keys;

  // kLimit
  int64_t limit = 0;

  /// Optimizer annotations (filled by the cost model; 0 before costing).
  double estimated_rows = 0.0;
  double estimated_work = 0.0;

  /// Single-line operator description.
  std::string Describe() const;
  /// Multi-line indented tree rendering.
  std::string ToString(int indent = 0) const;

  /// Structural fingerprint of the plan tree. With `normalize_literals`,
  /// plans differing only in literal values (parameterized instances of
  /// the same fragment) collide — the signature QCC keys calibration on.
  size_t Fingerprint(bool normalize_literals) const;

  /// Like Fingerprint but ignoring scanned table names: two plans that are
  /// the same shape over different replicas collide. This is the §4.1
  /// "exchangeable query fragment processing plans must be identical"
  /// test.
  size_t ShapeFingerprint(bool normalize_literals = true) const;

  /// Parameter substitution over every expression in the tree
  /// (predicates, projections, index values, aggregate args, sort keys).
  /// Returns a private copy of every node, even where nothing changed, so
  /// callers may re-annotate it (GlobalOptimizer::RecostSubstituted)
  /// without touching `plan`; expressions stay shared, being immutable.
  /// Cost annotations are copied from `plan`.
  static PlanNodePtr SubstituteParams(const PlanNodePtr& plan,
                                      const std::vector<Value>& params);

  // -- Builders ------------------------------------------------------------

  static PlanNodePtr Scan(std::string table_name, Schema schema);
  /// Point lookup through a hash index on `index_column`.
  static PlanNodePtr IndexScan(std::string table_name, Schema schema,
                               std::string index_column,
                               BoundExprPtr index_value);
  static PlanNodePtr Filter(PlanNodePtr child, BoundExprPtr predicate);
  static PlanNodePtr Project(PlanNodePtr child,
                             std::vector<BoundExprPtr> projections,
                             Schema output_schema);
  static PlanNodePtr HashJoin(PlanNodePtr left, PlanNodePtr right,
                              std::vector<size_t> left_keys,
                              std::vector<size_t> right_keys,
                              BoundExprPtr residual);
  static PlanNodePtr NestedLoopJoin(PlanNodePtr left, PlanNodePtr right,
                                    BoundExprPtr predicate);
  /// `output_schema` must match [group columns..., agg results...].
  static PlanNodePtr Aggregate(PlanNodePtr child,
                               std::vector<BoundExprPtr> group_by,
                               std::vector<AggItem> aggs,
                               Schema output_schema);
  static PlanNodePtr Sort(PlanNodePtr child,
                          std::vector<std::pair<BoundExprPtr, bool>> keys);
  static PlanNodePtr Distinct(PlanNodePtr child);
  static PlanNodePtr Limit(PlanNodePtr child, int64_t limit);

 private:
  size_t FingerprintImpl(bool normalize_literals,
                         bool include_table_names) const;
};

}  // namespace fedcal
