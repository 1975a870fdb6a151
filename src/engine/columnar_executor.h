#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "engine/exec_config.h"
#include "engine/plan.h"
#include "expr/vector_eval.h"
#include "obs/operator_profile.h"
#include "storage/table.h"

namespace fedcal {

/// \brief Vectorized columnar plan executor: the production engine.
///
/// One instance executes one query: Executor::Execute constructs it on the
/// stack, so the per-query arena needs no locking even though the owning
/// Executor is shared across serving threads.
///
/// The contract with the row-at-a-time reference executor, kept under
/// tests/oracle as the test oracle, is strict equivalence: byte-identical
/// result tables (cell variants included) and bit-identical ExecStats
/// (the work-unit accounting is the simulation's clock; it must not depend
/// on the host-side execution strategy). Every work-unit charge below
/// mirrors the corresponding row-engine statement — same formula, same
/// floating-point accumulation order.
/// Results come back as Tables over their columnar payload, so fragment
/// results are shipped and merged without ever leaving columnar form.
///
/// Late materialization: each node is told which of its output slots its
/// parent reads (a SlotMask), and Filter, HashJoin, Sort and Distinct
/// gather only those, leaving the others as absent slices. The parent
/// reads: a Project its expressions, an Aggregate its group keys and
/// arguments; a Filter its predicate, a HashJoin its residual and a Sort
/// its keys, each plus its own parent's slots, and a HashJoin's children
/// their join keys; a Limit its parent's slots; Distinct, a nested-loop
/// join and the root every slot. Row counts, chunking and every charge are
/// unchanged, so ExecStats and the root's bytes are too, and Execute fails
/// rather than return a result with an absent slice.
///
/// A hash join lays its build side out once, by a counting sort, with
/// the build columns its sink reads copied into that order, and probes it
/// a chunk at a time into matching rows and their runs of build rows.
/// Below an Aggregate whose group keys and arguments are all bare columns
/// (or COUNT(*)), a join without residual folds the pairs straight into
/// the group accumulators and materializes nothing; every other parent
/// reads the join's gathered batches. Both sinks charge, profile and
/// order the pairs alike (DESIGN.md §17).
class ColumnarExecutor {
 public:
  using TableResolver =
      std::function<Result<TablePtr>(const std::string& table_name)>;
  /// Slot i is true when the consumer of a node's output reads column i.
  using SlotMask = std::vector<bool>;

  ColumnarExecutor(const TableResolver& resolver, const ExecConfig& config)
      : resolver_(resolver), config_(config), eval_(&arena_) {}

  Result<TablePtr> Execute(const PlanNodePtr& plan, ExecStats* stats);

  /// Profiling variant: records a per-operator tree when the config's
  /// profile flag is on and `profile_out` is non-null. Results and stats
  /// are identical either way.
  Result<TablePtr> Execute(const PlanNodePtr& plan, ExecStats* stats,
                           std::shared_ptr<obs::OperatorProfile>* profile_out);

 private:
  /// `needed` = the output slots the caller reads. `parent` null =
  /// profiling off (the hot path); non-null = append this node's profile
  /// to parent->children.
  Result<ColumnarTablePtr> ExecNode(const PlanNode& node,
                                    const SlotMask& needed, ExecStats* stats,
                                    obs::OperatorProfile* parent);
  Result<ColumnarTablePtr> DispatchNode(const PlanNode& node,
                                        const SlotMask& needed,
                                        ExecStats* stats,
                                        obs::OperatorProfile* prof);

  Result<ColumnarTablePtr> ExecScan(const PlanNode& node,
                                    ExecStats* stats);
  Result<ColumnarTablePtr> ExecIndexScan(const PlanNode& node,
                                         ExecStats* stats);
  Result<ColumnarTablePtr> ExecFilter(const PlanNode& node,
                                      const SlotMask& needed, ExecStats* stats,
                                      obs::OperatorProfile* prof);
  Result<ColumnarTablePtr> ExecProject(const PlanNode& node, ExecStats* stats,
                                       obs::OperatorProfile* prof);
  Result<ColumnarTablePtr> ExecHashJoin(const PlanNode& node,
                                        const SlotMask& needed,
                                        ExecStats* stats,
                                        obs::OperatorProfile* prof);

  /// A hash join's children's results, after the build and probe charges.
  struct JoinInputs {
    ColumnarTablePtr build;
    ColumnarTablePtr probe;
  };
  /// Runs the join's children, each producing its own slots of the
  /// [build, probe] row in `keep` plus its join keys, and charges the
  /// build and probe rows.
  Result<JoinInputs> RunJoinInputs(const PlanNode& node, const SlotMask& keep,
                                   ExecStats* stats,
                                   obs::OperatorProfile* prof);
  /// Charges `k` join output rows, one add each, and fails once
  /// `*emitted` passes max_intermediate_rows.
  Status ChargeJoinOutput(size_t k, size_t* emitted, ExecStats* stats) const;
  Result<ColumnarTablePtr> ExecNestedLoopJoin(const PlanNode& node,
                                              ExecStats* stats,
                                              obs::OperatorProfile* prof);
  Result<ColumnarTablePtr> ExecAggregate(const PlanNode& node,
                                         ExecStats* stats,
                                         obs::OperatorProfile* prof);
  /// An Aggregate over a HashJoin without residual whose keys and
  /// arguments are bare columns: runs the join with the accumulate sink.
  Result<ColumnarTablePtr> ExecAggregateOverJoin(const PlanNode& node,
                                                 ExecStats* stats,
                                                 obs::OperatorProfile* prof);
  Result<ColumnarTablePtr> ExecSort(const PlanNode& node,
                                    const SlotMask& needed, ExecStats* stats,
                                    obs::OperatorProfile* prof);
  Result<ColumnarTablePtr> ExecDistinct(const PlanNode& node,
                                        const SlotMask& needed,
                                        ExecStats* stats,
                                        obs::OperatorProfile* prof);
  Result<ColumnarTablePtr> ExecLimit(const PlanNode& node,
                                     const SlotMask& needed, ExecStats* stats,
                                     obs::OperatorProfile* prof);

  /// Scan charge shared by the root-scan fast path and ExecScan.
  void ChargeScan(const Table& table, ExecStats* stats) const;
  Status CheckSize(size_t rows) const;

  const TableResolver& resolver_;
  const ExecConfig& config_;
  Arena arena_;
  VectorEvaluator eval_;
};

}  // namespace fedcal
