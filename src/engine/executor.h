#pragma once

#include <memory>

#include "common/result.h"
#include "engine/columnar_executor.h"
#include "engine/exec_config.h"
#include "engine/plan.h"
#include "obs/operator_profile.h"
#include "storage/table.h"

namespace fedcal {

/// \brief Executes physical plans against in-memory tables, charging work
/// units per the ExecConfig price list.
///
/// Scan nodes reference tables by name; the executor resolves them through
/// the caller-supplied TableResolver, so the same executor serves both
/// simulated remote servers (resolving their own base tables) and the
/// integrator (resolving materialized fragment results). Each Execute runs
/// the vectorized columnar engine (ColumnarExecutor, DESIGN.md §17) on the
/// calling thread, so one Executor may serve several threads at once.
class Executor {
 public:
  using TableResolver = ColumnarExecutor::TableResolver;

  Executor(TableResolver resolver, ExecConfig config = {})
      : resolver_(std::move(resolver)), config_(config) {}

  /// Runs the plan to completion, materializing the result. `stats` (may be
  /// null) receives the work-unit accounting for the whole tree.
  Result<TablePtr> Execute(const PlanNodePtr& plan, ExecStats* stats) const {
    return Execute(plan, stats, nullptr);
  }

  /// Like Execute, additionally recording a per-operator profile tree when
  /// `config().profile` is on and `profile_out` is non-null (otherwise
  /// `*profile_out` is reset to null). Results, stats, and their
  /// accumulation order are identical with profiling on or off.
  Result<TablePtr> Execute(
      const PlanNodePtr& plan, ExecStats* stats,
      std::shared_ptr<obs::OperatorProfile>* profile_out) const {
    ColumnarExecutor engine(resolver_, config_);
    return engine.Execute(plan, stats, profile_out);
  }

  const ExecConfig& config() const { return config_; }

 private:
  TableResolver resolver_;
  ExecConfig config_;
};

}  // namespace fedcal
