#include "wrapper/wrapper.h"

#include "common/macros.h"

namespace fedcal {

Result<std::vector<WrapperPlan>> RelationalWrapper::PlanFragment(
    const SelectStmt& fragment, size_t max_alternatives) {
  std::vector<Schema> schemas;
  for (const auto& tr : fragment.from) {
    FEDCAL_ASSIGN_OR_RETURN(TablePtr t, server_->GetTable(tr.table));
    schemas.push_back(t->schema());
  }
  FEDCAL_ASSIGN_OR_RETURN(BoundQuery bq, BindQuery(fragment, schemas));
  FEDCAL_ASSIGN_OR_RETURN(std::vector<PlanNodePtr> plans,
                          planner_.PlanAlternatives(bq, max_alternatives));

  std::vector<WrapperPlan> out;
  out.reserve(plans.size());
  const std::string statement = fragment.ToString();
  for (auto& plan : plans) {
    WrapperPlan wp;
    wp.server_id = server_->id();
    wp.statement = statement;
    wp.output_schema = plan->output_schema;
    wp.estimated_work = plan->estimated_work;
    wp.estimated_rows = plan->estimated_rows;
    // Rough payload estimate: 8 bytes per column plus row overhead mirrors
    // Value::ByteSize for numeric-dominated rows.
    wp.estimated_bytes =
        plan->estimated_rows *
        (8.0 * static_cast<double>(plan->output_schema.num_columns()));
    wp.signature = plan->Fingerprint(/*normalize_literals=*/true);
    wp.identity = plan->Fingerprint(/*normalize_literals=*/false);
    wp.shape = plan->ShapeFingerprint(/*normalize_literals=*/true);
    wp.plan = std::move(plan);
    out.push_back(std::move(wp));
  }
  return out;
}

Result<std::vector<WrapperPlan>> RelationalWrapper::PlanFragmentSql(
    const std::string& sql, size_t max_alternatives) {
  FEDCAL_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
  return PlanFragment(stmt, max_alternatives);
}

Status RelationalWrapper::Reestimate(WrapperPlan* wp) const {
  // Route calls this off the dispatcher, beside AddTable and RefreshStats.
  FEDCAL_RETURN_NOT_OK(server_->ReadStats([&](const StatsCatalog& stats) {
    return planner_.cost_model().Annotate(wp->plan, stats);
  }));
  wp->estimated_work = wp->plan->estimated_work;
  wp->estimated_rows = wp->plan->estimated_rows;
  wp->estimated_bytes =
      wp->plan->estimated_rows *
      (8.0 * static_cast<double>(wp->output_schema.num_columns()));
  wp->identity = wp->plan->Fingerprint(/*normalize_literals=*/false);
  return Status::OK();
}

}  // namespace fedcal
