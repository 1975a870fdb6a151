#include "federation/global_optimizer.h"

#include <algorithm>
#include <unordered_set>

#include "common/macros.h"
#include "common/string_util.h"
#include "cost/planner.h"

namespace fedcal {

std::string GlobalPlanOption::Describe() const {
  std::vector<std::string> parts;
  for (const auto& fc : fragment_choices) {
    parts.push_back(fc.wrapper_plan.server_id);
  }
  return StringFormat("[%s] calibrated=%.4fs raw=%.4fs",
                      Join(parts, "+").c_str(), total_calibrated_seconds,
                      total_raw_seconds);
}

namespace {

/// Fabricated statistics for a fragment's result table, as seen by the
/// integrator-side merge planner. Shared between compile-time enumeration
/// and route-time re-costing of substituted plans so the two can never
/// disagree.
TableStats FragmentResultStats(size_t fragment_index,
                               const WrapperPlan& wp) {
  TableStats ts;
  ts.table_name = Decomposition::FragmentTableName(fragment_index);
  ts.num_rows = static_cast<size_t>(std::max(1.0, wp.estimated_rows));
  ts.avg_row_bytes = wp.estimated_rows > 0
                         ? wp.estimated_bytes / wp.estimated_rows
                         : 16.0;
  return ts;
}

}  // namespace

Result<std::vector<GlobalPlanOption>> GlobalOptimizer::Enumerate(
    uint64_t query_id, const Decomposition& d,
    size_t max_alternatives_per_server, size_t max_global_plans) {
  // 1. Per-fragment options from candidate servers (via MW, raw costs).
  std::vector<std::vector<FragmentOption>> per_fragment;
  for (const auto& frag : d.fragments) {
    std::vector<FragmentOption> options;
    for (const auto& server_id : frag.candidate_servers) {
      auto stmt = decomposer_.InstantiateForServer(frag, server_id);
      if (!stmt.ok()) continue;
      auto opts = meta_wrapper_->CollectFragmentPlans(
          query_id, *stmt, {server_id}, max_alternatives_per_server);
      if (!opts.ok()) continue;
      for (auto& o : *opts) options.push_back(std::move(o));
    }
    if (options.empty()) {
      return Status::PlanError("no executable plan for fragment '" +
                               frag.statement.ToString() + "'");
    }
    per_fragment.push_back(std::move(options));
  }

  // 2. Cartesian product of fragment choices.
  std::vector<std::vector<size_t>> combos{{}};
  for (const auto& options : per_fragment) {
    std::vector<std::vector<size_t>> next;
    for (const auto& combo : combos) {
      for (size_t i = 0; i < options.size(); ++i) {
        auto extended = combo;
        extended.push_back(i);
        next.push_back(std::move(extended));
        if (next.size() >= max_global_plans * 4) break;
      }
      if (next.size() >= max_global_plans * 4) break;
    }
    combos = std::move(next);
  }

  // 3. Cost each combination: fabricate fragment-result statistics, plan
  //    the integrator-side merge, total up.
  std::vector<GlobalPlanOption> plans;
  for (const auto& combo : combos) {
    GlobalPlanOption plan;
    StatsCatalog frag_stats;
    double fragments_raw = 0.0;
    size_t identity = 0x2545f4914f6cdd1dull;
    auto mix = [&identity](size_t v) {
      identity ^= v + 0x9e3779b97f4a7c15ull + (identity << 6) +
                  (identity >> 2);
    };
    for (size_t f = 0; f < combo.size(); ++f) {
      const FragmentOption& choice = per_fragment[f][combo[f]];
      plan.fragment_choices.push_back(choice);
      fragments_raw += choice.cost.raw_estimated_seconds;
      mix(choice.wrapper_plan.identity);
      mix(std::hash<std::string>{}(choice.wrapper_plan.server_id));

      frag_stats.Put(FragmentResultStats(f, choice.wrapper_plan));
    }

    Planner merge_planner(&frag_stats);
    FEDCAL_ASSIGN_OR_RETURN(plan.merge_plan,
                            merge_planner.Plan(d.merge_query));
    plan.merge_estimated_seconds =
        plan.merge_plan->estimated_work / ii_profile_.configured_speed;
    plan.total_raw_seconds = fragments_raw + plan.merge_estimated_seconds;
    // Identity pricing: callers that skip PriceGlobalPlans (tests, direct
    // enumeration) see calibrated == raw, matching an uncalibrated QCC.
    plan.calibrated_merge_seconds = plan.merge_estimated_seconds;
    plan.total_calibrated_seconds = plan.total_raw_seconds;
    mix(plan.merge_plan->Fingerprint(/*normalize_literals=*/false));
    plan.identity = identity;

    std::unordered_set<std::string> servers;
    for (const auto& fc : plan.fragment_choices) {
      servers.insert(fc.wrapper_plan.server_id);
    }
    plan.server_set.assign(servers.begin(), servers.end());
    std::sort(plan.server_set.begin(), plan.server_set.end());
    plans.push_back(std::move(plan));
  }

  std::stable_sort(plans.begin(), plans.end(),
                   [](const GlobalPlanOption& a, const GlobalPlanOption& b) {
                     return a.total_calibrated_seconds <
                            b.total_calibrated_seconds;
                   });
  if (plans.size() > max_global_plans) plans.resize(max_global_plans);
  return plans;
}

Status GlobalOptimizer::RecostSubstituted(GlobalPlanOption* plan) {
  StatsCatalog frag_stats;
  double fragments_raw = 0.0;
  size_t identity = 0x2545f4914f6cdd1dull;
  auto mix = [&identity](size_t v) {
    identity ^= v + 0x9e3779b97f4a7c15ull + (identity << 6) +
                (identity >> 2);
  };
  for (size_t f = 0; f < plan->fragment_choices.size(); ++f) {
    FragmentOption& choice = plan->fragment_choices[f];
    FEDCAL_RETURN_NOT_OK(meta_wrapper_->ReestimateOption(&choice));
    fragments_raw += choice.cost.raw_estimated_seconds;
    mix(choice.wrapper_plan.identity);
    mix(std::hash<std::string>{}(choice.wrapper_plan.server_id));
    frag_stats.Put(FragmentResultStats(f, choice.wrapper_plan));
  }
  // The merge tree is SubstituteParams' private copy, so re-annotating it
  // with instance cardinalities leaves the cached template's untouched.
  // Same default WorkCosts as Enumerate's merge planner.
  FEDCAL_RETURN_NOT_OK(CostModel{}.Annotate(plan->merge_plan, frag_stats));
  plan->merge_estimated_seconds =
      plan->merge_plan->estimated_work / ii_profile_.configured_speed;
  plan->total_raw_seconds = fragments_raw + plan->merge_estimated_seconds;
  plan->calibrated_merge_seconds = plan->merge_estimated_seconds;
  plan->total_calibrated_seconds = plan->total_raw_seconds;
  mix(plan->merge_plan->Fingerprint(/*normalize_literals=*/false));
  plan->identity = identity;
  return Status::OK();
}

void RepriceGlobalPlansInPlace(CostCalibrator* calibrator,
                               std::vector<GlobalPlanOption>* plans) {
  if (calibrator == nullptr || plans == nullptr) return;
  for (auto& plan : *plans) {
    double fragments_calibrated = 0.0;
    for (auto& fc : plan.fragment_choices) {
      fc.cost.calibrated_seconds = calibrator->CalibrateFragmentCost(
          fc.wrapper_plan.server_id, fc.wrapper_plan.signature,
          fc.cost.raw_estimated_seconds);
      fragments_calibrated += fc.cost.calibrated_seconds;
    }
    plan.calibrated_merge_seconds = calibrator->CalibrateIntegrationCost(
        plan.merge_estimated_seconds);
    plan.total_calibrated_seconds =
        fragments_calibrated + plan.calibrated_merge_seconds;
  }
}

double RemainderCalibratedSeconds(const GlobalPlanOption& plan,
                                  const std::vector<char>& include) {
  double total = plan.calibrated_merge_seconds;
  for (size_t f = 0; f < plan.fragment_choices.size(); ++f) {
    if (f >= include.size() || !include[f]) continue;
    total += plan.fragment_choices[f].cost.calibrated_seconds;
  }
  return total;
}

void PriceGlobalPlans(CostCalibrator* calibrator,
                      std::vector<GlobalPlanOption>* plans) {
  if (calibrator == nullptr || plans == nullptr) return;
  RepriceGlobalPlansInPlace(calibrator, plans);
  std::stable_sort(plans->begin(), plans->end(),
                   [](const GlobalPlanOption& a, const GlobalPlanOption& b) {
                     return a.total_calibrated_seconds <
                            b.total_calibrated_seconds;
                   });
}

}  // namespace fedcal
