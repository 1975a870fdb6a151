#pragma once

#include <string>
#include <vector>

#include "federation/decomposer.h"
#include "metawrapper/meta_wrapper.h"

namespace fedcal {

/// \brief The integrator's cost-model view of itself (configured, not
/// measured — the gap is what the §3.2 workload calibration factor
/// absorbs).
struct IiProfile {
  double configured_speed = 400'000.0;  ///< work units / second
};

/// \brief One fully specified global execution plan: a (server, plan)
/// choice per fragment plus the integrator-side merge plan and costs.
struct GlobalPlanOption {
  std::vector<FragmentOption> fragment_choices;  ///< one per fragment
  PlanNodePtr merge_plan;
  double merge_estimated_seconds = 0.0;
  double calibrated_merge_seconds = 0.0;
  /// Sum of calibrated fragment costs + calibrated merge cost: the number
  /// the optimizer ranks plans by.
  double total_calibrated_seconds = 0.0;
  double total_raw_seconds = 0.0;  ///< same, without any calibration
  std::vector<std::string> server_set;  ///< sorted unique servers used
  size_t identity = 0;  ///< structural fingerprint of the whole global plan

  /// "S1+S2: 1.234s" style one-liner.
  std::string Describe() const;
};

/// \brief Enumerates and costs global plans for a decomposed query
/// (paper §1 runtime step 1: global query optimization).
///
/// Enumeration is the compile phase: a pure function of (catalog,
/// statement). For every fragment it collects per-candidate-server plans
/// through the meta-wrapper with *raw* (configured-profile) estimates,
/// forms the Cartesian product of fragment choices, plans the
/// integrator-side merge for each combination, and ranks by total raw
/// cost. Calibration/reliability/availability/breaker state is applied
/// later, in the route phase, by PriceGlobalPlans — which is what makes
/// the enumerated options cacheable across calibration changes.
class GlobalOptimizer {
 public:
  GlobalOptimizer(const GlobalCatalog* catalog, MetaWrapper* meta_wrapper,
                  IiProfile ii_profile = {})
      : catalog_(catalog),
        meta_wrapper_(meta_wrapper),
        decomposer_(catalog),
        ii_profile_(ii_profile) {}

  /// Returns all viable global plans, cheapest (raw) first, capped at
  /// `max_global_plans`. Calibrated fields are initialized to the raw
  /// values (identity pricing) until PriceGlobalPlans runs.
  Result<std::vector<GlobalPlanOption>> Enumerate(
      uint64_t query_id, const Decomposition& decomposition,
      size_t max_alternatives_per_server = 2, size_t max_global_plans = 64);

  /// Route-phase re-costing of a parameter-substituted plan: re-annotates
  /// every fragment plan against its server's statistics, re-derives the
  /// merge cost from the refreshed fragment cardinalities, and recomputes
  /// raw totals and the identity fingerprint — reproducing exactly what
  /// Enumerate would have computed for this instance's literals. Keeps
  /// QCC's estimate/observation pairing (and therefore calibration
  /// trajectories) identical whether a statement hit the plan cache or
  /// compiled fresh. Annotates the plans in place, so they must be
  /// private to `plan` (PlanNode::SubstituteParams returns such copies).
  Status RecostSubstituted(GlobalPlanOption* plan);

  const Decomposer& decomposer() const { return decomposer_; }

 private:
  const GlobalCatalog* catalog_;
  MetaWrapper* meta_wrapper_;
  Decomposer decomposer_;
  IiProfile ii_profile_;
};

/// \brief The route phase's pricing pass: applies the calibrator's
/// *current* state (calibration factors, reliability multipliers, down
/// servers and open breakers priced at infinity) to every fragment and
/// merge cost, recomputes totals, and stable-sorts cheapest-calibrated
/// first. Runs on a fresh copy of cached options on every submission.
void PriceGlobalPlans(CostCalibrator* calibrator,
                      std::vector<GlobalPlanOption>* plans);

/// \brief The same pricing pass without the sort: plans keep their
/// positions, so callers that hold indices into the vector (the mid-query
/// re-route controller re-pricing a query's surviving candidates) can
/// correlate fresh prices with the in-flight option they came from.
void RepriceGlobalPlansInPlace(CostCalibrator* calibrator,
                               std::vector<GlobalPlanOption>* plans);

/// \brief Calibrated cost of `plan` restricted to a subset of its
/// fragments (`include[f]` != 0 selects fragment f) plus its calibrated
/// merge: the "remainder" price a mid-query switch is judged by.
/// Infinity as soon as any included fragment prices at infinity.
double RemainderCalibratedSeconds(const GlobalPlanOption& plan,
                                  const std::vector<char>& include);

}  // namespace fedcal
