// Operator-profile correctness over the federated testbed.
//
// Differential: profiling is observability-only — with ExecConfig::profile
// on, result rows, routing decisions, and bit-identical simulated timings
// must match the unprofiled run on the full query corpus.
//
// Invariants: for a multi-fragment partial-replication query, in both exec
// modes (sim + serving), every operator carries a populated cardinality
// estimate and observation, children's cumulative cost nests under their
// parent's, and the merge consumed exactly the rows the fragments
// produced. The row oracle's own profiles of the same executed plans keep
// the same invariants.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "federation/decomposer.h"
#include "obs/flight_recorder.h"
#include "obs/operator_profile.h"
#include "tests/oracle/row_executor.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

constexpr double kEps = 1e-9;

ScenarioConfig BaseConfig(bool profile, ExecMode mode) {
  ScenarioConfig cfg;
  cfg.seed = 17;
  cfg.large_rows = 2'000;
  cfg.small_rows = 200;
  cfg.full_replication = false;  // joins decompose across servers
  cfg.batch_rows = 256;
  cfg.profile = profile;
  cfg.exec_mode = mode;
  cfg.serving_workers = 1;
  return cfg;
}

void ExpectIdenticalTables(const Table& a, const Table& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_EQ(a.row(r), b.row(r)) << label << " row " << r;
  }
}

TEST(ProfileDifferentialTest, ProfilingChangesNoResultOrRouting) {
  auto off_sc = std::make_unique<Scenario>(
      BaseConfig(false, ExecMode::kSimulation));
  auto on_sc = std::make_unique<Scenario>(
      BaseConfig(true, ExecMode::kSimulation));
  off_sc->qcc().AttachTo(&off_sc->integrator());
  on_sc->qcc().AttachTo(&on_sc->integrator());

  for (QueryType type : AllQueryTypes()) {
    for (int instance : {0, 3}) {
      const std::string sql = off_sc->MakeQueryInstance(type, instance);
      const std::string label = std::string(QueryTypeName(type)) + "#" +
                                std::to_string(instance);
      auto off = off_sc->integrator().RunSync(sql);
      auto on = on_sc->integrator().RunSync(sql);
      ASSERT_TRUE(off.ok()) << label << ": " << off.status().ToString();
      ASSERT_TRUE(on.ok()) << label << ": " << on.status().ToString();

      // Identical routing and bit-identical virtual timings: profiling
      // must be invisible to the simulation and the optimizer.
      EXPECT_EQ(off->executed_plan.server_set, on->executed_plan.server_set)
          << label;
      EXPECT_EQ(off->response_seconds, on->response_seconds) << label;
      EXPECT_EQ(off->retries, on->retries) << label;
      ASSERT_NE(off->table, nullptr) << label;
      ASSERT_NE(on->table, nullptr) << label;
      ExpectIdenticalTables(*off->table, *on->table, label);

      // The profiled run attached a profile; the unprofiled run did not.
      const obs::DecisionRecord* off_rec =
          off_sc->telemetry().recorder.Find(off->query_id);
      const obs::DecisionRecord* on_rec =
          on_sc->telemetry().recorder.Find(on->query_id);
      ASSERT_NE(off_rec, nullptr) << label;
      ASSERT_NE(on_rec, nullptr) << label;
      EXPECT_EQ(off_rec->profile, nullptr) << label;
      ASSERT_NE(on_rec->profile, nullptr) << label;
      EXPECT_EQ(on_rec->profile->query_id, on->query_id) << label;
    }
  }
  EXPECT_EQ(off_sc->sim().Now(), on_sc->sim().Now());
}

/// Asserts the per-node invariants over one operator tree.
void CheckTree(const obs::OperatorProfile& node, const std::string& label) {
  EXPECT_FALSE(node.op.empty()) << label;
  // Estimated and observed cardinality both populated: the plan annotation
  // reached the profile, and the executor stamped its output.
  EXPECT_GT(node.estimated_rows, 0.0) << label << " " << node.op;
  EXPECT_GE(node.obs_selectivity, 0.0) << label << " " << node.op;
  EXPECT_GE(node.cum_work_units, 0.0) << label << " " << node.op;
  EXPECT_GE(node.cum_virtual_s, 0.0) << label << " " << node.op;
  EXPECT_GE(node.cum_wall_s, 0.0) << label << " " << node.op;

  double child_work = 0.0;
  double child_virtual = 0.0;
  for (const auto& child : node.children) {
    ASSERT_NE(child, nullptr) << label;
    // Child cumulative <= parent cumulative, per child and summed.
    EXPECT_LE(child->cum_work_units, node.cum_work_units + kEps)
        << label << " " << node.op << "/" << child->op;
    EXPECT_LE(child->cum_virtual_s, node.cum_virtual_s + kEps)
        << label << " " << node.op << "/" << child->op;
    child_work += child->cum_work_units;
    child_virtual += child->cum_virtual_s;
    CheckTree(*child, label);
  }
  EXPECT_LE(child_work, node.cum_work_units + kEps) << label << " " << node.op;
  EXPECT_LE(child_virtual, node.cum_virtual_s + kEps)
      << label << " " << node.op;
  // The self split is exactly cum minus the children's cum.
  EXPECT_NEAR(node.self_work_units, node.cum_work_units - child_work, kEps)
      << label << " " << node.op;
}

/// Rows that the leaves of a merge tree read: each leaf scans one
/// fragment result table.
uint64_t LeafRowsIn(const obs::OperatorProfile& merge) {
  uint64_t rows = 0;
  std::vector<const obs::OperatorProfile*> stack{&merge};
  while (!stack.empty()) {
    const obs::OperatorProfile* node = stack.back();
    stack.pop_back();
    if (node->children.empty()) {
      rows += node->rows_in;
    } else {
      for (const auto& child : node->children) stack.push_back(child.get());
    }
  }
  return rows;
}

/// Runs `out`'s executed fragment and merge plans through the row oracle
/// with profiling on, and checks its profile trees.
void CheckOracleProfiles(Scenario& sc, const QueryOutcome& out,
                         const std::string& label) {
  ExecConfig config;
  config.profile = true;
  std::map<std::string, oracle::RowTablePtr> fragments;
  uint64_t fragment_rows = 0;
  const GlobalPlanOption& plan = out.executed_plan;
  for (size_t f = 0; f < plan.fragment_choices.size(); ++f) {
    const WrapperPlan& wp = plan.fragment_choices[f].wrapper_plan;
    RemoteServer& server = sc.server(wp.server_id);
    std::shared_ptr<obs::OperatorProfile> prof;
    auto table = oracle::RowExecutor(oracle::RowExecutor::Caching(
                                         [&server](const std::string& n) {
                                           return server.GetTable(n);
                                         }),
                                     config)
                     .Execute(wp.plan, nullptr, &prof);
    ASSERT_TRUE(table.ok()) << label << ": " << table.status().ToString();
    ASSERT_NE(prof, nullptr) << label;
    CheckTree(*prof, label + " oracle frag@" + wp.server_id);
    EXPECT_EQ(prof->rows_out, (*table)->num_rows()) << label;
    fragment_rows += (*table)->num_rows();
    fragments[Decomposition::FragmentTableName(f)] = table.MoveValue();
  }
  std::shared_ptr<obs::OperatorProfile> merge;
  auto merged =
      oracle::RowExecutor(
          [&](const std::string& n) -> Result<oracle::RowTablePtr> {
            return fragments.at(n);
          },
          config)
          .Execute(plan.merge_plan, nullptr, &merge);
  ASSERT_TRUE(merged.ok()) << label << ": " << merged.status().ToString();
  ASSERT_NE(merge, nullptr) << label;
  CheckTree(*merge, label + " oracle merge");
  EXPECT_EQ(LeafRowsIn(*merge), fragment_rows) << label;
}

/// `row_oracle` adds CheckOracleProfiles for every query.
void RunInvariantCase(bool row_oracle, ExecMode mode) {
  const std::string label = std::string(row_oracle ? "row oracle" : "engine") +
                            "/" + ExecModeName(mode);
  Scenario sc(BaseConfig(true, mode));
  sc.qcc().AttachTo(&sc.integrator());

  bool saw_multi_fragment = false;
  for (QueryType type : AllQueryTypes()) {
    const std::string sql = sc.MakeQueryInstance(type, 1);
    auto out = sc.integrator().RunSync(sql);
    ASSERT_TRUE(out.ok()) << label << ": " << out.status().ToString();

    const obs::DecisionRecord* record =
        sc.telemetry().recorder.Find(out->query_id);
    ASSERT_NE(record, nullptr) << label;
    ASSERT_NE(record->profile, nullptr) << label << " " << QueryTypeName(type);
    const obs::QueryProfile& profile = *record->profile;
    EXPECT_EQ(profile.query_id, out->query_id);
    ASSERT_FALSE(profile.fragments.empty()) << label;

    for (const obs::FragmentProfile& fragment : profile.fragments) {
      ASSERT_NE(fragment.root, nullptr)
          << label << " fragment " << fragment.fragment_index;
      EXPECT_FALSE(fragment.server_id.empty()) << label;
      EXPECT_GT(fragment.estimated_seconds, 0.0) << label;
      EXPECT_GT(fragment.observed_seconds, 0.0) << label;
      CheckTree(*fragment.root,
                label + " frag@" + fragment.server_id);
    }

    if (profile.fragments.size() > 1) {
      saw_multi_fragment = true;
      // The merge consumed exactly the rows the fragments produced.
      ASSERT_NE(profile.merge, nullptr) << label;
      CheckTree(*profile.merge, label + " merge");
      EXPECT_EQ(LeafRowsIn(*profile.merge), profile.FragmentOutputRows())
          << label << " " << QueryTypeName(type);
    }
    if (row_oracle) {
      CheckOracleProfiles(sc, *out,
                          label + " " + QueryTypeName(type));
    }
  }
  EXPECT_TRUE(saw_multi_fragment)
      << label << ": partial replication produced no multi-fragment plan, "
      << "the invariant case lost its teeth";
}

TEST(ProfileInvariantsTest, RowEngineSimulation) {
  RunInvariantCase(/*row_oracle=*/true, ExecMode::kSimulation);
}

TEST(ProfileInvariantsTest, ColumnarEngineSimulation) {
  RunInvariantCase(/*row_oracle=*/false, ExecMode::kSimulation);
}

TEST(ProfileInvariantsTest, RowEngineServing) {
  RunInvariantCase(/*row_oracle=*/true, ExecMode::kServing);
}

TEST(ProfileInvariantsTest, ColumnarEngineServing) {
  RunInvariantCase(/*row_oracle=*/false, ExecMode::kServing);
}

}  // namespace
}  // namespace fedcal
