// Federation-level differential oracle for the columnar engine: for every
// query the testbed runs, the executed fragment plans (on their servers'
// tables) and the merge plan (over the fragments' results) run again
// through the row-at-a-time oracle (tests/oracle). Fragment and merge
// results must be byte-identical (cell variants included), their
// ExecStats bit-identical (the work-unit accounting is the simulation
// clock), and the merge's result must be the one the integrator returned.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "federation/decomposer.h"
#include "tests/oracle/row_executor.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

ScenarioConfig BaseConfig(bool full_replication) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.large_rows = 3'000;
  cfg.small_rows = 300;
  cfg.full_replication = full_replication;
  cfg.batch_rows = 512;  // several chunks per fragment at this scale
  return cfg;
}

/// Runs `outcome`'s executed plans again, fragment by fragment on the
/// tables of the servers that ran them and then the merge, through both
/// the production engine and the oracle, and checks they agree with each
/// other and with the answer the integrator returned.
void CheckAgainstOracle(Scenario& sc, const QueryOutcome& outcome,
                        const std::string& label) {
  const GlobalPlanOption& plan = outcome.executed_plan;
  const ExecConfig config = sc.integrator().config().exec;
  std::map<std::string, TablePtr> fragments;
  std::map<std::string, oracle::RowTablePtr> oracle_fragments;
  for (size_t f = 0; f < plan.fragment_choices.size(); ++f) {
    const WrapperPlan& wp = plan.fragment_choices[f].wrapper_plan;
    RemoteServer& server = sc.server(wp.server_id);
    auto resolve = [&server](const std::string& n) {
      return server.GetTable(n);
    };
    const std::string frag_label =
        label + " fragment " + std::to_string(f) + " on " + wp.server_id;
    ExecStats stats;
    auto table = Executor(resolve, server.config().exec)
                     .Execute(wp.plan, &stats);
    ASSERT_TRUE(table.ok()) << frag_label << ": "
                            << table.status().ToString();
    ExecStats oracle_stats;
    auto oracle_table =
        oracle::RowExecutor(oracle::RowExecutor::Caching(resolve))
            .Execute(wp.plan, &oracle_stats);
    ASSERT_TRUE(oracle_table.ok()) << frag_label << ": "
                                   << oracle_table.status().ToString();
    EXPECT_EQ(oracle::FirstDifference(**oracle_table, **table), "")
        << frag_label;
    ExpectIdenticalStats(oracle_stats, stats, frag_label);
    fragments[Decomposition::FragmentTableName(f)] = table.MoveValue();
    oracle_fragments[Decomposition::FragmentTableName(f)] =
        oracle_table.MoveValue();
  }

  ExecStats stats;
  auto merged =
      Executor(
          [&](const std::string& n) -> Result<TablePtr> {
            return fragments.at(n);
          },
          config)
          .Execute(plan.merge_plan, &stats);
  ASSERT_TRUE(merged.ok()) << label << ": " << merged.status().ToString();
  ExecStats oracle_stats;
  auto oracle_merged =
      oracle::RowExecutor(
          [&](const std::string& n) -> Result<oracle::RowTablePtr> {
            return oracle_fragments.at(n);
          },
          config)
          .Execute(plan.merge_plan, &oracle_stats);
  ASSERT_TRUE(oracle_merged.ok()) << label << ": "
                                  << oracle_merged.status().ToString();
  EXPECT_EQ(oracle::FirstDifference(**oracle_merged, **merged), "")
      << label << " merge";
  ExpectIdenticalStats(oracle_stats, stats, label + " merge");
  EXPECT_EQ(oracle::FirstDifference(**oracle_merged, *outcome.table), "")
      << label << " answer";
}

void RunCorpus(bool full_replication) {
  Scenario sc(BaseConfig(full_replication));
  for (QueryType type : AllQueryTypes()) {
    // Several instances per type: instance 0 compiles the plan, later
    // ones take the parameterized prepared-plan cache path.
    for (int instance : {0, 1, 5}) {
      const std::string sql = sc.MakeQueryInstance(type, instance);
      const std::string label = std::string(QueryTypeName(type)) + "#" +
                                std::to_string(instance) +
                                (full_replication ? " full" : " partial");
      auto out = sc.integrator().RunSync(sql);
      ASSERT_TRUE(out.ok()) << label << ": " << out.status().ToString();
      ASSERT_NE(out->table, nullptr) << label;
      CheckAgainstOracle(sc, *out, label);
    }
  }
  EXPECT_GT(sc.integrator().plan_cache().stats().hits, 0u);
}

TEST(ColumnarFederatedDifferentialTest, FullReplicationCorpus) {
  RunCorpus(/*full_replication=*/true);
}

TEST(ColumnarFederatedDifferentialTest, PartialReplicationCorpus) {
  // Partial layout: joins decompose into cross-server fragments that
  // merge at the integrator — the zero-copy columnar merge path.
  RunCorpus(/*full_replication=*/false);
}

TEST(ColumnarFederatedDifferentialTest, StringGroupByOverTwoServersFragments) {
  // Partial layout: employee lives only on S3 and sales off it, so these
  // joins merge fragments from two servers at the integrator, and the
  // GROUP BY's input carries strings coded in each server's own
  // dictionaries. Groups must come out in first-seen order, exactly as
  // the oracle emits them.
  Scenario sc(BaseConfig(false));
  const std::vector<std::string> sqls = {
      "SELECT s.region, COUNT(*) AS cnt, SUM(e.salary) AS total "
      "FROM employee e JOIN sales s ON s.empno = e.empno "
      "WHERE s.amount > 2000 GROUP BY s.region",
      "SELECT d.location, COUNT(*) AS cnt, MAX(s.region) AS top "
      "FROM employee e JOIN sales s ON s.empno = e.empno "
      "JOIN department d ON e.workdept = d.deptno "
      "WHERE d.budget > 400000 GROUP BY d.location",
  };
  for (const std::string& sql : sqls) {
    auto out = sc.integrator().RunSync(sql);
    ASSERT_TRUE(out.ok()) << sql << ": " << out.status().ToString();
    const std::vector<std::string>& servers = out->executed_plan.server_set;
    EXPECT_GE(std::set<std::string>(servers.begin(), servers.end()).size(),
              2u)
        << sql;
    ASSERT_GT(out->table->num_rows(), 1u) << sql;
    CheckAgainstOracle(sc, *out, sql);
  }
}

TEST(ColumnarFederatedDifferentialTest, LoadPhasesStayIdentical) {
  // Heavy background load changes effective speeds, never results.
  Scenario sc(BaseConfig(true));
  sc.ApplyPhase(4);
  for (QueryType type : AllQueryTypes()) {
    const std::string sql = sc.MakeQueryInstance(type, 2);
    auto out = sc.integrator().RunSync(sql);
    ASSERT_TRUE(out.ok()) << QueryTypeName(type);
    CheckAgainstOracle(sc, *out, QueryTypeName(type));
  }
}

}  // namespace
}  // namespace fedcal
