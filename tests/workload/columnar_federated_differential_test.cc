// Federation-level differential oracle for the columnar engine: a testbed
// whose servers and integrator all run the vectorized columnar executor
// must reproduce the row-engine testbed *exactly* — byte-identical result
// tables (cell variants included), bit-identical simulated response times
// (the work-unit accounting is the simulation clock), identical routing.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tests/test_util.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

ScenarioConfig BaseConfig(bool columnar, bool full_replication) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.large_rows = 3'000;
  cfg.small_rows = 300;
  cfg.full_replication = full_replication;
  cfg.columnar_engine = columnar;
  cfg.batch_rows = 512;  // several chunks per fragment at this scale
  return cfg;
}

/// Byte-identical table comparison: order, values, and exact variants.
void ExpectIdenticalTables(const Table& a, const Table& b,
                           const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  EXPECT_EQ(a.byte_size(), b.byte_size()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    const Row& ra = a.row(r);
    const Row& rb = b.row(r);
    ASSERT_EQ(ra.size(), rb.size()) << label << " row " << r;
    for (size_t c = 0; c < ra.size(); ++c) {
      EXPECT_EQ(ra[c], rb[c]) << label << " cell " << r << "," << c;
      EXPECT_EQ(ra[c].is_int64(), rb[c].is_int64())
          << label << " cell " << r << "," << c;
      EXPECT_EQ(ra[c].is_double(), rb[c].is_double())
          << label << " cell " << r << "," << c;
      EXPECT_EQ(ra[c].is_null(), rb[c].is_null())
          << label << " cell " << r << "," << c;
    }
  }
}

void RunCorpus(bool full_replication) {
  auto row_sc =
      std::make_unique<Scenario>(BaseConfig(false, full_replication));
  auto col_sc =
      std::make_unique<Scenario>(BaseConfig(true, full_replication));

  for (QueryType type : AllQueryTypes()) {
    // Several instances per type: instance 0 compiles the plan, later
    // ones exercise the parameterized prepared-plan cache path under the
    // columnar engine as well.
    for (int instance : {0, 1, 5}) {
      const std::string sql = row_sc->MakeQueryInstance(type, instance);
      ASSERT_EQ(sql, col_sc->MakeQueryInstance(type, instance));
      const std::string label = std::string(QueryTypeName(type)) + "#" +
                                std::to_string(instance) +
                                (full_replication ? " full" : " partial");

      auto row_out = row_sc->integrator().RunSync(sql);
      auto col_out = col_sc->integrator().RunSync(sql);
      ASSERT_TRUE(row_out.ok()) << label << ": "
                                << row_out.status().ToString();
      ASSERT_TRUE(col_out.ok()) << label << ": "
                                << col_out.status().ToString();

      // Identical routing and bit-identical simulated timings: the
      // engine swap must be invisible to the simulation.
      EXPECT_EQ(row_out->executed_plan.server_set,
                col_out->executed_plan.server_set)
          << label;
      EXPECT_EQ(row_out->response_seconds, col_out->response_seconds)
          << label;
      EXPECT_EQ(row_out->total_response_seconds,
                col_out->total_response_seconds)
          << label;
      EXPECT_EQ(row_out->retries, col_out->retries) << label;

      ASSERT_NE(row_out->table, nullptr) << label;
      ASSERT_NE(col_out->table, nullptr) << label;
      ExpectIdenticalTables(*row_out->table, *col_out->table, label);
    }
  }

  // Both integrators saw the same cache behaviour.
  const PlanCache::Stats row_cache =
      row_sc->integrator().plan_cache().stats();
  const PlanCache::Stats col_cache =
      col_sc->integrator().plan_cache().stats();
  EXPECT_EQ(row_cache.hits, col_cache.hits);
  EXPECT_EQ(row_cache.misses, col_cache.misses);
  EXPECT_GT(col_cache.hits, 0u);  // repeated instances actually hit

  // Both virtual clocks ended at the same instant.
  EXPECT_EQ(row_sc->sim().Now(), col_sc->sim().Now());
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
  // the row engine emits them.
  auto row_sc = std::make_unique<Scenario>(BaseConfig(false, false));
  auto col_sc = std::make_unique<Scenario>(BaseConfig(true, false));
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
    auto row_out = row_sc->integrator().RunSync(sql);
    auto col_out = col_sc->integrator().RunSync(sql);
    ASSERT_TRUE(row_out.ok()) << sql << ": " << row_out.status().ToString();
    ASSERT_TRUE(col_out.ok()) << sql << ": " << col_out.status().ToString();
    const std::vector<std::string>& servers =
        col_out->executed_plan.server_set;
    EXPECT_GE(std::set<std::string>(servers.begin(), servers.end()).size(),
              2u)
        << sql;
    EXPECT_EQ(row_out->executed_plan.server_set, servers) << sql;
    EXPECT_EQ(row_out->response_seconds, col_out->response_seconds) << sql;
    ASSERT_GT(col_out->table->num_rows(), 1u) << sql;
    ExpectIdenticalTables(*row_out->table, *col_out->table, sql);
  }
}

TEST(ColumnarFederatedDifferentialTest, LoadPhasesStayIdentical) {
  // Heavy background load changes effective speeds; the columnar engine
  // must not perturb any of it.
  auto row_sc = std::make_unique<Scenario>(BaseConfig(false, true));
  auto col_sc = std::make_unique<Scenario>(BaseConfig(true, true));
  row_sc->ApplyPhase(4);
  col_sc->ApplyPhase(4);
  for (QueryType type : AllQueryTypes()) {
    const std::string sql = row_sc->MakeQueryInstance(type, 2);
    auto row_out = row_sc->integrator().RunSync(sql);
    auto col_out = col_sc->integrator().RunSync(sql);
    ASSERT_TRUE(row_out.ok()) << QueryTypeName(type);
    ASSERT_TRUE(col_out.ok()) << QueryTypeName(type);
    EXPECT_EQ(row_out->response_seconds, col_out->response_seconds)
        << QueryTypeName(type);
    ExpectIdenticalTables(*row_out->table, *col_out->table,
                          QueryTypeName(type));
  }
}

}  // namespace
}  // namespace fedcal
