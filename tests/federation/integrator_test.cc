#include "sim/simulator.h"
#include "federation/integrator.h"

#include <gtest/gtest.h>

#include "core/executor_pool.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

/// A two-server federation:
///   srvA hosts orders (6 rows) and customers (3 rows);
///   srvB hosts a replica of orders plus items (4 rows).
/// Nicknames: orders -> {srvA:orders, srvB:orders_r}, customers -> srvA,
/// items -> srvB.
class FederationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    server_a_ = std::make_unique<RemoteServer>(
        ServerConfig{.id = "srvA"}, context(), Rng(1));
    server_b_ = std::make_unique<RemoteServer>(
        ServerConfig{.id = "srvB"}, context(), Rng(2));

    auto orders = MakeTable("orders",
                            {{"oid", DataType::kInt64},
                             {"cid", DataType::kInt64},
                             {"amount", DataType::kDouble}},
                            {{I(1), I(1), D(10.0)},
                             {I(2), I(1), D(20.0)},
                             {I(3), I(2), D(30.0)},
                             {I(4), I(2), D(40.0)},
                             {I(5), I(3), D(50.0)},
                             {I(6), I(3), D(60.0)}});
    auto customers = MakeTable("customers",
                               {{"cid", DataType::kInt64},
                                {"cname", DataType::kString}},
                               {{I(1), S("ann")},
                                {I(2), S("ben")},
                                {I(3), S("cat")}});
    auto items = MakeTable("items",
                           {{"oid", DataType::kInt64},
                            {"sku", DataType::kString}},
                           {{I(1), S("a")},
                            {I(2), S("b")},
                            {I(3), S("c")},
                            {I(6), S("d")}});
    ASSERT_OK(server_a_->AddTable(orders));
    ASSERT_OK(server_a_->AddTable(customers));
    ASSERT_OK(server_b_->AddTable(orders->CloneAs("orders_r")));
    ASSERT_OK(server_b_->AddTable(items));

    network_.AddLink("srvA", LinkConfig{});
    network_.AddLink("srvB", LinkConfig{});

    ASSERT_OK(catalog_.RegisterNickname("orders", orders->schema()));
    ASSERT_OK(catalog_.AddLocation("orders", "srvA", "orders"));
    ASSERT_OK(catalog_.AddLocation("orders", "srvB", "orders_r"));
    catalog_.PutStats("orders", TableStats::Compute(*orders));
    ASSERT_OK(catalog_.RegisterNickname("customers", customers->schema()));
    ASSERT_OK(catalog_.AddLocation("customers", "srvA", "customers"));
    catalog_.PutStats("customers", TableStats::Compute(*customers));
    ASSERT_OK(catalog_.RegisterNickname("items", items->schema()));
    ASSERT_OK(catalog_.AddLocation("items", "srvB", "items"));
    catalog_.PutStats("items", TableStats::Compute(*items));

    catalog_.SetServerProfile(ServerProfile{.server_id = "srvA"});
    catalog_.SetServerProfile(ServerProfile{.server_id = "srvB"});

    wrapper_a_ = std::make_unique<RelationalWrapper>(server_a_.get());
    wrapper_b_ = std::make_unique<RelationalWrapper>(server_b_.get());

    mw_ = std::make_unique<MetaWrapper>(&catalog_, &network_, context());
    mw_->RegisterWrapper(wrapper_a_.get());
    mw_->RegisterWrapper(wrapper_b_.get());

    ii_ = std::make_unique<Integrator>(&catalog_, mw_.get(), context());
  }

  /// The context every component is built on.
  virtual ExecutionContext* context() { return &sim_; }

  Simulator sim_;
  Network network_;
  GlobalCatalog catalog_;
  std::unique_ptr<RemoteServer> server_a_;
  std::unique_ptr<RemoteServer> server_b_;
  std::unique_ptr<RelationalWrapper> wrapper_a_;
  std::unique_ptr<RelationalWrapper> wrapper_b_;
  std::unique_ptr<MetaWrapper> mw_;
  std::unique_ptr<Integrator> ii_;
};

TEST_F(FederationFixture, SingleSourceQuery) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutcome out,
      ii_->RunSync("SELECT cname FROM customers WHERE cid = 2"));
  ASSERT_EQ(out.table->num_rows(), 1u);
  EXPECT_EQ(out.table->row(0)[0].AsString(), "ben");
  EXPECT_GT(out.response_seconds, 0.0);
}

TEST_F(FederationFixture, ReplicatedTableHasTwoServerChoices) {
  ASSERT_OK_AND_ASSIGN(
      CompiledQuery compiled,
      ii_->Compile("SELECT oid FROM orders WHERE amount > 25"));
  // orders lives on both servers: expect plans on srvA and on srvB.
  std::set<std::string> servers;
  for (const auto& opt : compiled.options) {
    for (const auto& s : opt.server_set) servers.insert(s);
  }
  EXPECT_TRUE(servers.count("srvA"));
  EXPECT_TRUE(servers.count("srvB"));
}

TEST_F(FederationFixture, WholeQueryPushdownOfColocatedJoin) {
  ASSERT_OK_AND_ASSIGN(
      CompiledQuery compiled,
      ii_->Compile("SELECT c.cname, SUM(o.amount) AS total FROM orders o, "
                   "customers c WHERE o.cid = c.cid GROUP BY c.cname"));
  EXPECT_TRUE(compiled.decomposition.whole_query_pushdown);
  bool done = false;
  ii_->Execute(compiled, [&](Result<QueryOutcome> r) {
    ASSERT_OK(r.status());
    auto rows = SortedRows(*r->table);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0][0].AsString(), "ann");
    EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 30.0);
    EXPECT_EQ(rows[2][0].AsString(), "cat");
    EXPECT_DOUBLE_EQ(rows[2][1].AsDouble(), 110.0);
    done = true;
  });
  while (!done && sim_.Step()) {
  }
  EXPECT_TRUE(done);
}

TEST_F(FederationFixture, CrossServerJoinMergesAtIntegrator) {
  ASSERT_OK_AND_ASSIGN(
      CompiledQuery compiled,
      ii_->Compile("SELECT c.cname, i.sku FROM customers c, orders o, "
                   "items i WHERE c.cid = o.cid AND o.oid = i.oid "
                   "AND o.amount >= 30"));
  // customers can only run on srvA, items only on srvB: at least two
  // fragments.
  EXPECT_FALSE(compiled.decomposition.whole_query_pushdown);
  EXPECT_GE(compiled.decomposition.fragments.size(), 2u);

  bool done = false;
  ii_->Execute(compiled, [&](Result<QueryOutcome> r) {
    ASSERT_OK(r.status());
    auto rows = SortedRows(*r->table);
    // amount>=30: orders 3,4,5,6; items exist for oid 3 and 6.
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0][0].AsString(), "ben");
    EXPECT_EQ(rows[0][1].AsString(), "c");
    EXPECT_EQ(rows[1][0].AsString(), "cat");
    EXPECT_EQ(rows[1][1].AsString(), "d");
    done = true;
  });
  while (!done && sim_.Step()) {
  }
  EXPECT_TRUE(done);
}

TEST_F(FederationFixture, CrossServerAggregation) {
  ASSERT_OK_AND_ASSIGN(
      QueryOutcome out,
      ii_->RunSync("SELECT COUNT(*) AS n, SUM(o.amount) AS total "
                   "FROM orders o, items i WHERE o.oid = i.oid"));
  ASSERT_EQ(out.table->num_rows(), 1u);
  EXPECT_EQ(out.table->row(0)[0].AsInt64(), 4);
  EXPECT_DOUBLE_EQ(out.table->row(0)[1].AsDouble(), 10 + 20 + 30 + 60);
}

TEST_F(FederationFixture, ExplainRecordsWinner) {
  ASSERT_OK_AND_ASSIGN(QueryOutcome out,
                       ii_->RunSync("SELECT oid FROM orders"));
  const ExplainEntry* entry = ii_->explain().Find(out.query_id);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->fragments.size(), 1u);
  EXPECT_GT(entry->total_estimated_seconds, 0.0);
}

TEST_F(FederationFixture, PatrollerRecordsLifecycle) {
  ASSERT_OK_AND_ASSIGN(QueryOutcome out,
                       ii_->RunSync("SELECT oid FROM orders"));
  const PatrollerRecord* rec = ii_->patroller().Find(out.query_id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->completed);
  EXPECT_FALSE(rec->failed);
  EXPECT_GT(rec->response_seconds(), 0.0);
  EXPECT_NEAR(rec->response_seconds(), out.response_seconds, 1e-9);
}

TEST_F(FederationFixture, FailoverToReplicaWhenServerDown) {
  server_a_->SetAvailable(false);
  // orders has a replica on srvB; the query must still succeed.
  ASSERT_OK_AND_ASSIGN(
      QueryOutcome out,
      ii_->RunSync("SELECT oid FROM orders WHERE amount > 45"));
  EXPECT_EQ(out.table->num_rows(), 2u);
  for (const auto& s : out.executed_plan.server_set) {
    EXPECT_NE(s, "srvA");
  }
}

TEST_F(FederationFixture, FailsWhenOnlySourceIsDown) {
  server_b_->SetAvailable(false);
  auto out = ii_->RunSync("SELECT sku FROM items");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
}

TEST_F(FederationFixture, UnknownNicknameFails) {
  auto out = ii_->RunSync("SELECT x FROM nothere");
  EXPECT_FALSE(out.ok());
}

constexpr char kCrossServerJoin[] =
    "SELECT c.cname, i.sku FROM customers c, orders o, items i "
    "WHERE c.cid = o.cid AND o.oid = i.oid AND o.amount >= 30";

TEST_F(FederationFixture, SimulationLeavesFragmentsToTheServers) {
  ASSERT_OK_AND_ASSIGN(CompiledQuery compiled, ii_->Compile(kCrossServerJoin));
  EXPECT_TRUE(compiled.fragment_runs.empty());
  ASSERT_OK_AND_ASSIGN(QueryOutcome out, ii_->RunSync(kCrossServerJoin));
  EXPECT_EQ(out.table->num_rows(), 2u);
  EXPECT_EQ(server_a_->fragments_completed_from_runs(), 0u);
  EXPECT_EQ(server_b_->fragments_completed_from_runs(), 0u);
}

/// The same federation on the serving runtime, where Route runs the chosen
/// fragments on the calling thread (CompiledQuery::fragment_runs).
class ServingFederationFixture : public FederationFixture {
 protected:
  void SetUp() override {
    serving_ = std::make_unique<ServingRuntime>();
    FederationFixture::SetUp();
  }
  ExecutionContext* context() override { return serving_.get(); }

  /// Prepare (inside the dispatcher's exclusion) then Route, as a client
  /// thread does.
  Result<CompiledQuery> PrepareAndRoute(const std::string& sql,
                                        PreparedPlanPtr* prepared_out) {
    QueryContext ctx;
    Result<PreparedPlanPtr> prepared = Status::Internal("not prepared");
    serving_->RunExclusive([&] { prepared = ii_->Prepare(sql, &ctx); });
    if (!prepared.ok()) return prepared.status();
    *prepared_out = *prepared;
    return ii_->Route(*prepared, &ctx);
  }

  Result<QueryOutcome> ExecuteAndWait(const CompiledQuery& compiled) {
    bool finished = false;
    Result<QueryOutcome> outcome = Status::Internal("not finished");
    ii_->Execute(compiled, [&](Result<QueryOutcome> r) {
      outcome = std::move(r);
      finished = true;
    });
    serving_->AwaitCondition([&] { return finished; });
    return outcome;
  }

  static std::vector<std::weak_ptr<FragmentRun>> Watch(
      const CompiledQuery& compiled) {
    return {compiled.fragment_runs.begin(), compiled.fragment_runs.end()};
  }
  static bool AllExpired(const std::vector<std::weak_ptr<FragmentRun>>& w) {
    for (const auto& run : w) {
      if (!run.expired()) return false;
    }
    return true;
  }

  std::unique_ptr<ServingRuntime> serving_;
};

TEST_F(ServingFederationFixture, RouteRunsEachChosenFragment) {
  PreparedPlanPtr prepared;
  ASSERT_OK_AND_ASSIGN(CompiledQuery compiled,
                       PrepareAndRoute(kCrossServerJoin, &prepared));
  const GlobalPlanOption& chosen = compiled.options[compiled.chosen_index];
  ASSERT_GE(chosen.fragment_choices.size(), 2u);
  ASSERT_EQ(compiled.fragment_runs.size(), chosen.fragment_choices.size());
  for (size_t f = 0; f < compiled.fragment_runs.size(); ++f) {
    ASSERT_NE(compiled.fragment_runs[f], nullptr) << f;
    EXPECT_EQ(compiled.fragment_runs[f]->plan,
              chosen.fragment_choices[f].wrapper_plan.plan)
        << f;
    EXPECT_OK(compiled.fragment_runs[f]->table.status());
  }

  ASSERT_OK_AND_ASSIGN(QueryOutcome out, ExecuteAndWait(compiled));
  auto rows = SortedRows(*out.table);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1].AsString(), "c");
  EXPECT_EQ(rows[1][1].AsString(), "d");
  // Each fragment's first dispatch took its run; the jobs used them.
  for (const FragmentRunPtr& run : compiled.fragment_runs) {
    EXPECT_EQ(run->plan, nullptr);
  }
  serving_->RunExclusive([&] {
    EXPECT_EQ(server_a_->fragments_completed_from_runs() +
                  server_b_->fragments_completed_from_runs(),
              chosen.fragment_choices.size());
    EXPECT_EQ(server_a_->fragments_completed() +
                  server_b_->fragments_completed(),
              chosen.fragment_choices.size());
  });
}

TEST_F(ServingFederationFixture, TwoRoutesOfACachedStatementRunTheirOwn) {
  PreparedPlanPtr first;
  PreparedPlanPtr second;
  ASSERT_OK_AND_ASSIGN(CompiledQuery a,
                       PrepareAndRoute(kCrossServerJoin, &first));
  ASSERT_OK_AND_ASSIGN(CompiledQuery b,
                       PrepareAndRoute(kCrossServerJoin, &second));
  ASSERT_EQ(first, second);  // the second was a plan-cache hit
  ASSERT_EQ(a.fragment_runs.size(), b.fragment_runs.size());
  ASSERT_FALSE(a.fragment_runs.empty());
  for (size_t f = 0; f < a.fragment_runs.size(); ++f) {
    ASSERT_NE(a.fragment_runs[f], nullptr);
    ASSERT_NE(b.fragment_runs[f], nullptr);
    EXPECT_NE(a.fragment_runs[f], b.fragment_runs[f]) << f;
    EXPECT_NE(a.fragment_runs[f]->plan, nullptr) << f;
    EXPECT_NE(b.fragment_runs[f]->plan, nullptr) << f;
  }
  // Both execute on their own runs, neither left for the other.
  ASSERT_OK_AND_ASSIGN(QueryOutcome out_a, ExecuteAndWait(a));
  ASSERT_OK_AND_ASSIGN(QueryOutcome out_b, ExecuteAndWait(b));
  EXPECT_EQ(out_a.table->num_rows(), 2u);
  EXPECT_EQ(out_b.table->num_rows(), 2u);
  serving_->RunExclusive([&] {
    EXPECT_EQ(server_a_->fragments_completed_from_runs() +
                  server_b_->fragments_completed_from_runs(),
              2 * a.fragment_runs.size());
  });
}

TEST_F(ServingFederationFixture, CachedPreparedPlanNeverHoldsARun) {
  PreparedPlanPtr prepared;
  std::vector<std::weak_ptr<FragmentRun>> runs;
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK_AND_ASSIGN(CompiledQuery compiled,
                         PrepareAndRoute(kCrossServerJoin, &prepared));
    const auto watched = Watch(compiled);
    ASSERT_FALSE(watched.empty());
    runs.insert(runs.end(), watched.begin(), watched.end());
  }
  // The routed queries are gone; the cache and its plan are not, and
  // they must not be what keeps a run (and its result table) alive.
  ASSERT_NE(prepared, nullptr);
  EXPECT_EQ(ii_->plan_cache().size(), 1u);
  EXPECT_TRUE(AllExpired(runs));
}

TEST_F(ServingFederationFixture, OutcomeHoldsNoRun) {
  PreparedPlanPtr prepared;
  std::vector<std::weak_ptr<FragmentRun>> runs;
  Result<QueryOutcome> out = Status::Internal("not run");
  {
    ASSERT_OK_AND_ASSIGN(CompiledQuery compiled,
                         PrepareAndRoute(kCrossServerJoin, &prepared));
    runs = Watch(compiled);
    out = ExecuteAndWait(compiled);
  }
  ASSERT_OK(out.status());
  EXPECT_FALSE(out->executed_plan.fragment_choices.empty());
  // The outcome, executed_plan included, outlives the query it came from
  // without keeping its runs.
  EXPECT_TRUE(AllExpired(runs));
}

}  // namespace
}  // namespace fedcal
