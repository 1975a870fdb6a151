// Serving-mode smoke for the columnar engine: multiple worker threads
// execute fragments through shared RemoteServer executors, each query
// running its own stack-local ColumnarExecutor (private arena). This is
// the test the TSan CI job leans on for the columnar path — it must be
// free of data races, and every query must complete correctly.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "workload/runner.h"

namespace fedcal {
namespace {

TEST(ColumnarServingTest, MultiWorkerServingCompletesEveryQuery) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.large_rows = 4'000;
  cfg.small_rows = 400;
  cfg.exec_mode = ExecMode::kServing;
  cfg.serving_workers = 4;
  cfg.serving_time_scale = 0.0;
  cfg.batch_rows = 256;  // many chunks -> more allocator traffic under TSan
  Scenario sc(cfg);

  QccConfig qcc;
  qcc.enable_availability_daemon = false;
  sc.qcc(qcc).AttachTo(&sc.integrator());
  sc.ApplyPhase(2);

  WorkloadRunner runner(&sc);
  const WorkloadResult r =
      runner.RunMixedWorkload(/*instances_per_type=*/4, /*clients=*/4);
  EXPECT_EQ(r.measurements.size(), 16u);
  EXPECT_EQ(r.failures(), 0u);
}

TEST(ColumnarServingTest, ClientsReadStringsWhileDispatcherGathers) {
  // QT2 and QT4 results hold strings coded in the servers' base-table
  // dictionaries (QT4's location cells share them outright). Four client
  // workers read every cell of their results on their own threads, and
  // add a string to a column gathered from each result, while the
  // dispatcher keeps executing the other clients' queries, whose gathers
  // read the same dictionaries. The added strings must land in copies.
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.large_rows = 4'000;
  cfg.small_rows = 400;
  cfg.exec_mode = ExecMode::kServing;
  cfg.serving_workers = 4;
  cfg.serving_time_scale = 0.0;
  cfg.batch_rows = 256;
  Scenario sc(cfg);
  QccConfig qcc;
  qcc.enable_availability_daemon = false;
  sc.qcc(qcc).AttachTo(&sc.integrator());

  ServingRuntime* rt = sc.serving();
  Integrator& ii = sc.integrator();
  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::atomic<size_t> failures{0};
  std::atomic<size_t> string_cells{0};
  for (int c = 0; c < kClients; ++c) {
    rt->Submit([&, c] {
      for (int i = 0; i < kRounds; ++i) {
        const QueryType type =
            (c + i) % 2 == 0 ? QueryType::kQT2 : QueryType::kQT4;
        auto compiled =
            ii.Compile(sc.MakeQueryInstance(type, (c * kRounds + i) % 10));
        if (!compiled.ok()) {
          ++failures;
          continue;
        }
        // Written under the dispatch exclusion, read after AwaitCondition.
        bool finished = false;
        TablePtr table;
        ii.Execute(*compiled, [&](Result<QueryOutcome> r) {
          if (r.ok()) table = r->table;
          finished = true;
        });
        rt->AwaitCondition([&] { return finished; });
        if (table == nullptr) {
          ++failures;
          continue;
        }
        const ColumnarTablePtr result = table->columnar();
        for (const Row& row : result->MaterializeRows()) {
          for (const Value& v : row) {
            if (!v.is_string()) continue;
            EXPECT_FALSE(v.AsString().empty());
            ++string_cells;
          }
        }
        const std::string tag =
            "client " + std::to_string(c) + " round " + std::to_string(i);
        for (const ColumnChunk& chunk : result->chunks()) {
          for (const ColumnSlice& s : chunk.columns) {
            if (s.col->type() != DataType::kString) continue;
            std::vector<uint32_t> rows(chunk.length);
            std::iota(rows.begin(), rows.end(), 0u);
            ColumnData derived(DataType::kString);
            derived.AppendGather(s, rows.data(), rows.size());
            derived.AppendValue(Value(tag));
            EXPECT_EQ(s.col->dict().Find(tag), StringDict::kAbsent);
          }
        }
      }
    });
  }
  rt->WaitIdle();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(string_cells.load(), 0u);
}

TEST(ColumnarServingTest, SingleWorkerServingMatchesSimExactly) {
  // The sim-vs-real differential oracle holds under the columnar engine
  // too: a single-worker serving run reproduces the simulator bit for bit.
  auto make = [](ExecMode mode) {
    ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.large_rows = 2'000;
    cfg.small_rows = 200;
    cfg.exec_mode = mode;
    cfg.serving_workers = 1;
    cfg.batch_rows = 512;
    return std::make_unique<Scenario>(cfg);
  };
  auto sim_sc = make(ExecMode::kSimulation);
  auto srv_sc = make(ExecMode::kServing);

  for (QueryType type : AllQueryTypes()) {
    const std::string sql = sim_sc->MakeQueryInstance(type, 3);
    auto sim_out = sim_sc->integrator().RunSync(sql);
    auto srv_out = srv_sc->integrator().RunSync(sql);
    ASSERT_TRUE(sim_out.ok()) << QueryTypeName(type);
    ASSERT_TRUE(srv_out.ok()) << QueryTypeName(type);
    EXPECT_EQ(sim_out->response_seconds, srv_out->response_seconds)
        << QueryTypeName(type);
    ASSERT_NE(sim_out->table, nullptr);
    ASSERT_NE(srv_out->table, nullptr);
    ASSERT_EQ(sim_out->table->num_rows(), srv_out->table->num_rows());
    for (size_t r = 0; r < sim_out->table->num_rows(); ++r) {
      EXPECT_EQ(sim_out->table->row(r), srv_out->table->row(r))
          << QueryTypeName(type) << " row " << r;
    }
  }
}

}  // namespace
}  // namespace fedcal
