// The sim-vs-real differential oracle: the serving runtime's virtual
// clock advances only through event due times, so a single-worker
// serving run must reproduce the discrete-event simulator's observed
// costs — and therefore its calibration factors, routing decisions, and
// query results — exactly. Any divergence means wall-clock time or a
// thread interleaving leaked into the engine.
//
// The availability daemons stay off in both modes: their periodic
// probes run forever, and the serving dispatcher free-runs them through
// unbounded virtual time between query submissions, which is a real
// mode difference rather than a bug. Everything else is identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "workload/runner.h"

namespace fedcal {
namespace {

ScenarioConfig BaseConfig(ExecMode mode) {
  ScenarioConfig cfg;
  cfg.seed = 7;
  cfg.large_rows = 4'000;
  cfg.small_rows = 400;
  cfg.exec_mode = mode;
  cfg.serving_workers = 1;
  cfg.serving_time_scale = 0.0;
  return cfg;
}

QccConfig QuietQcc() {
  QccConfig qcc;
  qcc.enable_availability_daemon = false;
  return qcc;
}

/// One end-to-end pass: QCC attached, phase load applied, a short
/// exploration, then a closed-loop mixed workload with one stream.
WorkloadResult RunPass(Scenario* sc) {
  sc->qcc(QuietQcc()).AttachTo(&sc->integrator());
  sc->ApplyPhase(2);  // S2 loaded: calibration has something to learn
  WorkloadRunner runner(sc);
  runner.ExplorationPass(1);
  return runner.RunMixedWorkload(/*instances_per_type=*/4, /*clients=*/1);
}

TEST(ServingDifferentialTest, SingleWorkerServingMatchesSimExactly) {
  auto sim_sc = std::make_unique<Scenario>(BaseConfig(ExecMode::kSimulation));
  auto srv_sc = std::make_unique<Scenario>(BaseConfig(ExecMode::kServing));
  ASSERT_EQ(srv_sc->ctx().mode(), ExecMode::kServing);

  const WorkloadResult sim_r = RunPass(sim_sc.get());
  const WorkloadResult srv_r = RunPass(srv_sc.get());

  ASSERT_GT(sim_r.measurements.size(), 0u);
  ASSERT_EQ(srv_r.measurements.size(), sim_r.measurements.size());
  for (size_t i = 0; i < sim_r.measurements.size(); ++i) {
    const QueryMeasurement& a = sim_r.measurements[i];
    const QueryMeasurement& b = srv_r.measurements[i];
    EXPECT_EQ(a.type, b.type) << "query " << i;
    EXPECT_EQ(a.failed, b.failed) << "query " << i;
    // Identical routing decision...
    EXPECT_EQ(a.servers, b.servers) << "query " << i;
    // ...and bit-identical virtual timings (same event sequence).
    EXPECT_EQ(a.response_seconds, b.response_seconds) << "query " << i;
    EXPECT_EQ(a.total_seconds, b.total_seconds) << "query " << i;
    EXPECT_EQ(a.retries, b.retries) << "query " << i;
    EXPECT_EQ(a.reroutes, b.reroutes) << "query " << i;
  }

  // The calibrators converged to bit-identical factors.
  for (const auto& sid : sim_sc->server_ids()) {
    EXPECT_EQ(sim_sc->qcc().store().ServerFactor(sid),
              srv_sc->qcc().store().ServerFactor(sid))
        << sid;
    EXPECT_EQ(sim_sc->qcc().store().ServerSamples(sid),
              srv_sc->qcc().store().ServerSamples(sid))
        << sid;
  }

  // Same cache behaviour (hits/misses follow the same submission order).
  const PlanCache::Stats sim_cache = sim_sc->integrator().plan_cache().stats();
  const PlanCache::Stats srv_cache = srv_sc->integrator().plan_cache().stats();
  EXPECT_EQ(sim_cache.hits, srv_cache.hits);
  EXPECT_EQ(sim_cache.misses, srv_cache.misses);
  EXPECT_EQ(sim_cache.epoch_bumps, srv_cache.epoch_bumps);

  // Same routing decisions recorded on the flight recorder.
  EXPECT_EQ(sim_sc->telemetry().recorder.total_recorded(),
            srv_sc->telemetry().recorder.total_recorded());

  // Both clocks ended at the same virtual instant.
  EXPECT_EQ(sim_sc->sim().Now(), srv_sc->ctx().Now());

  // Serving ran every fragment's engine work in Route on the client
  // thread, and with no faults or writes every job took that run; the
  // simulator ran each one inline at job start.
  size_t completed = 0;
  srv_sc->ctx().RunExclusive([&] {
    for (const auto& sid : srv_sc->server_ids()) {
      const RemoteServer& s = srv_sc->server(sid);
      EXPECT_EQ(s.fragments_completed_from_runs(), s.fragments_completed())
          << sid;
      completed += s.fragments_completed();
    }
  });
  EXPECT_GT(completed, 0u);
  for (const auto& sid : sim_sc->server_ids()) {
    EXPECT_EQ(sim_sc->server(sid).fragments_completed(),
              srv_sc->server(sid).fragments_completed())
        << sid;
    EXPECT_EQ(sim_sc->server(sid).fragments_completed_from_runs(), 0u) << sid;
  }
}

TEST(ServingDifferentialTest, RunSyncReturnsRowIdenticalResults) {
  auto sim_sc = std::make_unique<Scenario>(BaseConfig(ExecMode::kSimulation));
  auto srv_sc = std::make_unique<Scenario>(BaseConfig(ExecMode::kServing));

  auto render = [](const Table& t) {
    std::string out;
    for (size_t c = 0; c < t.schema().num_columns(); ++c) {
      out += t.schema().column(c).name + ",";
    }
    out += "\n";
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (const Value& v : t.row(r)) out += v.ToString() + "|";
      out += "\n";
    }
    return out;
  };

  for (QueryType type : AllQueryTypes()) {
    const std::string sql = sim_sc->MakeQueryInstance(type, 5);
    auto sim_out = sim_sc->integrator().RunSync(sql);
    auto srv_out = srv_sc->integrator().RunSync(sql);
    ASSERT_TRUE(sim_out.ok()) << QueryTypeName(type);
    ASSERT_TRUE(srv_out.ok()) << QueryTypeName(type);
    EXPECT_EQ(sim_out->executed_plan.server_set,
              srv_out->executed_plan.server_set)
        << QueryTypeName(type);
    EXPECT_EQ(sim_out->response_seconds, srv_out->response_seconds)
        << QueryTypeName(type);
    ASSERT_NE(sim_out->table, nullptr);
    ASSERT_NE(srv_out->table, nullptr);
    EXPECT_EQ(render(*sim_out->table), render(*srv_out->table))
        << QueryTypeName(type);
  }
}

// Multi-worker serving: determinism is deliberately NOT asserted — the
// point is that a contended run completes every query correctly. This is
// the test the TSan CI job leans on.
TEST(ServingDifferentialTest, MultiWorkerServingCompletesEveryQuery) {
  ScenarioConfig cfg = BaseConfig(ExecMode::kServing);
  cfg.serving_workers = 4;
  Scenario sc(cfg);
  sc.qcc(QuietQcc()).AttachTo(&sc.integrator());
  sc.ApplyPhase(2);

  WorkloadRunner runner(&sc);
  WorkloadResult legacy;
  const WorkloadResult r =
      runner.RunMixedWorkload(/*instances_per_type=*/4, /*clients=*/4,
                              &legacy);
  EXPECT_EQ(r.measurements.size(), 16u);
  EXPECT_EQ(legacy.measurements.size(), 16u);
  EXPECT_EQ(r.failures(), 0u);
  // Observations flowed into the sharded store from all workers.
  size_t samples = 0;
  for (const auto& sid : sc.server_ids()) {
    samples += sc.qcc().store().ServerSamples(sid);
  }
  EXPECT_GT(samples, 0u);
}

}  // namespace
}  // namespace fedcal
