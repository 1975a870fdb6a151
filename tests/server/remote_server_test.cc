#include "sim/simulator.h"
#include "server/remote_server.h"

#include <gtest/gtest.h>

#include "storage/datagen.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

class RemoteServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.id = "s1";
    cfg.cpu_speed = 100'000;
    cfg.io_speed = 100'000;
    cfg.num_workers = 2;
    server_ = std::make_unique<RemoteServer>(cfg, &sim_, Rng(3));

    Rng rng(9);
    TableGenSpec spec;
    spec.name = "data";
    spec.num_rows = 2'000;
    spec.columns = {{"k", DataType::kInt64}, {"v", DataType::kDouble}};
    spec.generators = {ColumnGenSpec::UniformInt(0, 99),
                       ColumnGenSpec::UniformDouble(0, 100)};
    ASSERT_OK(server_->AddTable(GenerateTable(spec, &rng).MoveValue()));
  }

  PlanNodePtr ScanPlan() {
    auto t = server_->GetTable("data").MoveValue();
    return PlanNode::Scan("data", t->schema());
  }

  Simulator sim_;
  std::unique_ptr<RemoteServer> server_;
};

TEST_F(RemoteServerTest, TableManagement) {
  EXPECT_TRUE(server_->HasTable("data"));
  EXPECT_FALSE(server_->HasTable("ghost"));
  EXPECT_FALSE(server_->GetTable("ghost").ok());
  EXPECT_EQ(server_->table_names().size(), 1u);
  EXPECT_NE(server_->stats().GetStats("data"), nullptr);
  // Duplicate table names are rejected.
  auto dup = std::make_shared<Table>("data", Schema());
  EXPECT_EQ(server_->AddTable(dup).code(), StatusCode::kAlreadyExists);
}

TEST_F(RemoteServerTest, SubmitFragmentCompletesViaSimulator) {
  bool done = false;
  server_->SubmitFragment(ScanPlan(), [&](Result<FragmentResult> r) {
    ASSERT_OK(r.status());
    EXPECT_EQ(r->table->num_rows(), 2'000u);
    EXPECT_GT(r->server_seconds, 0.0);
    done = true;
  });
  EXPECT_FALSE(done);  // nothing runs until the simulator does
  sim_.Run();
  EXPECT_TRUE(done);
  EXPECT_EQ(server_->fragments_completed(), 1u);
  EXPECT_GT(sim_.Now(), 0.0);
}

TEST_F(RemoteServerTest, TelemetryHoldsOnlyTouchedMetrics) {
  obs::Telemetry telemetry(&sim_);
  server_->SetTelemetry(&telemetry);
  for (int i = 0; i < 3; ++i) {
    server_->SubmitFragment(ScanPlan(), [](Result<FragmentResult> r) {
      EXPECT_OK(r.status());
    });
  }
  sim_.Run();
  const obs::MetricsSnapshot snap = telemetry.metrics.Snapshot();
  EXPECT_EQ(snap.counters.at("server.submitted.s1"), 3u);
  EXPECT_EQ(snap.counters.at("server.completed.s1"), 3u);
  EXPECT_EQ(snap.histograms.at("server.exec_s.s1").count, 3u);
  EXPECT_EQ(snap.gauges.count("server.queue_depth.s1"), 1u);
  // Fates that never happened register nothing.
  EXPECT_EQ(snap.counters.count("server.rejected.s1"), 0u);
  EXPECT_EQ(snap.counters.count("server.failed.s1"), 0u);
  EXPECT_EQ(snap.counters.count("server.cancelled.s1"), 0u);

  // Re-attaching drops the cached references: the new registry gets the
  // next metrics, the old one keeps what it had.
  obs::Telemetry other(&sim_);
  server_->SetTelemetry(&other);
  server_->SetAvailable(false);
  server_->SubmitFragment(ScanPlan(), [](Result<FragmentResult> r) {
    EXPECT_FALSE(r.ok());
  });
  sim_.Run();
  const obs::MetricsSnapshot after = other.metrics.Snapshot();
  EXPECT_EQ(after.counters.at("server.rejected.s1"), 1u);
  EXPECT_EQ(after.counters.count("server.submitted.s1"), 0u);
  EXPECT_EQ(
      telemetry.metrics.Snapshot().counters.count("server.rejected.s1"), 0u);
}

TEST_F(RemoteServerTest, BackgroundLoadSlowsExecution) {
  ASSERT_OK_AND_ASSIGN(FragmentResult idle, server_->ExecuteNow(ScanPlan()));
  server_->set_background_load(0.6);
  ASSERT_OK_AND_ASSIGN(FragmentResult loaded,
                       server_->ExecuteNow(ScanPlan()));
  EXPECT_GT(loaded.server_seconds, idle.server_seconds * 1.5);
}

TEST_F(RemoteServerTest, LoadSensitivitiesAreIndependent) {
  // A pure-scan plan is all I/O; only the I/O sensitivity should matter.
  ServerConfig cfg;
  cfg.id = "iosensitive";
  cfg.cpu_speed = 100'000;
  cfg.io_speed = 100'000;
  cfg.cpu_load_sensitivity = 1.0;
  cfg.io_load_sensitivity = 0.0;
  RemoteServer s(cfg, &sim_, Rng(1));
  auto t = server_->GetTable("data").MoveValue();
  ASSERT_OK(s.AddTable(t->CloneAs("data")));
  auto plan = PlanNode::Scan("data", t->schema());
  ASSERT_OK_AND_ASSIGN(FragmentResult idle, s.ExecuteNow(plan));
  s.set_background_load(0.9);
  ASSERT_OK_AND_ASSIGN(FragmentResult loaded, s.ExecuteNow(plan));
  EXPECT_NEAR(loaded.server_seconds, idle.server_seconds, 1e-9);
}

TEST_F(RemoteServerTest, WorkersLimitConcurrency) {
  // Submit 4 fragments to a 2-worker server: completions must come in two
  // waves (3rd and 4th wait for a slot).
  std::vector<double> completion_times;
  for (int i = 0; i < 4; ++i) {
    server_->SubmitFragment(ScanPlan(), [&](Result<FragmentResult> r) {
      ASSERT_OK(r.status());
      completion_times.push_back(sim_.Now());
    });
  }
  EXPECT_EQ(server_->busy_workers(), 2);
  EXPECT_EQ(server_->queued_fragments(), 2u);
  sim_.Run();
  ASSERT_EQ(completion_times.size(), 4u);
  // Queued fragments finish ~one service time later than the first two.
  EXPECT_NEAR(completion_times[0], completion_times[1], 1e-9);
  EXPECT_GT(completion_times[2], completion_times[0] * 1.5);
  // Queueing shows up in the reported response time.
  EXPECT_EQ(server_->fragments_completed(), 4u);
}

TEST_F(RemoteServerTest, UnavailableServerRejects) {
  server_->SetAvailable(false);
  bool failed = false;
  server_->SubmitFragment(ScanPlan(), [&](Result<FragmentResult> r) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
    failed = true;
  });
  sim_.Run();
  EXPECT_TRUE(failed);
  EXPECT_FALSE(server_->ExecuteNow(ScanPlan()).ok());
}

TEST_F(RemoteServerTest, GoingDownFailsQueuedWork) {
  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 4; ++i) {
    server_->SubmitFragment(ScanPlan(), [&](Result<FragmentResult> r) {
      (r.ok() ? successes : failures) += 1;
    });
  }
  server_->SetAvailable(false);  // two running, two queued
  sim_.Run();
  EXPECT_EQ(successes + failures, 4);
  EXPECT_GE(failures, 2);  // at least the queued ones fail
}

TEST_F(RemoteServerTest, ErrorInjectionProducesTransientFaults) {
  server_->set_error_rate(1.0);
  bool failed = false;
  server_->SubmitFragment(ScanPlan(), [&](Result<FragmentResult> r) {
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
    failed = true;
  });
  sim_.Run();
  EXPECT_TRUE(failed);
  EXPECT_EQ(server_->fragments_failed(), 1u);
}

TEST_F(RemoteServerTest, BadPlanFailsFast) {
  auto plan = PlanNode::Scan("no_such_table", Schema());
  bool failed = false;
  server_->SubmitFragment(plan, [&](Result<FragmentResult> r) {
    EXPECT_FALSE(r.ok());
    failed = true;
  });
  sim_.Run();
  EXPECT_TRUE(failed);
}

TEST_F(RemoteServerTest, CancelQueuedFragmentNeverRuns) {
  // Fill both workers, then queue a third and cancel it.
  int completions = 0;
  bool cancelled_ran = false;
  for (int i = 0; i < 2; ++i) {
    server_->SubmitFragment(ScanPlan(),
                            [&](Result<FragmentResult>) { ++completions; });
  }
  const uint64_t queued = server_->SubmitFragment(
      ScanPlan(), [&](Result<FragmentResult>) { cancelled_ran = true; });
  ASSERT_NE(queued, 0u);
  EXPECT_EQ(server_->queued_fragments(), 1u);
  EXPECT_TRUE(server_->CancelFragment(queued));
  EXPECT_EQ(server_->queued_fragments(), 0u);
  sim_.Run();
  EXPECT_EQ(completions, 2);
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(server_->fragments_cancelled(), 1u);
  EXPECT_EQ(server_->fragments_completed(), 2u);
}

TEST_F(RemoteServerTest, CancelRunningFragmentFreesWorkerAndRefundsTime) {
  bool victim_ran = false;
  bool queued_ran = false;
  const uint64_t victim = server_->SubmitFragment(
      ScanPlan(), [&](Result<FragmentResult>) { victim_ran = true; });
  server_->SubmitFragment(ScanPlan(), [&](Result<FragmentResult>) {});
  // Third job waits for a slot; cancelling a *running* job must free its
  // worker so the queued job dispatches immediately.
  server_->SubmitFragment(
      ScanPlan(), [&](Result<FragmentResult>) { queued_ran = true; });
  EXPECT_EQ(server_->busy_workers(), 2);
  EXPECT_EQ(server_->queued_fragments(), 1u);
  const double busy_before = server_->total_busy_seconds();
  EXPECT_TRUE(server_->CancelFragment(victim));
  // The worker was freed and its unspent service time refunded.
  EXPECT_EQ(server_->busy_workers(), 2);  // queued job took the slot
  EXPECT_EQ(server_->queued_fragments(), 0u);
  EXPECT_LT(server_->total_busy_seconds(), busy_before + 1e-12);
  sim_.Run();
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(queued_ran);
  EXPECT_EQ(server_->fragments_cancelled(), 1u);
  EXPECT_EQ(server_->fragments_completed(), 2u);
}

TEST_F(RemoteServerTest, CancelUnknownOrFinishedJobReturnsFalse) {
  EXPECT_FALSE(server_->CancelFragment(0));
  EXPECT_FALSE(server_->CancelFragment(12345));
  const uint64_t id =
      server_->SubmitFragment(ScanPlan(), [](Result<FragmentResult>) {});
  sim_.Run();
  EXPECT_FALSE(server_->CancelFragment(id));  // already completed
  EXPECT_EQ(server_->fragments_cancelled(), 0u);
}

TEST_F(RemoteServerTest, EffectiveSpeedFloors) {
  server_->set_background_load(0.99);
  EXPECT_GE(server_->effective_cpu_speed(),
            server_->config().cpu_speed *
                server_->config().min_speed_fraction - 1e-9);
}

}  // namespace
}  // namespace fedcal
