#include "sim/simulator.h"
#include "server/remote_server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

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
  /// Unlike a bare scan, which hands back the hosted table itself, every
  /// run of this plan materializes a new table.
  PlanNodePtr LimitPlan() { return PlanNode::Limit(ScanPlan(), 1'500); }

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

// -- Runs made ahead of the job (RunAhead) ------------------------------------

std::vector<Row> FiveRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back({Value(int64_t{1000 + i}), Value(1.5)});
  }
  return rows;
}

TEST_F(RemoteServerTest, RunAheadMatchesAnInlineRun) {
  const PlanNodePtr plan = ScanPlan();
  const FragmentRunPtr run = server_->RunAhead(plan);
  ASSERT_NE(run, nullptr);
  ASSERT_OK(run->table.status());
  EXPECT_EQ(run->plan, plan);
  EXPECT_EQ(run->data_version, server_->data_version());
  ASSERT_OK_AND_ASSIGN(FragmentResult inline_run, server_->ExecuteNow(plan));
  EXPECT_EQ((*run->table)->num_rows(), inline_run.table->num_rows());
  EXPECT_EQ(run->exec_stats.work_units, inline_run.exec_stats.work_units);
  EXPECT_EQ(run->exec_stats.io_units, inline_run.exec_stats.io_units);
}

TEST_F(RemoteServerTest, JobTakesItsRunsTableAndStatsWithoutTheEngine) {
  // A run whose table the plan could never produce: the job must hand it
  // over as is, priced from the run's stats.
  auto run = std::make_shared<FragmentRun>();
  run->plan = ScanPlan();
  run->data_version = server_->data_version();
  auto marker = std::make_shared<Table>(
      "marker", Schema({{"m", DataType::kInt64}}));
  ASSERT_OK(marker->AppendRows({{Value(int64_t{7})}}));
  run->table = TablePtr(marker);
  run->exec_stats.work_units = 300.0;
  run->exec_stats.io_units = 100.0;
  run->exec_stats.rows_scanned = 11;

  Result<FragmentResult> reply = Status::Internal("no reply");
  server_->SubmitFragment(
      run->plan, [&](Result<FragmentResult> r) { reply = std::move(r); },
      run);
  sim_.Run();
  ASSERT_OK(reply.status());
  EXPECT_EQ(reply->table, marker);
  EXPECT_EQ(reply->exec_stats.work_units, 300.0);
  EXPECT_EQ(reply->exec_stats.io_units, 100.0);
  EXPECT_EQ(reply->exec_stats.rows_scanned, 11u);
  // 200 CPU units and 100 I/O units at 100k units/s each.
  EXPECT_DOUBLE_EQ(reply->server_seconds, 0.003);
  EXPECT_EQ(server_->fragments_completed(), 1u);
  EXPECT_EQ(server_->fragments_completed_from_runs(), 1u);
}

TEST_F(RemoteServerTest, AppendRowsWithABadRowAppendsNothing) {
  TablePtr data = server_->GetTable("data").MoveValue();
  ASSERT_OK(data->CreateIndex("k"));
  const size_t rows = data->num_rows();
  const size_t bytes = data->byte_size();
  const size_t entries = data->GetIndex("k")->num_entries();
  const uint64_t version = server_->data_version();
  // Two good rows ahead of the bad one: none of the batch may land.
  std::vector<Row> batch = FiveRows();
  batch.insert(batch.begin() + 2, Row{Value("not a key"), Value(1.0)});
  EXPECT_FALSE(server_->AppendRows("data", batch).ok());
  EXPECT_EQ(data->num_rows(), rows);
  EXPECT_EQ(data->byte_size(), bytes);
  EXPECT_EQ(data->GetIndex("k")->num_entries(), entries);
  EXPECT_EQ(server_->data_version(), version);
}

TEST_F(RemoteServerTest, AppendRowsBeforeTheJobStartsMakesItRunAgain) {
  // Both workers busy, so the job carrying the run waits in the queue
  // while rows land; it starts after the write and must see them.
  for (int i = 0; i < 2; ++i) {
    server_->SubmitFragment(ScanPlan(), [](Result<FragmentResult>) {});
  }
  const PlanNodePtr plan = ScanPlan();
  const FragmentRunPtr run = server_->RunAhead(plan);
  ASSERT_NE(run, nullptr);
  size_t rows = 0;
  server_->SubmitFragment(
      plan, [&](Result<FragmentResult> r) {
        ASSERT_OK(r.status());
        rows = r->table->num_rows();
      },
      run);
  ASSERT_EQ(server_->queued_fragments(), 1u);
  ASSERT_OK(server_->AppendRows("data", FiveRows()));
  EXPECT_NE(server_->data_version(), run->data_version);
  sim_.Run();
  EXPECT_EQ(rows, 2'005u);
  EXPECT_EQ(server_->fragments_completed(), 3u);
  EXPECT_EQ(server_->fragments_completed_from_runs(), 0u);
}

TEST_F(RemoteServerTest, AddTableAfterTheRunMakesTheJobRunAgain) {
  auto source = server_->GetTable("data").MoveValue();
  const PlanNodePtr plan = PlanNode::Scan("late", source->schema());
  const FragmentRunPtr run = server_->RunAhead(plan);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ(run->table.status().code(), StatusCode::kNotFound);
  ASSERT_OK(server_->AddTable(source->CloneAs("late")));
  size_t rows = 0;
  server_->SubmitFragment(
      plan, [&](Result<FragmentResult> r) {
        ASSERT_OK(r.status());
        rows = r->table->num_rows();
      },
      run);
  sim_.Run();
  EXPECT_EQ(rows, 2'000u);
  EXPECT_EQ(server_->fragments_completed_from_runs(), 0u);
}

TEST_F(RemoteServerTest, RunAnswersAtMostOneJob) {
  const PlanNodePtr plan = LimitPlan();
  const FragmentRunPtr run = server_->RunAhead(plan);
  ASSERT_NE(run, nullptr);
  const TablePtr ran = *run->table;
  std::vector<TablePtr> replies;
  for (int i = 0; i < 2; ++i) {
    server_->SubmitFragment(
        plan, [&](Result<FragmentResult> r) {
          ASSERT_OK(r.status());
          replies.push_back(r->table);
        },
        run);
  }
  sim_.Run();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], ran);
  EXPECT_NE(replies[1], ran);
  EXPECT_EQ(replies[1]->num_rows(), ran->num_rows());
  EXPECT_EQ(run->plan, nullptr);
  EXPECT_EQ(server_->fragments_completed(), 2u);
  EXPECT_EQ(server_->fragments_completed_from_runs(), 1u);
}

TEST_F(RemoteServerTest, RunForAnotherPlanIsIgnored) {
  const FragmentRunPtr run = server_->RunAhead(LimitPlan());
  ASSERT_NE(run, nullptr);
  const TablePtr ran = *run->table;
  TablePtr reply;
  server_->SubmitFragment(
      LimitPlan(), [&](Result<FragmentResult> r) { reply = r->table; }, run);
  sim_.Run();
  ASSERT_NE(reply, nullptr);
  EXPECT_NE(reply, ran);
  EXPECT_EQ(server_->fragments_completed_from_runs(), 0u);
}

TEST_F(RemoteServerTest, ErrorRunFailsLikeAnInlineFailure) {
  // The plan itself is fine: only the run's error can fail the job.
  auto run = std::make_shared<FragmentRun>();
  run->plan = ScanPlan();
  run->data_version = server_->data_version();
  run->table = Status::ExecutionError("run failed ahead");
  Status failure;
  double failed_at = -1.0;
  server_->SubmitFragment(
      run->plan, [&](Result<FragmentResult> r) {
        failure = r.status();
        failed_at = sim_.Now();
      },
      run);
  sim_.Run();
  EXPECT_EQ(failure.code(), StatusCode::kExecutionError);
  EXPECT_EQ(failure.message(), "run failed ahead");
  EXPECT_DOUBLE_EQ(failed_at, 1e-4);  // an inline failure's fast-fail time
  EXPECT_EQ(server_->fragments_failed(), 1u);
  EXPECT_EQ(server_->fragments_completed(), 0u);
}

TEST_F(RemoteServerTest, DownServerRejectsAJobWithARun) {
  const PlanNodePtr plan = ScanPlan();
  server_->SetAvailable(false);
  Status rejected;
  server_->SubmitFragment(
      plan, [&](Result<FragmentResult> r) { rejected = r.status(); },
      server_->RunAhead(plan));
  sim_.Run();
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);

  // Down while the job waited for a worker: rejected at job start.
  server_->SetAvailable(true);
  for (int i = 0; i < 2; ++i) {
    server_->SubmitFragment(plan, [](Result<FragmentResult>) {});
  }
  Status queued;
  server_->SubmitFragment(
      plan, [&](Result<FragmentResult> r) { queued = r.status(); },
      server_->RunAhead(plan));
  server_->SetAvailable(false);
  sim_.Run();
  EXPECT_EQ(queued.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server_->fragments_completed_from_runs(), 0u);
}

TEST_F(RemoteServerTest, RunProfileIsScaledWithTheSpeedsAtJobStart) {
  ServerConfig cfg = server_->config();
  cfg.exec.profile = true;
  RemoteServer s(cfg, &sim_, Rng(3));
  auto t = server_->GetTable("data").MoveValue();
  ASSERT_OK(s.AddTable(t->CloneAs("data")));
  const PlanNodePtr plan = PlanNode::Scan("data", t->schema());

  const FragmentRunPtr run = s.RunAhead(plan);  // at zero load
  ASSERT_NE(run, nullptr);
  ASSERT_NE(run->profile, nullptr);
  EXPECT_EQ(run->profile->cum_virtual_s, 0.0);  // work units only
  s.set_background_load(0.6);
  std::vector<std::shared_ptr<obs::OperatorProfile>> profiles;
  auto keep = [&](Result<FragmentResult> r) {
    ASSERT_OK(r.status());
    profiles.push_back(r->profile);
  };
  s.SubmitFragment(plan, keep, run);
  sim_.Run();
  s.SubmitFragment(plan, keep);  // inline, at the same load
  sim_.Run();
  ASSERT_EQ(profiles.size(), 2u);
  ASSERT_NE(profiles[0], nullptr);
  ASSERT_NE(profiles[1], nullptr);
  EXPECT_GT(profiles[0]->cum_virtual_s, 0.0);
  EXPECT_EQ(profiles[0]->cum_virtual_s, profiles[1]->cum_virtual_s);
  EXPECT_EQ(s.fragments_completed_from_runs(), 1u);
}

TEST_F(RemoteServerTest, RunAheadStandsAsideForAWaitingWrite) {
  // A reader holds the data lock (as a run in progress would) until
  // released; a write then waits for it. Runs that start meanwhile must
  // leave their fragment to the job rather than hold the write up further.
  std::promise<void> held;
  std::promise<void> release;
  std::thread reader([&] {
    server_->ReadStats([&](const StatsCatalog&) {
      held.set_value();
      release.get_future().wait();
      return 0;
    });
  });
  held.get_future().wait();
  const uint64_t version = server_->data_version();
  std::thread writer(
      [&] { ASSERT_OK(server_->AppendRows("data", FiveRows())); });

  const PlanNodePtr plan = ScanPlan();
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  FragmentRunPtr run = server_->RunAhead(plan);
  while (run != nullptr && std::chrono::steady_clock::now() < give_up) {
    // The writer has not announced itself yet: this run was still allowed.
    EXPECT_EQ(run->data_version, version);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    run = server_->RunAhead(plan);
  }
  EXPECT_EQ(run, nullptr);
  EXPECT_EQ(server_->data_version(), version);  // the write still waits

  release.set_value();
  reader.join();
  writer.join();
  EXPECT_EQ(server_->data_version(), version + 1);
  run = server_->RunAhead(plan);
  ASSERT_NE(run, nullptr);
  EXPECT_EQ((*run->table)->num_rows(), 2'005u);
}

TEST_F(RemoteServerTest, EffectiveSpeedFloors) {
  server_->set_background_load(0.99);
  EXPECT_GE(server_->effective_cpu_speed(),
            server_->config().cpu_speed *
                server_->config().min_speed_fraction - 1e-9);
}

}  // namespace
}  // namespace fedcal
