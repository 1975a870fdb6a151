// Serving workers run QT1–QT4 while an exclusive-section loop writes to
// every server: rows no statement selects (as the benchmark's writes are),
// some with strings new to their column's dictionary, and one new
// replica. In serving mode Route runs each chosen fragment on
// its client thread (RemoteServer::RunAhead) while the dispatcher and the
// writer keep going, so this is the test the TSan CI job leans on for
// client-thread runs against writes. It must be free of data races and
// must not hang (a write waits only for runs already in progress), every
// answer must equal its no-write reference, and some jobs must have run
// their plan again inline because a write landed after their run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/replica_advisor.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

constexpr int kWorkers = 4;
constexpr int kRounds = 3;
constexpr int64_t kInsertKeyBase = 1'000'000'000;

bool SameValue(const Value& a, const Value& b) {
  if (a.is_double() || b.is_double()) {
    if (a.is_null() || b.is_null()) return a.is_null() == b.is_null();
    // Sums may add the same rows in another order on another plan.
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.ToString() == b.ToString();
}

std::vector<Row> Sorted(const Table& t) {
  std::vector<Row> rows = t.rows();
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    for (size_t c = 0; c < a.size(); ++c) {
      const std::string x = a[c].ToString();
      const std::string y = b[c].ToString();
      if (x != y) return x < y;
    }
    return false;
  });
  return rows;
}

bool SameRows(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c) {
      if (!SameValue(a[r][c], b[r][c])) return false;
    }
  }
  return true;
}

/// Rows no statement selects: sales with negative amounts (every
/// predicate keeps amount > 500 or more), employees in no department and
/// with no sales, departments with a negative budget (every predicate
/// keeps budget > 200,000 or more) and no employees. Half the sales rows
/// and every department row carry a string new to the column's
/// dictionary, so their append codes into a copy of it. No statement reads
/// sales.region, but QT2 and QT4 read department.location, so client
/// threads read the old location dictionary while the copy is made.
std::vector<Row> SalesBatch(int64_t* key, size_t large_rows) {
  std::vector<Row> rows;
  for (int i = 0; i < 8; ++i) {
    const int64_t empno = int64_t{i} * 37 % static_cast<int64_t>(large_rows);
    const int64_t id = (*key)++;
    rows.push_back({Value(id), Value(empno), Value(-1.0 - i),
                    i % 2 == 0 ? Value("north")
                               : Value("region " + std::to_string(id))});
  }
  return rows;
}
std::vector<Row> EmployeeBatch(int64_t* key) {
  std::vector<Row> rows;
  for (int i = 0; i < 4; ++i) {
    rows.push_back({Value((*key)++), Value(int64_t{61 + i}),
                    Value(50'000.0 + i), Value(int64_t{10})});
  }
  return rows;
}
std::vector<Row> DepartmentBatch(int64_t* key) {
  std::vector<Row> rows;
  for (int i = 0; i < 2; ++i) {
    const int64_t id = (*key)++;
    rows.push_back({Value(id), Value(int64_t{0}), Value(-1.0 - i),
                    Value("location " + std::to_string(id))});
  }
  return rows;
}

TEST(ServingWriteConcurrencyTest, ClientRunsNeverRaceWrites) {
  ScenarioConfig cfg;
  cfg.seed = 11;
  cfg.large_rows = 3'000;
  cfg.small_rows = 300;
  cfg.full_replication = true;
  cfg.exec_mode = ExecMode::kServing;
  cfg.serving_workers = kWorkers;
  cfg.serving_time_scale = 0.0;
  Scenario sc(cfg);
  QccConfig qcc;
  qcc.enable_availability_daemon = false;
  sc.qcc(qcc).AttachTo(&sc.integrator());

  // No-write references, one statement at a time.
  std::vector<std::string> sql;
  std::vector<std::vector<Row>> reference;
  for (QueryType type : AllQueryTypes()) {
    for (int instance = 0; instance < 3; ++instance) {
      sql.push_back(sc.MakeQueryInstance(type, instance));
      auto out = sc.integrator().RunSync(sql.back());
      ASSERT_TRUE(out.ok()) << sql.back() << ": " << out.status().ToString();
      reference.push_back(Sorted(*out->table));
    }
  }

  size_t completed_before = 0;
  size_t from_runs_before = 0;
  sc.ctx().RunExclusive([&] {
    for (const auto& id : sc.server_ids()) {
      completed_before += sc.server(id).fragments_completed();
      from_runs_before += sc.server(id).fragments_completed_from_runs();
    }
  });

  std::atomic<int> workers_done{0};
  std::atomic<size_t> answered{0};
  std::mutex mu;
  std::vector<std::string> wrong;
  ServingRuntime* rt = sc.serving();
  for (int w = 0; w < kWorkers; ++w) {
    rt->Submit([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t k = 0; k < sql.size(); ++k) {
          const size_t i = (k + static_cast<size_t>(w) * 3) % sql.size();
          auto compiled = sc.integrator().Compile(sql[i]);
          bool finished = false;
          Result<QueryOutcome> outcome = Status::Internal("not finished");
          if (compiled.ok()) {
            sc.integrator().Execute(*compiled, [&](Result<QueryOutcome> r) {
              outcome = std::move(r);
              finished = true;
            });
            rt->AwaitCondition([&] { return finished; });
          } else {
            outcome = compiled.status();
          }
          std::string error;
          if (!outcome.ok()) {
            error = sql[i] + ": " + outcome.status().ToString();
          } else if (!SameRows(Sorted(*outcome->table), reference[i])) {
            error = sql[i] + ": rows differ from the reference";
          }
          if (!error.empty()) {
            std::lock_guard<std::mutex> lock(mu);
            wrong.push_back(error);
          }
          answered.fetch_add(1);
        }
      }
      workers_done.fetch_add(1);
    });
  }

  // The writer: exclusive sections, as every server write must be, until
  // the workers are through. A write every second answer keeps it in step
  // with the queries however slow the build, so some runs stay valid to
  // their job and some are made stale by a write.
  ReplicaAdvisor advisor(&sc.catalog(), &sc.meta_wrapper());
  ReplicaRecommendation replica;
  replica.nickname = "sales";
  replica.source_server = "S1";
  replica.target_server = "S3";
  int64_t key = kInsertKeyBase;
  size_t batches = 0;
  size_t written_at = 0;
  bool replicated = false;
  while (workers_done.load() < kWorkers) {
    if (answered.load() < written_at + 2) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    written_at = answered.load();
    sc.ctx().RunExclusive([&] {
      for (const auto& id : sc.server_ids()) {
        ASSERT_OK(sc.server(id).AppendRows(
            "sales", SalesBatch(&key, cfg.large_rows)));
        ASSERT_OK(sc.server(id).AppendRows("employee", EmployeeBatch(&key)));
        ASSERT_OK(
            sc.server(id).AppendRows("department", DepartmentBatch(&key)));
      }
      if (++batches == 3) {
        ASSERT_OK(advisor.Apply(replica));
        replicated = true;
      }
    });
  }
  rt->WaitIdle();

  EXPECT_EQ(answered.load(),
            static_cast<size_t>(kWorkers * kRounds) * sql.size());
  EXPECT_TRUE(wrong.empty()) << wrong.size() << " wrong, first: "
                             << (wrong.empty() ? "" : wrong.front());
  EXPECT_TRUE(replicated);
  size_t completed = 0;
  size_t from_runs = 0;
  sc.ctx().RunExclusive([&] {
    EXPECT_TRUE(sc.server("S3").HasTable("sales_replica"));
    for (const auto& id : sc.server_ids()) {
      completed += sc.server(id).fragments_completed();
      from_runs += sc.server(id).fragments_completed_from_runs();
    }
  });
  completed -= completed_before;
  from_runs -= from_runs_before;
  // Most fragments took their client-thread run; some ran again inline
  // because a write landed after the run or was waiting when it began.
  EXPECT_GT(from_runs, 0u) << completed << " fragments completed";
  EXPECT_GT(completed, from_runs) << from_runs << " from runs";
}

}  // namespace
}  // namespace fedcal
