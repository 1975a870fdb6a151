// Micro-benchmarks of the execution-engine substrate: operator throughput
// and the full parse/bind/plan pipeline. These are google-benchmark
// binaries measuring *wall-clock* performance of the library itself (the
// figure harnesses measure *simulated* time). The BM_<Op> benchmarks time
// the row-at-a-time oracle (tests/oracle), the reference the columnar
// engine's BM_<Op>Columnar speedups are read against.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench/bench_util.h"

#include "cost/planner.h"
#include "engine/executor.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/datagen.h"
#include "tests/oracle/row_executor.h"

namespace fedcal {
namespace {

TablePtr MakeLarge(size_t rows, uint64_t seed,
                   size_t chunk_rows = Table::kDefaultChunkRows) {
  Rng rng(seed);
  TableGenSpec spec;
  // Assigning the literal in place makes GCC 12 with the sanitizers
  // report an overlapping memcpy (-Wrestrict).
  spec.name = std::string(1, 't');
  spec.num_rows = rows;
  spec.columns = {{"id", DataType::kInt64},
                  {"k", DataType::kInt64},
                  {"v", DataType::kDouble}};
  spec.generators = {ColumnGenSpec::Serial(),
                     ColumnGenSpec::UniformInt(0, 999),
                     ColumnGenSpec::UniformDouble(0, 1000)};
  return GenerateTable(spec, &rng, chunk_rows).MoveValue();
}

/// QT4's department side: `rows` rows over 60 department numbers, each
/// with a location string.
TablePtr MakeDepartments(size_t rows) {
  Rng rng(4);
  TableGenSpec spec;
  spec.name = std::string(1, 'd');
  spec.num_rows = rows;
  spec.columns = {{"deptno", DataType::kInt64},
                  {"location", DataType::kString}};
  spec.generators = {ColumnGenSpec::UniformInt(0, 59),
                     ColumnGenSpec::StringPool({"sj", "ny", "sf", "tokyo"})};
  return GenerateTable(spec, &rng).MoveValue();
}

/// QT4's employee side: `rows` serial employee numbers, each in one of the
/// 60 departments.
TablePtr MakeEmployees(size_t rows) {
  Rng rng(5);
  TableGenSpec spec;
  spec.name = std::string(1, 'e');
  spec.num_rows = rows;
  spec.columns = {{"empno", DataType::kInt64},
                  {"workdept", DataType::kInt64}};
  spec.generators = {ColumnGenSpec::Serial(), ColumnGenSpec::UniformInt(0, 59)};
  return GenerateTable(spec, &rng).MoveValue();
}

class Db {
 public:
  /// Tables `a` and `b` of `rows` rows, their payloads cut into chunks of
  /// `chunk_rows`, and the oracle's row views of them, read once here.
  explicit Db(size_t rows, size_t chunk_rows = Table::kDefaultChunkRows) {
    Add("a", MakeLarge(rows, 1, chunk_rows));
    Add("b", MakeLarge(rows, 2, chunk_rows));
  }
  /// Tables `d` and `e`: QT4's department and employee sides.
  static Db Departments(size_t departments, size_t employees) {
    Db db;
    db.Add("d", MakeDepartments(departments));
    db.Add("e", MakeEmployees(employees));
    return db;
  }

  /// Plans and runs `sql` on the columnar engine.
  Result<TablePtr> Run(const std::string& sql, ExecConfig config = {}) {
    Executor exec([this](const std::string& n) -> Result<TablePtr> {
      return tables_.at(n);
    }, config);
    return exec.Execute(Plan(sql), nullptr);
  }

  /// Plans and runs `sql` on the row oracle.
  Result<oracle::RowTablePtr> RunRow(const std::string& sql) {
    oracle::RowExecutor exec(
        [this](const std::string& n) -> Result<oracle::RowTablePtr> {
          return rows_.at(n);
        });
    return exec.Execute(Plan(sql), nullptr);
  }

  const StatsCatalog& stats() const { return stats_; }

 private:
  Db() = default;

  void Add(const std::string& name, const TablePtr& t) {
    tables_[name] = t;
    rows_[name] = oracle::RowView(t);
    stats_.Put(TableStats::Compute(*t));
  }

  PlanNodePtr Plan(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    std::vector<Schema> schemas;
    for (const auto& tr : stmt->from) {
      schemas.push_back(tables_.at(tr.table)->schema());
    }
    auto bq = BindQuery(*stmt, schemas);
    Planner planner(&stats_);
    return planner.Plan(*bq).MoveValue();
  }

  std::map<std::string, TablePtr> tables_;
  std::map<std::string, oracle::RowTablePtr> rows_;
  StatsCatalog stats_;
};

void BM_ScanFilter(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow("SELECT id FROM a WHERE v > 500");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanFilter)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_HashJoin(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow("SELECT a.id FROM a, b WHERE a.id = b.id");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_HashAggregate(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow(
        "SELECT k, COUNT(*) AS c, SUM(v) AS s FROM a GROUP BY k");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashAggregate)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

/// A fan-out join feeding a GROUP BY: about rows² / 1000 pairs.
constexpr char kJoinAggregate[] =
    "SELECT a.k, COUNT(*) AS c, SUM(b.v) AS s FROM a, b WHERE a.k = b.k "
    "GROUP BY a.k";

void BM_HashJoinAggregate(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow(kJoinAggregate);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinAggregate)->Arg(1 << 10)->Arg(1 << 14);

/// QT3's shape: a selective filter keeps a few hundred rows of one side,
/// which are built and probed by every row of the other, for a few
/// hundred pairs into a GROUP BY on a probe-side column.
constexpr char kSmallBuildJoinAggregate[] =
    "SELECT a.k, COUNT(*) AS c, MAX(b.v) AS m FROM a, b WHERE a.id = b.id "
    "AND b.v > 990 GROUP BY a.k";

void BM_SmallBuildJoinAggregate(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow(kSmallBuildJoinAggregate);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SmallBuildJoinAggregate)->Arg(20000);

/// QT1's shape: a filter keeps about 95% of one side, whose 19k rows over
/// 20k keys are built and probed by every row of the other, for about
/// one pair per probe row into an AVG of a build column grouped by a
/// probe column.
constexpr char kOnePairJoinAggregate[] =
    "SELECT a.k, COUNT(*) AS c, AVG(b.v) AS m FROM a, b WHERE a.id = b.id "
    "AND b.v > 50 GROUP BY a.k";

void BM_OnePairJoinAggregate(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow(kOnePairJoinAggregate);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnePairJoinAggregate)->Arg(20000);

/// QT4's S3 join: about 100 department rows over 60 department numbers,
/// probed by 20k employees for about 1.7 pairs each, materializing one
/// int and one string column.
constexpr char kFanOutJoin[] =
    "SELECT e.empno, d.location FROM e, d WHERE e.workdept = d.deptno";

void BM_FanOutJoin(benchmark::State& state) {
  Db db = Db::Departments(100, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow(kFanOutJoin);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FanOutJoin)->Arg(20000);

void BM_Sort(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.RunRow("SELECT id, v FROM a ORDER BY v DESC");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sort)->Arg(1 << 10)->Arg(1 << 14);

// -- Batched-vs-row per-operator breakdown ----------------------------------
// Same queries as the row benchmarks above, executed by the columnar
// engine; comparing BM_<Op> with BM_<Op>Columnar at equal row counts gives
// the per-operator speedup.

ExecConfig ColumnarConfig(size_t batch_rows = 4096) {
  ExecConfig cfg;
  cfg.batch_rows = batch_rows;
  return cfg;
}

void BM_ScanFilterColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run("SELECT id FROM a WHERE v > 500", ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ScanFilterColumnar)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_HashJoinColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run("SELECT a.id FROM a, b WHERE a.id = b.id",
                    ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinColumnar)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_HashAggregateColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run("SELECT k, COUNT(*) AS c, SUM(v) AS s FROM a GROUP BY k",
                    ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashAggregateColumnar)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 16);

void BM_HashJoinAggregateColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run(kJoinAggregate, ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinAggregateColumnar)->Arg(1 << 10)->Arg(1 << 14);

void BM_SmallBuildJoinAggregateColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run(kSmallBuildJoinAggregate, ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SmallBuildJoinAggregateColumnar)->Arg(20000);

void BM_OnePairJoinAggregateColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run(kOnePairJoinAggregate, ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OnePairJoinAggregateColumnar)->Arg(20000);

void BM_FanOutJoinColumnar(benchmark::State& state) {
  Db db = Db::Departments(100, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run(kFanOutJoin, ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FanOutJoinColumnar)->Arg(20000);

void BM_SortColumnar(benchmark::State& state) {
  Db db(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto r = db.Run("SELECT id, v FROM a ORDER BY v DESC", ColumnarConfig());
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortColumnar)->Arg(1 << 10)->Arg(1 << 14);

// Batch-size sweep: scan+filter+project at 64k rows as the chunk size
// (of the tables' payloads and of the engine's batches) varies. Too small
// burns per-chunk overhead; too large blows the cache.
void BM_FilterBatchSweep(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  Db db(1 << 16, batch);
  for (auto _ : state) {
    auto r = db.Run("SELECT id, v FROM a WHERE v > 250 AND v < 750",
                    ColumnarConfig(batch));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 16));
}
BENCHMARK(BM_FilterBatchSweep)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(65536);

void BM_ParseBindPlan(benchmark::State& state) {
  Db db(1024);
  const std::string sql =
      "SELECT a.k, COUNT(*) AS c, AVG(a.v) AS m FROM a JOIN b ON a.id = "
      "b.id WHERE a.v > 250 AND b.k < 900 GROUP BY a.k ORDER BY c DESC "
      "LIMIT 10";
  for (auto _ : state) {
    auto stmt = ParseSelect(sql);
    auto bq = BindQuery(
        *stmt, {MakeLarge(1, 1)->schema(), MakeLarge(1, 2)->schema()});
    Planner planner(&db.stats());
    auto plan = planner.Plan(*bq);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_ParseBindPlan);

void BM_StatsCompute(benchmark::State& state) {
  TablePtr t = MakeLarge(static_cast<size_t>(state.range(0)), 3);
  for (auto _ : state) {
    auto stats = TableStats::Compute(*t);
    benchmark::DoNotOptimize(stats);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StatsCompute)->Arg(1 << 12)->Arg(1 << 16);

}  // namespace
}  // namespace fedcal

/// Custom BENCHMARK_MAIN: the console output is unchanged, but every
/// per-iteration timing also lands in BENCH_<name>.json via the shared
/// reporter (timings are wall-clock, so unlike the simulation harnesses
/// this file is not byte-stable across runs).
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(fedcal::bench::JsonReporter* out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double per_iter =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      out_->AddScalar(run.benchmark_name() + "/real_time_per_iter_s",
                      per_iter);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  fedcal::bench::JsonReporter* out_;
};

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fedcal::bench::JsonReporter reporter("micro_engine");
  JsonCollectingReporter display(&reporter);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();
  return reporter.Finish(fedcal::bench::ShapeCheck{});
}

