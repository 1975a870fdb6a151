// Micro-benchmarks of the per-operator profiling stamp (EXPLAIN ANALYZE).
//
// Two questions, per engine (the production columnar engine and the
// row-at-a-time oracle under tests/oracle): what does leaving
// ExecConfig::profile *off* cost (it must be a single null-check branch
// per operator, within noise of the pre-profiling engines), and what does
// turning it *on* cost (one OperatorProfileScope snapshot + Finish per
// operator — tens of nanoseconds per operator per batch). Per-operator
// figures come from SetItemsProcessed(operators_executed), so the
// console's items/s column reads directly as operators stamped per second.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"

#include "cost/planner.h"
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "obs/operator_profile.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "storage/datagen.h"
#include "tests/oracle/row_executor.h"

namespace fedcal {
namespace {

TablePtr MakeLarge(size_t rows, uint64_t seed) {
  Rng rng(seed);
  TableGenSpec spec;
  spec.name = "t";
  spec.num_rows = rows;
  spec.columns = {{"id", DataType::kInt64},
                  {"k", DataType::kInt64},
                  {"v", DataType::kDouble}};
  spec.generators = {ColumnGenSpec::Serial(),
                     ColumnGenSpec::UniformInt(0, 999),
                     ColumnGenSpec::UniformDouble(0, 1000)};
  return GenerateTable(spec, &rng).MoveValue();
}

/// A scan→filter→join→aggregate pipeline: enough distinct operators that
/// the per-operator stamp cost is averaged over the shapes the federated
/// workload actually executes.
constexpr char kPipelineSql[] =
    "SELECT a.k, COUNT(*) AS c FROM a, b WHERE a.id = b.id GROUP BY a.k";

class Db {
 public:
  explicit Db(size_t rows) {
    a_ = MakeLarge(rows, 1);
    b_ = MakeLarge(rows, 2);
    stats_.Put(TableStats::Compute(*a_));
    stats_.Put(TableStats::Compute(*b_));
  }

  PlanNodePtr Plan(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    std::vector<Schema> schemas;
    for (const auto& tr : stmt->from) {
      schemas.push_back((tr.table == "a" ? a_ : b_)->schema());
    }
    auto bq = BindQuery(*stmt, schemas);
    Planner planner(&stats_);
    return planner.Plan(*bq).MoveValue();
  }

  Executor::TableResolver resolver() {
    return [this](const std::string& n) -> Result<TablePtr> {
      return n == "a" ? a_ : b_;
    };
  }

  /// The oracle's resolver: row views read once, before any timing.
  oracle::RowExecutor::TableResolver row_resolver() {
    if (a_rows_ == nullptr) {
      a_rows_ = oracle::RowView(a_);
      b_rows_ = oracle::RowView(b_);
    }
    return [this](const std::string& n) -> Result<oracle::RowTablePtr> {
      return n == "a" ? a_rows_ : b_rows_;
    };
  }

 private:
  TablePtr a_;
  TablePtr b_;
  oracle::RowTablePtr a_rows_;
  oracle::RowTablePtr b_rows_;
  StatsCatalog stats_;
};

/// Operators the plan executes per run — the per-operator denominator.
size_t OperatorsPerRun(Db& db, const PlanNodePtr& plan,
                       const ExecConfig& config) {
  ExecStats st;
  Executor exec(db.resolver(), config);
  exec.Execute(plan, &st).MoveValue();
  return st.operators_executed == 0 ? 1 : st.operators_executed;
}

void RunRowEngine(benchmark::State& state, bool profile) {
  Db db(static_cast<size_t>(state.range(0)));
  ExecConfig config;
  config.profile = profile;
  const PlanNodePtr plan = db.Plan(kPipelineSql);
  const size_t ops = OperatorsPerRun(db, plan, config);
  oracle::RowExecutor exec(db.row_resolver(), config);
  for (auto _ : state) {
    ExecStats st;
    std::shared_ptr<obs::OperatorProfile> prof;
    auto r = profile ? exec.Execute(plan, &st, &prof)
                     : exec.Execute(plan, &st);
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(prof);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}

void BM_RowEngineProfileOff(benchmark::State& state) {
  RunRowEngine(state, /*profile=*/false);
}
BENCHMARK(BM_RowEngineProfileOff)->Arg(1 << 10)->Arg(1 << 14);

void BM_RowEngineProfileOn(benchmark::State& state) {
  RunRowEngine(state, /*profile=*/true);
}
BENCHMARK(BM_RowEngineProfileOn)->Arg(1 << 10)->Arg(1 << 14);

void RunColumnarEngine(benchmark::State& state, bool profile) {
  Db db(static_cast<size_t>(state.range(0)));
  ExecConfig config;
  config.batch_rows = 4096;
  config.profile = profile;
  const PlanNodePtr plan = db.Plan(kPipelineSql);
  const size_t ops = OperatorsPerRun(db, plan, config);
  Executor exec(db.resolver(), config);
  for (auto _ : state) {
    ExecStats st;
    std::shared_ptr<obs::OperatorProfile> prof;
    auto r = profile ? exec.Execute(plan, &st, &prof)
                     : exec.Execute(plan, &st);
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(prof);
  }
  state.SetItemsProcessed(state.iterations() * ops);
}

void BM_ColumnarEngineProfileOff(benchmark::State& state) {
  RunColumnarEngine(state, /*profile=*/false);
}
BENCHMARK(BM_ColumnarEngineProfileOff)->Arg(1 << 10)->Arg(1 << 14);

void BM_ColumnarEngineProfileOn(benchmark::State& state) {
  RunColumnarEngine(state, /*profile=*/true);
}
BENCHMARK(BM_ColumnarEngineProfileOn)->Arg(1 << 10)->Arg(1 << 14);

void BM_ProfileScopeStamp(benchmark::State& state) {
  // The stamp in isolation: one scope constructed and finished per
  // operator visit — the entire marginal cost of profiling a node.
  PlanNode node;
  node.kind = PlanKind::kScan;
  node.estimated_rows = 1000.0;
  ExecStats stats;
  obs::OperatorProfile parent;
  for (auto _ : state) {
    stats.work_units += 1.0;
    stats.rows_scanned += 100;
    OperatorProfileScope scope(node, stats);
    scope.Finish(stats, /*rows_out=*/100, /*batches=*/1,
                 /*arena_bytes=*/0, &parent);
    parent.children.clear();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfileScopeStamp);

}  // namespace
}  // namespace fedcal

/// Custom BENCHMARK_MAIN: console output unchanged, per-iteration timings
/// additionally land in BENCH_micro_profile.json via the shared reporter
/// (wall-clock timings, so not byte-stable across runs).
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
      per_iter_[run.benchmark_name()] = per_iter;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  double at(const std::string& name) const {
    auto it = per_iter_.find(name);
    return it != per_iter_.end() ? it->second : 0.0;
  }

 private:
  fedcal::bench::JsonReporter* out_;
  std::map<std::string, double> per_iter_;
};

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  fedcal::bench::JsonReporter reporter("micro_profile");
  JsonCollectingReporter display(&reporter);
  benchmark::RunSpecifiedBenchmarks(&display);
  benchmark::Shutdown();

  fedcal::bench::ShapeCheck check;
  const double row_off = display.at("BM_RowEngineProfileOff/16384");
  const double row_on = display.at("BM_RowEngineProfileOn/16384");
  const double col_off = display.at("BM_ColumnarEngineProfileOff/16384");
  const double col_on = display.at("BM_ColumnarEngineProfileOn/16384");
  const double stamp = display.at("BM_ProfileScopeStamp");
  check.Expect(row_off > 0 && row_on > 0 && col_off > 0 && col_on > 0 &&
                   stamp > 0,
               "all profiling paths measured");
  // The headline claims, with generous slack for a noisy CI core: the
  // off path is free (any measured delta is noise, so allow 25%), and
  // the on path stays a small fraction of query time in both engines.
  check.Expect(row_on < row_off * 1.25,
               "row engine: profiling on within 25% of off at 16k rows");
  check.Expect(col_on < col_off * 1.25,
               "columnar engine: profiling on within 25% of off at 16k rows");
  check.Expect(stamp < 10e-6,
               "one operator stamp (scope ctor + Finish) under 10us");
  const int rc = check.Summary("micro_profile");
  const int json_rc = reporter.Finish(check);
  return rc != 0 ? rc : json_rc;
}
