// Row-vs-columnar engine wall-clock harness at 1M-row scale.
//
// Builds one federation at ScalePreset::kMedium (1M-row large tables,
// 1k-row department table), runs each QT1-QT4 corpus query once through
// the integrator to learn the global plan it executes, and then times that
// plan's engine work through both engines on the same tables: every
// fragment plan against its server's tables, then the merge plan over the
// fragments' results. The production engine is the vectorized columnar
// executor; the reference is the row-at-a-time oracle under tests/oracle,
// which reads each base table into row form once, before any timing (a
// row store's rows are simply there). The differential tests prove the
// engines byte-identical; this harness proves the columnar engine is
// *worth it* at the scale the paper's integration scenarios target.
// Partial replication decomposes joins into cross-server fragments, so
// the integrator's zero-copy columnar merge is on the measured path.
//
// JSON scalars end in the `/wall_s` and `/ratio_x` label classes that
// tools/check_bench_regression.py treats as wall-clock (loose bound) and
// positivity-only respectively; the speedup floors (QT1 >= 35x, QT3 >= 10x,
// QT2 >= 60x, corpus >= 6x) live in this harness's own shape checks.
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "federation/decomposer.h"
#include "storage/datagen.h"
#include "tests/oracle/row_executor.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

constexpr int kTimedIters = 2;

ScenarioConfig MakeConfig() {
  ScenarioConfig cfg;
  cfg.seed = 42;
  cfg.WithScale(ScalePreset::kMedium);
  // The ≥10x claim is about the 1M-row *large* tables (employee, sales).
  // The department table keeps the seed scale: its join keys come from a
  // fixed 60-value domain, so QT2's fan-out grows linearly with the
  // small-table size — the medium preset's 10k rows would put QT2 past
  // the engine's 50M-row intermediate-result safety cap on both engines.
  cfg.small_rows = 1'000;
  cfg.full_replication = false;
  return cfg;
}

void Fail(const std::string& what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// Row views of base tables, one per payload: replicas that share a
/// payload share its view.
class RowViews {
 public:
  oracle::RowTablePtr Of(const TablePtr& table) {
    oracle::RowTablePtr& view = views_[table->columnar().get()];
    if (view == nullptr) view = oracle::RowView(table);
    return view;
  }

 private:
  std::map<const ColumnarTable*, oracle::RowTablePtr> views_;
};

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One run of `plan`'s engine work on the columnar engine: returns the
/// wall seconds and stores the result's row count in `*rows`.
double TimeColumnar(Scenario& sc, const GlobalPlanOption& plan,
                    size_t* rows) {
  const auto t0 = Clock::now();
  std::map<std::string, TablePtr> fragments;
  for (size_t f = 0; f < plan.fragment_choices.size(); ++f) {
    const WrapperPlan& wp = plan.fragment_choices[f].wrapper_plan;
    RemoteServer& server = sc.server(wp.server_id);
    auto table = Executor([&server](const std::string& n) {
                   return server.GetTable(n);
                 }, server.config().exec)
                     .Execute(wp.plan, nullptr);
    if (!table.ok()) Fail("columnar fragment", table.status());
    fragments[Decomposition::FragmentTableName(f)] = table.MoveValue();
  }
  auto merged = Executor(
                    [&](const std::string& n) -> Result<TablePtr> {
                      return fragments.at(n);
                    },
                    sc.integrator().config().exec)
                    .Execute(plan.merge_plan, nullptr);
  if (!merged.ok()) Fail("columnar merge", merged.status());
  const double s = SecondsSince(t0);
  *rows = (*merged)->num_rows();
  return s;
}

/// TimeColumnar's work on the row oracle, over `views`' row views.
double TimeRow(Scenario& sc, const GlobalPlanOption& plan, RowViews* views,
               size_t* rows) {
  // Read every base table the fragments scan before the clock starts.
  std::vector<oracle::RowExecutor::TableResolver> resolvers;
  for (const FragmentOption& fc : plan.fragment_choices) {
    RemoteServer& server = sc.server(fc.wrapper_plan.server_id);
    auto local = std::make_shared<std::map<std::string, oracle::RowTablePtr>>();
    for (const std::string& name : server.table_names()) {
      (*local)[name] = views->Of(server.GetTable(name).MoveValue());
    }
    resolvers.push_back(
        [local](const std::string& n) -> Result<oracle::RowTablePtr> {
          auto it = local->find(n);
          if (it == local->end()) return Status::NotFound("no table " + n);
          return it->second;
        });
  }
  const auto t0 = Clock::now();
  std::map<std::string, oracle::RowTablePtr> fragments;
  for (size_t f = 0; f < plan.fragment_choices.size(); ++f) {
    const WrapperPlan& wp = plan.fragment_choices[f].wrapper_plan;
    auto table =
        oracle::RowExecutor(resolvers[f], sc.server(wp.server_id).config().exec)
            .Execute(wp.plan, nullptr);
    if (!table.ok()) Fail("row fragment", table.status());
    fragments[Decomposition::FragmentTableName(f)] = table.MoveValue();
  }
  auto merged = oracle::RowExecutor(
                    [&](const std::string& n) -> Result<oracle::RowTablePtr> {
                      return fragments.at(n);
                    },
                    sc.integrator().config().exec)
                    .Execute(plan.merge_plan, nullptr);
  if (!merged.ok()) Fail("row merge", merged.status());
  const double s = SecondsSince(t0);
  *rows = (*merged)->num_rows();
  return s;
}

struct EngineTimes {
  // One wall-seconds entry per query type in corpus order (best of
  // kTimedIters).
  std::vector<double> wall_s;
  std::vector<size_t> result_rows;
  double total_s = 0;
};

}  // namespace
}  // namespace fedcal

int main() {
  using namespace fedcal;  // NOLINT

  std::printf("columnar speedup harness: ScalePreset::kMedium (%s), "
              "partial replication, each query's executed plans, %d timed "
              "iters (best-of)\n",
              ScalePresetName(ScalePreset::kMedium), kTimedIters);
  bench::PrintRule();

  Scenario sc(MakeConfig());
  RowViews views;
  EngineTimes row;
  EngineTimes col;
  std::vector<size_t> answer_rows;
  for (QueryType type : AllQueryTypes()) {
    const std::string sql = sc.MakeQueryInstance(type, 0);
    auto out = sc.integrator().RunSync(sql);
    if (!out.ok()) Fail(sql, out.status());
    answer_rows.push_back(out->table->num_rows());
    std::printf("[%s] timing the row oracle and the columnar engine\n",
                QueryTypeName(type));
    double row_best = 0;
    double col_best = 0;
    size_t row_rows = 0;
    size_t col_rows = 0;
    for (int it = 0; it < kTimedIters; ++it) {
      const double r = TimeRow(sc, out->executed_plan, &views, &row_rows);
      const double c = TimeColumnar(sc, out->executed_plan, &col_rows);
      if (it == 0 || r < row_best) row_best = r;
      if (it == 0 || c < col_best) col_best = c;
    }
    row.wall_s.push_back(row_best);
    row.result_rows.push_back(row_rows);
    row.total_s += row_best;
    col.wall_s.push_back(col_best);
    col.result_rows.push_back(col_rows);
    col.total_s += col_best;
  }

  bench::JsonReporter reporter("columnar_speedup");
  bench::ShapeCheck check;

  std::vector<std::string> names;
  for (QueryType type : AllQueryTypes()) names.push_back(QueryTypeName(type));

  bench::PrintRule();
  std::printf("%-6s %14s %14s %10s\n", "query", "row wall (s)",
              "col wall (s)", "speedup");
  double qt1_ratio = 0;
  double qt2_ratio = 0;
  double qt3_ratio = 0;
  for (size_t q = 0; q < names.size(); ++q) {
    const double ratio = col.wall_s[q] > 0 ? row.wall_s[q] / col.wall_s[q] : 0;
    std::printf("%-6s %14.4f %14.4f %9.2fx\n", names[q].c_str(),
                row.wall_s[q], col.wall_s[q], ratio);
    reporter.AddScalar(names[q] + "/row/wall_s", row.wall_s[q]);
    reporter.AddScalar(names[q] + "/columnar/wall_s", col.wall_s[q]);
    reporter.AddScalar(names[q] + "/speedup/ratio_x", ratio);
    check.Expect(row.result_rows[q] == col.result_rows[q] &&
                     col.result_rows[q] == answer_rows[q],
                 names[q] + " row/columnar result cardinality match");
    if (names[q] == "QT1") qt1_ratio = ratio;
    if (names[q] == "QT2") qt2_ratio = ratio;
    if (names[q] == "QT3") qt3_ratio = ratio;
  }
  const double total_ratio =
      col.total_s > 0 ? row.total_s / col.total_s : 0;
  std::printf("%-6s %14.4f %14.4f %9.2fx\n", "corpus", row.total_s,
              col.total_s, total_ratio);
  reporter.AddScalar("corpus/row/wall_s", row.total_s);
  reporter.AddScalar("corpus/columnar/wall_s", col.total_s);
  reporter.AddScalar("corpus/speedup/ratio_x", total_ratio);

  // The acceptance gate: the federated QT3 query (the BM_FederatedExecute
  // workload) must clear 10x at this scale. QT2's ~13M join pairs feed a
  // string GROUP BY straight from the join's probe (the accumulate sink),
  // with nothing gathered; its floor lies between the ratios measured
  // with the sink (96-107x) and with the pairs gathered first (41-43x),
  // so a QT2 plan that falls back to gathering fails here. QT1's merge
  // join (about one pair per probe row into a GROUP BY) runs on the
  // dense join layout and the expanded pair loop; its floor lies between
  // the ratios measured with them (about 63x) and before them (18-25x).
  check.Expect(qt1_ratio >= 35.0, "QT1 columnar speedup >= 35x");
  check.Expect(qt3_ratio >= 10.0, "QT3 columnar speedup >= 10x");
  check.Expect(qt2_ratio >= 60.0, "QT2 columnar speedup >= 60x");
  check.Expect(total_ratio >= 6.0, "corpus columnar speedup >= 6x");

  return reporter.Finish(check);
}
