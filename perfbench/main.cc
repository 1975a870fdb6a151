// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]   (default .bench_build/traces/)
//   perfbench --self-test
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any result is wrong or the run is not deterministic where
// it must be, 2 on bad arguments. See perfbench/README.md.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

void PrintJson(const RunReport& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[160];
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    // JSON has no infinity. A percentile is infinite only when more than
    // 100 - p percent of the queries failed; a huge finite value still
    // trips every bound.
    const double v = std::isfinite(m.value) ? m.value : 1e300;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintReport(const WorkloadSpec& spec, const RunOptions& opt,
                 const RunReport& r) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", spec.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const std::string& line : r.lines) std::printf("%s\n", line.c_str());
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  correct=%s attempted=%llu failed=%llu\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
}

double MetricValue(const RunReport& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  return std::nan("");
}

/// The benchmark's own tests: determinism of the paper experiment, seed
/// sensitivity of its inputs, and a fixed query multiset per seed for the
/// serving workload.
int SelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("  self-test %s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    std::fflush(stdout);
    if (!ok) ++failures;
  };

  const WorkloadSpec& sim = *FindWorkload("sim_paper");
  RunOptions one_pass;
  one_pass.seed = 7;
  one_pass.fixed_rounds = 1;
  const RunReport a = RunWorkload(sim, one_pass);
  const RunReport b = RunWorkload(sim, one_pass);
  expect(a.correct && b.correct, "sim_paper: every result matches its reference");
  expect(a.fingerprint == b.fingerprint,
         "sim_paper: one seed twice gives identical per-query virtual times, "
         "verdicts, checksums and counters");
  bool same_virtual = true;
  for (const char* name : {"virt_mean_s", "virt_p95_s", "success_frac"}) {
    same_virtual = same_virtual && MetricValue(a, name) == MetricValue(b, name);
  }
  expect(same_virtual, "sim_paper: one seed twice gives identical virtual metrics");

  const PaperInputs i7 = MakePaperInputs(sim, 7);
  const PaperInputs i7b = MakePaperInputs(sim, 7);
  const PaperInputs i8 = MakePaperInputs(sim, 8);
  auto fault_times = [](const PaperInputs& in) {
    std::vector<double> t;
    for (const auto& [phase, events] : in.faults_by_phase) {
      for (const auto& e : events) t.push_back(phase * 1000.0 + e.at);
    }
    return t;
  };
  auto first_batch = [](const PaperInputs& in) {
    std::vector<std::string> rows;
    for (const auto& row : in.writes.at("S1").second.front()) {
      std::string s;
      for (const auto& v : row) s += v.ToString() + "|";
      rows.push_back(s);
    }
    return rows;
  };
  expect(i7.stream == i7b.stream && fault_times(i7) == fault_times(i7b) &&
             first_batch(i7) == first_batch(i7b),
         "sim_paper: one seed gives the same stream, faults and writes");
  expect(i7.stream != i8.stream, "sim_paper: another seed changes the query stream");
  expect(first_batch(i7) != first_batch(i8),
         "sim_paper: another seed changes the write batches");
  expect(fault_times(i7) != fault_times(i8),
         "sim_paper: another seed changes the fault times");

  const WorkloadSpec& serve = *FindWorkload("serve_medium");
  RunOptions fixed;
  fixed.seed = 7;
  fixed.fixed_rounds = 1;
  const RunReport x = RunWorkload(serve, fixed);
  const RunReport y = RunWorkload(serve, fixed);
  expect(x.correct && y.correct && x.failed == 0,
         "serve_medium: every result matches its reference");
  std::vector<uint32_t> sx = x.issued;
  std::vector<uint32_t> sy = y.issued;
  std::sort(sx.begin(), sx.end());
  std::sort(sy.begin(), sy.end());
  expect(!sx.empty() && sx == sy && x.issued == y.issued,
         "serve_medium: one seed sends the same query multiset");
  fixed.seed = 8;
  const RunReport z = RunWorkload(serve, fixed);
  expect(z.issued != x.issued, "serve_medium: another seed sends another order");
  std::printf("self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>] | --self-test\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions opt;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--self-test") return SelfTest();
    const char* v = value();
    if (v == nullptr) return Usage();
    if (arg == "--workload") {
      workload = v;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::string(v) == "1";
    } else if (arg == "--trace-out") {
      opt.trace_path = v;
    } else {
      return Usage();
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || !(opt.seconds > 0)) return Usage();
  if (opt.trace && opt.trace_path.empty()) {
    const std::filesystem::path dir = ".bench_build/traces";
    std::error_code ignored;
    std::filesystem::create_directories(dir, ignored);
    opt.trace_path = (dir / (workload + "-seed" + std::to_string(opt.seed) +
                             ".json"))
                         .string();
  }
  const RunReport r = RunWorkload(*spec, opt);
  PrintReport(*spec, opt, r);
  PrintJson(r);
  return r.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
