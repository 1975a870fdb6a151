#pragma once

// The benchmark's workloads: seeded inputs, the closed loops that
// push them through the public Scenario / Integrator API, and the metric
// report of one run.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/fault_injector.h"
#include "storage/value.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  /// ServingRuntime with serving_time_scale = 0 (true) or the
  /// deterministic simulator (false).
  bool serving;
  size_t large_rows;
  size_t small_rows;
  bool full_replication;
  /// Client streams (serving: pool workers; simulator: queries in
  /// flight).
  int clients;
  /// >0: the paper experiment (sim_paper), this many statement rounds per
  /// Table-1 load phase; 0: a closed loop over the statement stream.
  int rounds_per_phase;
};

/// serve_medium or sim_paper; nullptr for any other name.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief The statement stream: back-to-back rounds of all kStatements
/// statements, so any whole number of rounds is an exactly uniform mix.
/// A round is stratified: ten groups of four, each group one instance of
/// every template in a seeded order, so expensive templates never cluster
/// by chance. Thread-safe.
class StatementStream {
 public:
  /// `max_rounds` 0 = unbounded (stop with StopAtRoundEnd).
  StatementStream(uint64_t seed, size_t max_rounds);

  /// Next statement, or false once the stream has ended.
  bool Next(uint32_t* stmt);
  /// Ends the stream at the end of the current round.
  void StopAtRoundEnd();
  /// Statements handed out so far, in order.
  std::vector<uint32_t> Issued() const;

 private:
  mutable std::mutex mu_;
  uint64_t rng_state_;
  size_t max_rounds_;
  size_t rounds_ = 0;
  bool stopping_ = false;
  std::vector<uint32_t> round_;
  std::vector<uint32_t> issued_;
};

/// Everything a paper-experiment pass receives besides the SQL: one
/// statement stream, the fault schedule (times relative to the start of
/// the phase the fault belongs to), and a pool of insert batches per
/// server, appended while the server is loaded.
struct PaperInputs {
  std::vector<uint32_t> stream;
  std::map<int, std::vector<fedcal::FaultEvent>> faults_by_phase;
  /// server id -> (table, batches)
  std::map<std::string, std::pair<std::string,
                                  std::vector<std::vector<fedcal::Row>>>>
      writes;
};

PaperInputs MakePaperInputs(const WorkloadSpec& spec, uint64_t seed);

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run: a quarter of the time untraced, half with spans and
  /// the operator profile on, a quarter untraced again; reports the
  /// per-layer metrics.
  bool trace = false;
  /// Chrome-trace output of the traced window ("" = not written).
  std::string trace_path;
  /// >0: run exactly this many statement rounds (closed loops) or passes
  /// (paper experiment) instead of `seconds` (self-test).
  size_t fixed_rounds = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;  ///< human-readable report
  /// Statements sent, in issue order (closed loops), for the self-test.
  std::vector<uint32_t> issued;
  /// Paper experiment: digest of every query's statement, verdict, virtual
  /// time, retries, re-routes and result checksum, in completion order,
  /// plus the pass's counters. Equal across runs of one seed.
  uint64_t fingerprint = 0;
};

RunReport RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace perfbench
