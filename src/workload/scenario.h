#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/global_catalog.h"
#include "common/rng.h"
#include "core/executor_pool.h"
#include "core/qcc.h"
#include "federation/integrator.h"
#include "metawrapper/meta_wrapper.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "server/remote_server.h"
#include "sim/fault_injector.h"
#include "sim/simulator.h"
#include "storage/datagen.h"
#include "wrapper/wrapper.h"

namespace fedcal {

/// \brief The four query-fragment types of §5.2.
enum class QueryType { kQT1 = 1, kQT2 = 2, kQT3 = 3, kQT4 = 4 };

const char* QueryTypeName(QueryType t);
std::vector<QueryType> AllQueryTypes();

/// \brief Knobs for the experiment testbed of §5.
struct ScenarioConfig {
  uint64_t seed = 42;
  /// Large tables have ~this many rows (paper: on the order of 100000).
  size_t large_rows = 100'000;
  /// Small tables (paper: on the order of 1000).
  size_t small_rows = 1'000;
  /// Background utilization applied to a server during its "heavy update
  /// load" phases.
  double heavy_load = 0.6;
  /// Replicate every table onto every server (the paper distributes
  /// replicas so each server serves a diverse query mix; full replication
  /// is the densest variant and exercises all routing choices). When
  /// false, a fixed partial layout is used — employee only on S3, sales
  /// only on S1/S2, department everywhere — so the workload's joins
  /// decompose into cross-server fragments that merge at the integrator.
  bool full_replication = true;
  /// Calibration window (short = recent-biased, suits phase changes).
  size_t calibration_window = 4;
  /// Execution mode: deterministic discrete-event simulation (default) or
  /// wall-clock serving on a thread pool (ServingRuntime).
  ExecMode exec_mode = ExecMode::kSimulation;
  /// Serving-mode pool size (closed-loop client worker threads).
  int serving_workers = 1;
  /// Serving-mode wall seconds per virtual second of timer gap; 0 fires
  /// events as fast as possible (see ServingConfig::time_scale).
  double serving_time_scale = 0.0;
  /// No effect: every engine in the testbed runs the columnar executor.
  /// Kept only because the repository benchmark (perfbench/) still sets
  /// it; remove it with the next change to the benchmark.
  bool columnar_engine = false;
  /// Rows per chunk of the base tables' payloads and of every engine's
  /// intermediate results.
  size_t batch_rows = 4096;
  /// Record per-operator runtime profiles (EXPLAIN ANALYZE) on every
  /// server and the integrator's merge. Off by default, and the committed
  /// deterministic baselines are produced without it. The engine's
  /// results, stats and charges are the same either way, but QCC's
  /// sampling is not: with a profile on the reply, the meta-wrapper marks
  /// a fragment whose worst q-error reaches the estimate-miss threshold
  /// cardinality-suspect, and the calibrator keeps that observation out of
  /// its store, so a profiled run may calibrate and route differently.
  bool profile = false;

  /// Sets large_rows/small_rows from a named cardinality preset
  /// (100k/1k, 1M/10k, or 10M/100k) and returns *this for chaining.
  /// Generation stays deterministic for a given (preset, seed) pair.
  ScenarioConfig& WithScale(ScalePreset preset) {
    const ScaleRows rows = PresetRows(preset);
    large_rows = rows.large_rows;
    small_rows = rows.small_rows;
    return *this;
  }
};

/// \brief The §5 information-integration testbed: one integrator, three
/// remote servers (S3 the most powerful but update-load-sensitive on CPU),
/// a sample-database-like schema with large (100k) and small (1k) tables
/// replicated across the servers, and the QT1–QT4 workload generators.
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config = {});
  ~Scenario();

  /// The discrete-event simulator. Only meaningful as a driver in
  /// simulation mode; in serving mode it exists but nothing runs on it —
  /// use ctx() instead.
  Simulator& sim() { return sim_; }
  /// The execution context every component of this testbed was built on:
  /// &sim() in simulation mode, serving() in serving mode.
  ExecutionContext& ctx() { return *ctx_; }
  ExecMode exec_mode() const { return config_.exec_mode; }
  /// The wall-clock runtime; non-null iff exec_mode() == kServing.
  ServingRuntime* serving() { return serving_.get(); }
  Network& network() { return network_; }
  GlobalCatalog& catalog() { return catalog_; }
  MetaWrapper& meta_wrapper() { return *mw_; }
  Integrator& integrator() { return *ii_; }
  Rng& rng() { return rng_; }
  const ScenarioConfig& config() const { return config_; }
  /// The shared telemetry spine every layer of this testbed emits into.
  obs::Telemetry& telemetry() { return telemetry_; }

  RemoteServer& server(const std::string& id) { return *servers_.at(id); }
  std::vector<std::string> server_ids() const;

  /// Creates (once) and returns the QCC wired to this scenario's MW; call
  /// `qcc().AttachTo(&integrator())` to enable it.
  QueryCostCalibrator& qcc(QccConfig config = {});
  bool has_qcc() const { return qcc_ != nullptr; }

  /// Creates (once) and returns a fault injector with every server and
  /// link of this testbed pre-registered; `Arm()` a FaultSchedule on it to
  /// run a chaos experiment.
  FaultInjector& fault_injector();

  /// Applies a Table-1 load phase (1-based). Phase p loads S1 iff bit 2 of
  /// (p-1) is set, S2 iff bit 1, S3 iff bit 0 — reproducing the paper's
  /// eight combinations.
  void ApplyPhase(int phase);
  /// True when `server` carries heavy load in `phase`.
  static bool LoadedInPhase(int phase, const std::string& server_id);

  /// SQL text for one instance of a query type; the selection parameter is
  /// drawn from the type's range using this scenario's RNG.
  std::string MakeQuery(QueryType type);
  /// Deterministic variant for a given instance number.
  std::string MakeQueryInstance(QueryType type, int instance) const;

  /// Literal-normalized signature of a query type (stable across
  /// instances).
  size_t QueryTypeSignature(QueryType type) const;

 private:
  void BuildServers();
  void BuildData();
  void BuildFederation();

  ScenarioConfig config_;
  Rng rng_;
  Simulator sim_;
  /// Declared right after sim_ so ctx_ — and every component below, all
  /// built on ctx_ — initializes after the mode choice is resolved.
  std::unique_ptr<ServingRuntime> serving_;
  ExecutionContext* ctx_ = &sim_;
  obs::Telemetry telemetry_{&sim_};
  /// Routes FEDCAL_LOG lines (kInfo and up) into the event log for this
  /// scenario's lifetime, so legacy log call sites show up in `\events`.
  obs::ScopedLogSink log_sink_{&telemetry_.events, LogLevel::kInfo};
  Network network_;
  GlobalCatalog catalog_;
  std::map<std::string, std::unique_ptr<RemoteServer>> servers_;
  std::vector<std::unique_ptr<RelationalWrapper>> wrappers_;
  std::unique_ptr<MetaWrapper> mw_;
  std::unique_ptr<Integrator> ii_;
  std::unique_ptr<QueryCostCalibrator> qcc_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace fedcal
