#include "workload/scenario.h"

#include <cassert>

#include "common/string_util.h"
#include "obs/runtime_health.h"
#include "sql/parser.h"
#include "storage/datagen.h"

namespace fedcal {

const char* QueryTypeName(QueryType t) {
  switch (t) {
    case QueryType::kQT1:
      return "QT1";
    case QueryType::kQT2:
      return "QT2";
    case QueryType::kQT3:
      return "QT3";
    case QueryType::kQT4:
      return "QT4";
  }
  return "?";
}

std::vector<QueryType> AllQueryTypes() {
  return {QueryType::kQT1, QueryType::kQT2, QueryType::kQT3,
          QueryType::kQT4};
}

Scenario::Scenario(ScenarioConfig config)
    : config_(config),
      rng_(config.seed),
      serving_(config.exec_mode == ExecMode::kServing
                   ? std::make_unique<ServingRuntime>(ServingConfig{
                         config.serving_workers, config.serving_time_scale})
                   : nullptr),
      ctx_(serving_ ? static_cast<ExecutionContext*>(serving_.get())
                    : &sim_),
      telemetry_(ctx_) {
  if (serving_) {
    // Scheduler telemetry (sched.*) and the serving SLO rules only make
    // sense against a wall clock; a sim-mode scenario records neither, so
    // its metrics snapshots stay byte-deterministic.
    serving_->set_metrics(&telemetry_.metrics);
    obs::InstallServingHealthRules(&telemetry_.health, &telemetry_.metrics);
  }
  BuildServers();
  BuildData();
  BuildFederation();
}

Scenario::~Scenario() {
  // Stop the dispatcher and worker threads before any component an
  // in-flight event callback might touch is destroyed.
  if (serving_) serving_->Shutdown();
}

std::vector<std::string> Scenario::server_ids() const {
  std::vector<std::string> ids;
  for (const auto& [id, s] : servers_) ids.push_back(id);
  return ids;
}

void Scenario::BuildServers() {
  // S1 and S2: mid-range machines, balanced degradation under update load.
  // S3: the most powerful machine (paper §5.3) but far more sensitive to
  // update load on its CPU path (logging/locking contention) while its
  // I/O subsystem barely notices — the combination behind Figure 9's
  // query-type-dependent sensitivity.
  ServerConfig s1{.id = "S1",
                  .cpu_speed = 150'000,
                  .io_speed = 150'000,
                  .num_workers = 4,
                  .cpu_load_sensitivity = 0.9,
                  .io_load_sensitivity = 0.9,
                  .min_speed_fraction = 0.05,
                  .exec = {}};
  ServerConfig s2{.id = "S2",
                  .cpu_speed = 180'000,
                  .io_speed = 140'000,
                  .num_workers = 4,
                  .cpu_load_sensitivity = 0.85,
                  .io_load_sensitivity = 0.9,
                  .min_speed_fraction = 0.05,
                  .exec = {}};
  ServerConfig s3{.id = "S3",
                  .cpu_speed = 450'000,
                  .io_speed = 380'000,
                  .num_workers = 4,
                  .cpu_load_sensitivity = 1.55,
                  .io_load_sensitivity = 0.35,
                  .min_speed_fraction = 0.05,
                  .exec = {}};
  for (auto cfg : {s1, s2, s3}) {
    cfg.exec.batch_rows = config_.batch_rows;
    cfg.exec.profile = config_.profile;
    servers_[cfg.id] =
        std::make_unique<RemoteServer>(cfg, ctx_, rng_.Fork());
    servers_[cfg.id]->SetTelemetry(&telemetry_);
  }
  network_.SetTelemetry(&telemetry_);

  // Links: S3 slightly farther away; all reasonably fast LAN/WAN mix.
  network_.AddLink("S1", LinkConfig{.base_latency_s = 0.004,
                                    .bandwidth_bytes_per_s = 12.5e6,
                                    .jitter_frac = 0.05});
  network_.AddLink("S2", LinkConfig{.base_latency_s = 0.006,
                                    .bandwidth_bytes_per_s = 12.5e6,
                                    .jitter_frac = 0.05});
  network_.AddLink("S3", LinkConfig{.base_latency_s = 0.009,
                                    .bandwidth_bytes_per_s = 25.0e6,
                                    .jitter_frac = 0.05});

  // Admin-configured beliefs: nominal speeds and latencies. Note the admin
  // enters one speed scalar per server; runtime CPU/I-O asymmetry and load
  // are invisible to the optimizer.
  catalog_.SetServerProfile(ServerProfile{"S1", 150'000, 0.004, 12.5e6});
  catalog_.SetServerProfile(ServerProfile{"S2", 170'000, 0.006, 12.5e6});
  catalog_.SetServerProfile(ServerProfile{"S3", 420'000, 0.009, 25.0e6});
}

void Scenario::BuildData() {
  Rng datagen_rng = rng_.Fork();

  // Sample-database-like schema (departments / employees / sales).
  TableGenSpec employee;
  employee.name = "employee";
  employee.num_rows = config_.large_rows;
  employee.columns = {{"empno", DataType::kInt64},
                      {"workdept", DataType::kInt64},
                      {"salary", DataType::kDouble},
                      {"edlevel", DataType::kInt64}};
  employee.generators = {ColumnGenSpec::Serial(),
                         ColumnGenSpec::UniformInt(1, 60),
                         ColumnGenSpec::UniformDouble(30'000, 120'000),
                         ColumnGenSpec::UniformInt(8, 20)};

  TableGenSpec sales;
  sales.name = "sales";
  sales.num_rows = config_.large_rows;
  sales.columns = {{"salesid", DataType::kInt64},
                   {"empno", DataType::kInt64},
                   {"amount", DataType::kDouble},
                   {"region", DataType::kString}};
  sales.generators = {
      ColumnGenSpec::Serial(),
      ColumnGenSpec::UniformInt(
          0, static_cast<int64_t>(config_.large_rows) - 1),
      ColumnGenSpec::UniformDouble(0, 10'000),
      ColumnGenSpec::StringPool(
          {"north", "south", "east", "west", "emea", "apac"})};

  TableGenSpec department;
  department.name = "department";
  department.num_rows = config_.small_rows;
  department.columns = {{"deptid", DataType::kInt64},
                        {"deptno", DataType::kInt64},
                        {"budget", DataType::kDouble},
                        {"location", DataType::kString}};
  department.generators = {
      ColumnGenSpec::Serial(), ColumnGenSpec::UniformInt(1, 60),
      ColumnGenSpec::UniformDouble(0, 1'000'000),
      ColumnGenSpec::StringPool({"sj", "ny", "sf", "la", "tokyo", "zurich",
                                 "delhi", "austin"})};

  for (const auto& spec : {employee, sales, department}) {
    auto table = GenerateTable(spec, &datagen_rng, config_.batch_rows);
    assert(table.ok());
    TablePtr t = table.MoveValue();

    const Status reg = catalog_.RegisterNickname(spec.name, t->schema());
    assert(reg.ok());
    (void)reg;
    catalog_.PutStats(spec.name, TableStats::Compute(*t));

    for (auto& [id, server] : servers_) {
      // Full replication: same table name everywhere; the catalog records
      // every location as an equivalent data source. The partial layout
      // keeps employee exclusively on S3 and sales off it, so joins
      // decompose into cross-server fragments that merge at the II.
      if (!config_.full_replication) {
        const bool hosted = (spec.name == "employee" && id == "S3") ||
                            (spec.name == "sales" && id != "S3") ||
                            spec.name == "department";
        if (!hosted) continue;
      }
      const Status add = server->AddTable(t->CloneAs(spec.name));
      assert(add.ok());
      (void)add;
      const Status loc = catalog_.AddLocation(spec.name, id, spec.name);
      assert(loc.ok());
      (void)loc;
    }
  }
}

void Scenario::BuildFederation() {
  mw_ = std::make_unique<MetaWrapper>(&catalog_, &network_, ctx_);
  mw_->SetTelemetry(&telemetry_);
  for (auto& [id, server] : servers_) {
    wrappers_.push_back(std::make_unique<RelationalWrapper>(server.get()));
    mw_->RegisterWrapper(wrappers_.back().get());
  }
  IiConfig ii_config;
  ii_config.configured_speed = 400'000;
  ii_config.actual_cpu_speed = 400'000;
  ii_config.actual_io_speed = 400'000;
  ii_config.exec.batch_rows = config_.batch_rows;
  ii_config.exec.profile = config_.profile;
  ii_ = std::make_unique<Integrator>(&catalog_, mw_.get(), ctx_, ii_config);
}

QueryCostCalibrator& Scenario::qcc(QccConfig config) {
  if (!qcc_) {
    config.calibration.window = config_.calibration_window;
    qcc_ = std::make_unique<QueryCostCalibrator>(ctx_, mw_.get(), config);
  }
  return *qcc_;
}

FaultInjector& Scenario::fault_injector() {
  if (!injector_) {
    injector_ = std::make_unique<FaultInjector>(ctx_);
    // Injected faults (and their timed reverts) land in the structured
    // event log — the sim layer cannot depend on obs, so the bridge lives
    // here.
    injector_->SetEventHook([this](const FaultEvent& event, bool reverting) {
      obs::EventSeverity severity = obs::EventSeverity::kWarn;
      if (reverting || event.kind == FaultEvent::Kind::kRecover) {
        severity = obs::EventSeverity::kInfo;
      } else if (event.kind == FaultEvent::Kind::kCrash ||
                 event.kind == FaultEvent::Kind::kPartition ||
                 event.kind == FaultEvent::Kind::kOutage) {
        severity = obs::EventSeverity::kError;
      }
      telemetry_.events.Emit(
          reverting ? obs::EventType::kFaultReverted
                    : obs::EventType::kFaultInjected,
          severity, event.target, /*query_id=*/0,
          reverting ? "reverted: " + event.Describe() : event.Describe());
    });
    for (auto& [id, server] : servers_) {
      RemoteServer* s = server.get();
      injector_->RegisterServer(
          id, FaultInjector::ServerHooks{
                  [s](bool up) { s->SetAvailable(up); },
                  [s](double load) { s->set_background_load(load); },
                  [s] { return s->background_load(); },
                  [s](double rate) { s->set_error_rate(rate); },
                  [s] { return s->error_rate(); },
                  [s] { s->AbortInFlight("suffered an outage"); }});
      auto link = network_.GetLink(id);
      if (link.ok()) {
        NetworkLink* l = *link;
        injector_->RegisterLink(
            id, FaultInjector::LinkHooks{[l](SimTime start, SimTime end,
                                             double latency_multiplier,
                                             double bandwidth_divisor) {
              l->AddCongestion(CongestionEpisode{start, end,
                                                latency_multiplier,
                                                bandwidth_divisor});
            }});
      }
    }
  }
  return *injector_;
}

void Scenario::ApplyPhase(int phase) {
  for (auto& [id, server] : servers_) {
    server->set_background_load(
        LoadedInPhase(phase, id) ? config_.heavy_load : 0.0);
  }
}

bool Scenario::LoadedInPhase(int phase, const std::string& server_id) {
  const int bits = phase - 1;  // Table 1: eight combinations
  if (server_id == "S1") return (bits & 4) != 0;
  if (server_id == "S2") return (bits & 2) != 0;
  if (server_id == "S3") return (bits & 1) != 0;
  return false;
}

std::string Scenario::MakeQuery(QueryType type) {
  switch (type) {
    case QueryType::kQT1:
      return MakeQueryInstance(type,
                               static_cast<int>(rng_.UniformInt(0, 9)));
    case QueryType::kQT2:
      return MakeQueryInstance(type,
                               static_cast<int>(rng_.UniformInt(0, 9)));
    case QueryType::kQT3:
      return MakeQueryInstance(type,
                               static_cast<int>(rng_.UniformInt(0, 9)));
    case QueryType::kQT4:
      return MakeQueryInstance(type,
                               static_cast<int>(rng_.UniformInt(0, 9)));
  }
  return "";
}

std::string Scenario::MakeQueryInstance(QueryType type, int instance) const {
  // Each instance varies only its input parameter, exactly like the
  // paper's "10 different query instances" per type.
  switch (type) {
    case QueryType::kQT1: {
      // Equijoin of two large tables, a non-selective "greater than"
      // parameter selection, and aggregation.
      const double p = 500.0 + 250.0 * instance;  // keeps 70..95% of sales
      return StringFormat(
          "SELECT e.workdept, COUNT(*) AS cnt, AVG(s.amount) AS avg_amount "
          "FROM employee e JOIN sales s ON s.empno = e.empno "
          "WHERE s.amount > %.1f GROUP BY e.workdept",
          p);
    }
    case QueryType::kQT2: {
      // Like QT1 but the selection table is small; the dept fan-out makes
      // this the costliest, CPU-bound type.
      const double p = 200'000.0 + 30'000.0 * instance;
      return StringFormat(
          "SELECT d.location, COUNT(*) AS cnt, SUM(e.salary) AS total "
          "FROM employee e JOIN department d ON e.workdept = d.deptno "
          "WHERE d.budget > %.1f GROUP BY d.location",
          p);
    }
    case QueryType::kQT3: {
      // QT1's join with a much more selective predicate (MAX instead of
      // AVG so the fragment signature is distinct from QT1's).
      const double p = 9'800.0 + 15.0 * instance;  // keeps ~0.5..2%
      return StringFormat(
          "SELECT e.workdept, COUNT(*) AS cnt, MAX(s.amount) AS max_amount "
          "FROM employee e JOIN sales s ON s.empno = e.empno "
          "WHERE s.amount > %.1f GROUP BY e.workdept",
          p);
    }
    case QueryType::kQT4: {
      // Three-table join with a highly selective predicate.
      const double p = 9'880.0 + 10.0 * instance;
      return StringFormat(
          "SELECT e.empno, s.amount, d.location "
          "FROM employee e JOIN sales s ON s.empno = e.empno "
          "JOIN department d ON e.workdept = d.deptno "
          "WHERE s.amount > %.1f AND d.budget > 900000",
          p);
    }
  }
  return "";
}

size_t Scenario::QueryTypeSignature(QueryType type) const {
  auto stmt = ParseSelect(MakeQueryInstance(type, 0));
  assert(stmt.ok());
  return SignatureOf(*stmt);
}

}  // namespace fedcal
