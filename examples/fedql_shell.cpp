// Interactive federated SQL shell over the §5 experiment testbed.
//
//   ./build/examples/fedql_shell
//
// Type SQL against the nicknames `employee`, `sales`, `department`
// (replicated across servers S1, S2, S3), or one of the backslash
// commands:
//
//   \tables            list nicknames and replica locations
//   \servers           server status, load and calibration factors
//   \load <srv> <f>    set background load on a server (0..0.99)
//   \down <srv>        take a server down        \up <srv>  bring it back
//   \explain [id]      flight-recorder routing decision (all candidate
//                      plans + rejection reasons), plus the mid-query
//                      re-route chain when the query was re-evaluated in
//                      flight; defaults to the most recent query
//   \profile [id]      per-operator runtime profile (EXPLAIN ANALYZE):
//                      estimated vs observed rows, virtual/wall time,
//                      batches and arena bytes per fragment and for the
//                      integrator merge; defaults to the last query
//   \accuracy          cost-model accuracy scoreboard: rolling cardinality
//                      q-error per (server, operator) and per plan shape
//   \timeline <srv>    a server's calibration/reliability/availability/
//                      breaker time-series with drift events
//   \stats             live telemetry metrics snapshot (counters, gauges,
//                      latency histograms with p50/p95/p99)
//   \trace             span tree of the last query's lifecycle trace
//   \cache             prepared-plan cache: entries, hit rate, routing
//                      epoch and the last invalidation reason
//   \health            single-screen fleet health dashboard (fedtop)
//   \sched             serving scheduler panel: dispatch lag, exclusion
//                      waits, worker busy/idle (serving mode only)
//   \contention        per-site lock wait/hold times and contention rates
//   \alerts            active and recently resolved SLO/rule alerts
//   \events [n]        last n structured health events (default 20)
//   \qcc on|off        attach / detach the query cost calibrator
//   \mode [m [n]]      show or switch execution mode (sim | serving [n]);
//                      switching rebuilds the federation
//   \help              this list            \quit  exit
#include <cstdio>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/export.h"
#include "obs/profile_export.h"
#include "obs/snapshot.h"
#include "workload/scenario.h"

using namespace fedcal;  // NOLINT

namespace {

void PrintCommandList() {
  std::printf(
      "  query:\n"
      "    \\tables            list nicknames and replica locations\n"
      "    \\explain [id]      routing decision: candidate plans, "
      "rejection reasons,\n"
      "                       consulted server state, mid-query re-route "
      "chain\n"
      "                       (default: last query)\n"
      "    \\profile [id]      per-operator runtime profile: est vs "
      "observed rows,\n"
      "                       virtual/wall time, batches, arena bytes "
      "(default:\n"
      "                       last query)\n"
      "    \\trace             span tree of the last query\n"
      "  observe:\n"
      "    \\servers           server status, load and calibration "
      "factors\n"
      "    \\timeline <srv>    calibration/reliability/availability/"
      "breaker series\n"
      "    \\stats             telemetry metrics snapshot\n"
      "    \\accuracy          cost-model accuracy scoreboard: rolling "
      "cardinality\n"
      "                       q-error per (server, operator) and per plan "
      "shape\n"
      "  cache:\n"
      "    \\cache             prepared-plan cache stats, routing epoch, "
      "last invalidation\n"
      "  health:\n"
      "    \\health            fleet health dashboard (grades, alerts, "
      "events)\n"
      "    \\sched             scheduler panel: dispatch lag, exclusion "
      "waits,\n"
      "                       worker utilization (serving mode only)\n"
      "    \\contention        per-site lock wait/hold times and "
      "contention rates\n"
      "    \\alerts            active and recently resolved alerts\n"
      "    \\events [n]        last n structured events (default 20)\n"
      "  control:\n"
      "    \\load <srv> <f>    set background load on a server (0..0.99)\n"
      "    \\down <srv>        take a server down\n"
      "    \\up <srv>          bring a server back\n"
      "    \\qcc on|off        attach / detach the query cost calibrator\n"
      "    \\mode [m [n]]      show or switch execution mode: sim, or\n"
      "                       serving with n worker threads (rebuilds the\n"
      "                       federation; calibration starts fresh)\n"
      "    \\help              this list\n"
      "    \\quit              exit\n");
}

void PrintTable(const Table& t, size_t max_rows = 20) {
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    std::printf("%-18s", t.schema().column(c).name.c_str());
  }
  std::printf("\n");
  for (size_t c = 0; c < t.schema().num_columns(); ++c) {
    std::printf("%-18s", "------");
  }
  std::printf("\n");
  const size_t n = std::min(max_rows, t.num_rows());
  for (size_t r = 0; r < n; ++r) {
    for (const Value& v : t.row(r)) {
      std::printf("%-18s", v.ToString().c_str());
    }
    std::printf("\n");
  }
  if (t.num_rows() > n) {
    std::printf("... (%zu more rows)\n", t.num_rows() - n);
  }
  std::printf("(%zu rows)\n", t.num_rows());
}

}  // namespace

int main() {
  ScenarioConfig cfg;
  cfg.large_rows = 20'000;
  cfg.small_rows = 1'000;
  // The shell always profiles: \profile and \accuracy should work on the
  // very first query, and the interactive overhead is negligible.
  cfg.profile = true;
  std::printf("building federation (3 servers, %zu-row large tables)...\n",
              cfg.large_rows);
  auto sc = std::make_unique<Scenario>(cfg);
  bool qcc_attached = true;
  sc->qcc().AttachTo(&sc->integrator());
  uint64_t last_query_id = 0;

  // \mode rebuilds the federation on the requested execution context —
  // mode is fixed at Scenario construction, so calibration state and
  // telemetry start fresh after a switch.
  auto rebuild = [&](ExecMode mode, int workers) {
    cfg.exec_mode = mode;
    cfg.serving_workers = workers;
    sc.reset();  // joins serving threads before the rebuild
    sc = std::make_unique<Scenario>(cfg);
    sc->qcc().AttachTo(&sc->integrator());
    qcc_attached = true;
    last_query_id = 0;
    std::printf("  rebuilt federation in %s mode (%d worker%s)\n",
                ExecModeName(mode), workers, workers == 1 ? "" : "s");
  };

  std::printf(
      "fedql> ready. nicknames: employee, sales, department. "
      "\\help for commands, \\quit to exit.\n");

  std::string line;
  while (true) {
    std::printf("fedql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;

    if (line[0] == '\\') {
      std::istringstream iss(line.substr(1));
      std::string cmd;
      iss >> cmd;
      if (cmd == "quit" || cmd == "q") break;
      if (cmd == "mode") {
        std::string mode;
        if (iss >> mode) {
          if (mode == "serving") {
            int workers = 2;
            iss >> workers;
            if (workers < 1) workers = 1;
            rebuild(ExecMode::kServing, workers);
          } else if (mode == "sim") {
            rebuild(ExecMode::kSimulation, 1);
          } else {
            std::printf("  usage: \\mode [sim | serving [workers]]\n");
          }
        } else {
          std::printf("  mode: %s (%d worker%s)\n",
                      ExecModeName(sc->exec_mode()),
                      sc->ctx().worker_count(),
                      sc->ctx().worker_count() == 1 ? "" : "s");
        }
        continue;
      }
      // Every other command reads or writes state the serving dispatcher
      // also touches (servers, QCC, health, telemetry; its availability
      // probes run there), so it keeps the dispatcher out meanwhile. \mode
      // stays outside: rebuilding joins the dispatcher thread.
      sc->ctx().RunExclusive([&] {
        if (cmd == "tables") {
          for (const auto& nickname : sc->catalog().nicknames()) {
            auto entry = sc->catalog().Lookup(nickname);
            std::printf("  %-12s", nickname.c_str());
            for (const auto& loc : (*entry)->locations) {
              std::printf(" %s:%s", loc.server_id.c_str(),
                          loc.remote_table.c_str());
            }
            std::printf("\n");
          }
        } else if (cmd == "servers") {
          for (const auto& sid : sc->server_ids()) {
            const RemoteServer& s = sc->server(sid);
            std::printf(
                "  %-4s %-5s load=%.2f factor=%.2f busy=%d queued=%zu "
                "done=%zu\n",
                sid.c_str(), s.available() ? "up" : "DOWN",
                s.background_load(),
                sc->qcc().store().ServerFactor(sid), s.busy_workers(),
                s.queued_fragments(), s.fragments_completed());
          }
        } else if (cmd == "load") {
          std::string sid;
          double f = 0.0;
          if (iss >> sid >> f) {
            sc->server(sid).set_background_load(f);
            std::printf("  %s background load = %.2f\n", sid.c_str(), f);
          } else {
            std::printf("  usage: \\load <server> <fraction>\n");
          }
        } else if (cmd == "down" || cmd == "up") {
          std::string sid;
          if (iss >> sid) {
            sc->server(sid).SetAvailable(cmd == "up");
            sc->telemetry().events.Emit(
                cmd == "up" ? obs::EventType::kServerUp
                            : obs::EventType::kServerDown,
                cmd == "up" ? obs::EventSeverity::kInfo
                            : obs::EventSeverity::kError,
                sid, /*query_id=*/0,
                std::string("operator \\") + cmd + " from shell");
            std::printf("  %s is now %s\n", sid.c_str(),
                        cmd == "up" ? "up" : "down");
          }
        } else if (cmd == "explain") {
          // With an argument: that query id; without: the last query (or,
          // failing that, the most recent recorded decision).
          uint64_t target_id = last_query_id;
          if (!(iss >> target_id)) target_id = last_query_id;
          const obs::FlightRecorder& rec = sc->telemetry().recorder;
          const obs::DecisionRecord* d =
              target_id != 0 ? rec.Find(target_id) : rec.Latest();
          if (d != nullptr) {
            std::printf("%s", obs::ExplainText(*d).c_str());
            // Queries that were re-evaluated in flight get the mid-query
            // tail: trigger, gap vs hysteresis bar, verdict per evaluation.
            std::printf("%s",
                        obs::ReRouteChainText(rec, d->query_id).c_str());
          } else if (const ExplainEntry* e =
                         target_id != 0
                             ? sc->integrator().explain().Find(target_id)
                             : sc->integrator().explain().Latest()) {
            // No flight-recorder decision (QCC detached): fall back to the
            // explain table's winner-only view.
            std::printf("  (winner-only explain entry; attach qcc for full "
                        "decisions)\n");
            std::printf("  total estimated: %.4f s\n",
                        e->total_estimated_seconds);
            for (const auto& f : e->fragments) {
              std::printf("  [%s] est=%.4f cal=%.4f  %s\n",
                          f.server_id.c_str(), f.estimated_seconds,
                          f.calibrated_seconds, f.statement.c_str());
            }
            std::printf("  merge plan:\n%s\n",
                        e->merge_plan->ToString().c_str());
          } else {
            std::printf("  no explained query yet\n");
          }
        } else if (cmd == "profile") {
          uint64_t target_id = last_query_id;
          if (!(iss >> target_id)) target_id = last_query_id;
          const obs::FlightRecorder& rec = sc->telemetry().recorder;
          const obs::DecisionRecord* d =
              target_id != 0 ? rec.Find(target_id) : rec.Latest();
          if (d == nullptr) {
            std::printf("  no profiled query yet\n");
          } else if (d->profile == nullptr) {
            std::printf("  query %llu recorded no operator profile\n",
                        static_cast<unsigned long long>(d->query_id));
          } else {
            std::printf("%s", obs::ProfileText(*d->profile).c_str());
          }
        } else if (cmd == "accuracy") {
          std::printf("%s",
                      obs::AccuracyText(sc->telemetry().recorder).c_str());
        } else if (cmd == "timeline") {
          std::string sid;
          if (iss >> sid) {
            std::printf("%s",
                        obs::TimelineText(sc->telemetry().recorder, sid)
                            .c_str());
          } else {
            std::printf("  usage: \\timeline <server>  (servers:");
            for (const auto& s : sc->server_ids()) {
              std::printf(" %s", s.c_str());
            }
            std::printf(")\n");
          }
        } else if (cmd == "help" || cmd == "h" || cmd == "?") {
          PrintCommandList();
        } else if (cmd == "stats") {
          std::printf("  mode: %s (%d worker%s), virtual t=%.3f s\n",
                      ExecModeName(sc->exec_mode()),
                      sc->ctx().worker_count(),
                      sc->ctx().worker_count() == 1 ? "" : "s",
                      sc->ctx().Now());
          const std::string text = sc->telemetry().metrics.ToText();
          std::printf("%s", text.empty() ? "  no metrics yet\n" : text.c_str());
        } else if (cmd == "trace") {
          if (last_query_id == 0) {
            std::printf("  no traced query yet\n");
          } else {
            std::printf("%s",
                        sc->telemetry().tracer.ToText(last_query_id).c_str());
          }
        } else if (cmd == "cache") {
          const PlanCache& cache = sc->integrator().plan_cache();
          const PlanCache::Stats& st = cache.stats();
          std::printf("  prepared-plan cache: %zu/%zu entries, routing epoch "
                      "%llu (%llu bumps)\n",
                      cache.size(), cache.capacity(),
                      static_cast<unsigned long long>(cache.epoch()),
                      static_cast<unsigned long long>(st.epoch_bumps));
          std::printf("  hits=%llu misses=%llu hit_rate=%.1f%% "
                      "invalidated=%llu evictions=%llu\n",
                      static_cast<unsigned long long>(st.hits),
                      static_cast<unsigned long long>(st.misses),
                      st.HitRate() * 100.0,
                      static_cast<unsigned long long>(st.invalidated),
                      static_cast<unsigned long long>(st.evictions));
          std::printf("  last invalidation: %s\n",
                      cache.last_invalidation_reason().empty()
                          ? "(none)"
                          : cache.last_invalidation_reason().c_str());
        } else if (cmd == "health") {
          const obs::HealthSnapshot snap = obs::BuildHealthSnapshot(
              sc->telemetry().health, sc->telemetry().recorder,
              sc->telemetry().events, sc->ctx().Now(), sc->server_ids());
          std::printf("%s", obs::FedtopText(snap).c_str());
        } else if (cmd == "sched") {
          // Same struct fedtop renders; prints its own "(serving mode
          // only)" note when the sched.* metrics are absent.
          std::printf(
              "%s",
              obs::SchedText(obs::BuildSchedulerPanel(sc->telemetry().metrics))
                  .c_str());
        } else if (cmd == "contention") {
          std::printf("%s",
                      obs::ContentionText(obs::BuildLockPanels()).c_str());
        } else if (cmd == "alerts") {
          std::printf("%s", obs::AlertsText(sc->telemetry().health).c_str());
        } else if (cmd == "events") {
          size_t n = 20;
          iss >> n;
          std::printf("%s",
                      obs::EventsText(sc->telemetry().events, n).c_str());
        } else if (cmd == "qcc") {
          std::string mode;
          iss >> mode;
          if (mode == "off" && qcc_attached) {
            sc->qcc().Detach(&sc->integrator());
            qcc_attached = false;
          } else if (mode == "on" && !qcc_attached) {
            sc->qcc().AttachTo(&sc->integrator());
            qcc_attached = true;
          }
          std::printf("  qcc is %s\n", qcc_attached ? "on" : "off");
        } else {
          std::printf("  unknown command: \\%s\n", cmd.c_str());
          PrintCommandList();
        }
      });
      continue;
    }

    auto outcome = sc->integrator().RunSync(line);
    if (!outcome.ok()) {
      std::printf("error: %s\n", outcome.status().ToString().c_str());
      continue;
    }
    last_query_id = outcome->query_id;
    PrintTable(*outcome->table);
    std::string servers;
    for (const auto& s : outcome->executed_plan.server_set) {
      servers += servers.empty() ? s : "+" + s;
    }
    std::printf("executed on %s in %.4f simulated seconds%s\n",
                servers.c_str(), outcome->response_seconds,
                outcome->retries ? " (after failover)" : "");
  }
  std::printf("\nbye\n");
  return 0;
}
