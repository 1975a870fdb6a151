#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/global_catalog.h"
#include "common/result.h"
#include "metawrapper/calibrator_interface.h"
#include "net/network.h"
#include "obs/telemetry.h"
#include "core/clock.h"
#include "wrapper/wrapper.h"

namespace fedcal {

/// \brief A fragment plan as presented to the integrator: the wrapper's
/// plan plus the meta-wrapper's cost estimates (raw and calibrated, in
/// integrator-seconds), carried in the telemetry spine's shared
/// observation struct.
struct FragmentOption {
  WrapperPlan wrapper_plan;
  obs::CostObservation cost;
};

/// \brief Outcome of a fragment execution as observed by the meta-wrapper.
struct FragmentExecution {
  TablePtr table;
  double response_seconds = 0.0;  ///< submit -> results fully received
  FragmentResult server_result;
};

class MetaWrapper;

/// \brief Cancellable handle for one in-flight fragment execution.
///
/// The integrator's fault-tolerance layer uses tickets to enforce
/// deadlines and to retire the losing side of a hedged pair. Cancel()
/// aborts whichever stage is current (request hop, server execution, reply
/// hop), guarantees the completion callback fires exactly once (with the
/// cancellation status, on the next scheduler tick), and reports the
/// outcome to QCC: a censored cost observation when the fragment already
/// ran longer than its estimate, plus an error record when the
/// cancellation should count against the server (deadline expiry).
class FragmentTicket {
 public:
  /// Aborts the fragment. `count_as_error` feeds the reliability tracker
  /// and circuit breaker; pass false for no-fault cancellations (hedge
  /// loser, sibling-fragment abort). Returns false if already finished.
  bool Cancel(const Status& reason, bool count_as_error = true);

  bool finished() const { return stage_ == Stage::kDone; }
  const std::string& server_id() const { return server_id_; }
  /// The fragment-dispatch span this execution reports into (0 when the
  /// dispatch was rejected before a span opened).
  uint64_t trace_span() const { return span_; }
  uint64_t query_id() const { return query_id_; }

 private:
  friend class MetaWrapper;
  enum class Stage { kRequest, kExecuting, kReply, kDone };

  MetaWrapper* mw_ = nullptr;
  RemoteServer* server_ = nullptr;
  std::string server_id_;
  uint64_t query_id_ = 0;
  size_t signature_ = 0;
  double estimated_ = 0.0;
  double calibrated_ = 0.0;
  SimTime submit_time_ = 0.0;
  Stage stage_ = Stage::kRequest;
  ExecutionContext::EventId pending_event_ = 0;  ///< request/reply hop in flight
  uint64_t server_job_ = 0;               ///< valid during kExecuting
  uint64_t span_ = 0;        ///< fragment-dispatch span
  uint64_t stage_span_ = 0;  ///< open child span of the current stage
  std::function<void(Result<FragmentExecution>)> done_;
};

using FragmentTicketPtr = std::shared_ptr<FragmentTicket>;

/// \brief Compile-time record kept by MW (paper §2: statements, estimated
/// costs, outgoing fragments, server mappings). A view derived from the
/// telemetry spine's fragment-plan spans.
struct MwCompileRecord {
  uint64_t query_id = 0;
  std::string statement;
  std::string server_id;
  size_t signature = 0;
  obs::CostObservation cost;
};

/// \brief Runtime record kept by MW (paper §2: per-fragment response
/// times). A view derived from the spine's fragment-dispatch spans.
struct MwRuntimeRecord {
  uint64_t query_id = 0;
  std::string server_id;
  size_t signature = 0;
  obs::CostObservation cost;
};

/// \brief The meta-wrapper: middleware between the integrator and the
/// per-server wrappers (paper §2, Figure 2).
///
/// Compile time: fans a fragment out to candidate servers' wrappers,
/// converts wrapper work estimates into integrator-seconds using the
/// catalog's configured server profiles, applies QCC calibration, and
/// records everything. Run time: routes the chosen plan to its server,
/// models request/response transfers over the network, measures response
/// time, and feeds (estimate, observation) pairs back to QCC.
///
/// All measurement flows through the telemetry spine: compile-time plan
/// prices become fragment-plan spans, executions become fragment-dispatch
/// spans with network-hop / server-exec / reply-hop children, and the §2
/// MW logs are compatibility views derived from those spans.
class MetaWrapper {
 public:
  MetaWrapper(GlobalCatalog* catalog, Network* network, ExecutionContext* sim)
      : catalog_(catalog),
        network_(network),
        sim_(sim),
        own_telemetry_(std::make_unique<obs::Telemetry>(sim)),
        telemetry_(own_telemetry_.get()) {}

  /// Registers the wrapper for a server. Wrappers are owned by the caller.
  void RegisterWrapper(RelationalWrapper* wrapper) {
    wrappers_[wrapper->server_id()] = wrapper;
  }

  Result<RelationalWrapper*> GetWrapper(const std::string& server_id) const;
  std::vector<std::string> server_ids() const;

  /// Installs the calibrator (QCC). Never null; defaults to the identity.
  void SetCalibrator(CostCalibrator* calibrator) {
    calibrator_ = calibrator ? calibrator : &null_calibrator_;
  }
  CostCalibrator* calibrator() const { return calibrator_; }

  /// Redirects emission to a shared telemetry spine (a Scenario's);
  /// nullptr restores the private fallback instance. Never null.
  void SetTelemetry(obs::Telemetry* telemetry) {
    telemetry_ = telemetry ? telemetry : own_telemetry_.get();
  }
  obs::Telemetry* telemetry() const { return telemetry_; }

  // -- Compile time ------------------------------------------------------------

  /// Plans `fragment` at each candidate server, returning calibrated
  /// options sorted cheapest-first. Servers whose wrappers fail to plan
  /// (e.g. missing replica) are skipped; an error is returned only if no
  /// candidate server can execute the fragment.
  Result<std::vector<FragmentOption>> CollectFragmentPlans(
      uint64_t query_id, const SelectStmt& fragment,
      const std::vector<std::string>& candidate_servers,
      size_t max_alternatives_per_server = 2);

  /// Converts a wrapper's work-unit estimate to integrator-seconds using
  /// configured profiles (no calibration applied).
  double RawEstimateSeconds(const WrapperPlan& plan) const;

  /// Refreshes a fragment option whose plan was parameter-substituted:
  /// re-annotates it against the owning server's statistics and recomputes
  /// the raw estimate, so the route phase prices (and QCC later pairs
  /// observations with) the same numbers a fresh compile would produce.
  Status ReestimateOption(FragmentOption* option) const;

  // -- Run time --------------------------------------------------------------

  using ExecutionCallback = std::function<void(Result<FragmentExecution>)>;

  /// Executes the chosen fragment option at its server. The callback runs
  /// through the simulator after results travel back across the network.
  /// The returned ticket supports mid-flight cancellation (deadlines,
  /// hedging); callers that never cancel may ignore it. `parent_span`
  /// nests the dispatch span under the caller's span (0 = query root).
  /// `run` is the server's RunAhead result for this option's plan, handed
  /// on to its job (see RemoteServer::SubmitFragment).
  FragmentTicketPtr ExecuteFragment(uint64_t query_id,
                                    const FragmentOption& option,
                                    ExecutionCallback done,
                                    uint64_t parent_span = 0,
                                    FragmentRunPtr run = nullptr);

  /// What an availability-daemon probe measured vs what the configured
  /// profile predicted — the ratio bootstraps initial calibration factors
  /// before any real fragment has executed (§2).
  struct ProbeResult {
    double observed_seconds = 0.0;
    double expected_seconds = 0.0;
  };

  /// Small synchronous availability probe: a tiny scan through the wrapper
  /// plus a network round trip. Fails with Unavailable when the server is
  /// down.
  Result<ProbeResult> ProbeServer(const std::string& server_id);

  // -- Logs ----------------------------------------------------------------

  /// Compile log derived from the spine's fragment-plan spans.
  std::vector<MwCompileRecord> compile_log() const;
  /// Runtime log derived from the spine's fragment-dispatch spans.
  std::vector<MwRuntimeRecord> runtime_log() const;
  /// Drops all traces (and with them both derived logs).
  void ClearLogs() { telemetry_->tracer.Clear(); }

 private:
  friend class FragmentTicket;

  /// Bookkeeping for a ticket aborted mid-flight: span closure, optional
  /// error record, censored cost observation.
  void OnTicketCancelled(const FragmentTicket& ticket, const Status& reason,
                         bool count_as_error);
  /// Closes the ticket's dispatch (and open stage) spans with the final
  /// observation and updates fragment metrics.
  void FinishTicketSpans(const FragmentTicket& ticket, double observed,
                         bool failed, const std::string& detail);

  GlobalCatalog* catalog_;
  Network* network_;
  ExecutionContext* sim_;
  std::map<std::string, RelationalWrapper*> wrappers_;
  NullCalibrator null_calibrator_;
  CostCalibrator* calibrator_ = &null_calibrator_;
  std::unique_ptr<obs::Telemetry> own_telemetry_;
  obs::Telemetry* telemetry_;
};

}  // namespace fedcal
