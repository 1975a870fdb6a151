#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <string>

#include "common/result.h"
#include "common/rng.h"
#include "cost/stats_provider.h"
#include "engine/executor.h"
#include "obs/operator_profile.h"
#include "obs/telemetry.h"
#include "core/clock.h"
#include "storage/table.h"

namespace fedcal {

/// \brief Hardware/behaviour profile of a simulated remote DBMS.
///
/// `cpu_speed` and `io_speed` are work units per simulated second at zero
/// load. Background load (the paper's "heavy update load", §5 step 4)
/// reduces the effective speeds through the per-server sensitivities, so a
/// machine with high `io_load_sensitivity` degrades scan-heavy query types
/// much more than CPU-bound ones — the behaviour Figure 9 documents for S3
/// on query type 2.
struct ServerConfig {
  std::string id;
  double cpu_speed = 200'000.0;
  double io_speed = 200'000.0;
  int num_workers = 4;  ///< concurrent fragment execution slots
  double cpu_load_sensitivity = 0.8;
  double io_load_sensitivity = 0.8;
  /// Floor on effective speed under extreme load, as a fraction of nominal.
  double min_speed_fraction = 0.05;
  /// Engine configuration for fragment execution (row vs columnar, batch
  /// size, work-unit price list). Results and stats are engine-invariant.
  ExecConfig exec = {};
};

/// \brief Result of executing one fragment at a remote server.
struct FragmentResult {
  TablePtr table;
  ExecStats exec_stats;
  double server_seconds = 0.0;  ///< queueing + service time at the server
  SimTime started_at = 0.0;
  SimTime finished_at = 0.0;
  /// Per-operator profile of the fragment's execution, with virtual
  /// seconds already scaled by the server's effective speeds at run time.
  /// Optional reply extension: null when the server ran with profiling off
  /// — readers must (and do) treat its absence as the old reply format.
  std::shared_ptr<obs::OperatorProfile> profile;
};

/// \brief A simulated remote database server.
///
/// Hosts real tables, executes fragment plans with the real engine, and
/// models time: a fragment occupies one of `num_workers` slots for
/// work/effective-speed seconds (FCFS queue when all slots are busy).
/// Completion is delivered asynchronously through the discrete-event
/// simulator. Supports availability flips (server down) and transient
/// error injection for the reliability experiments.
class RemoteServer {
 public:
  RemoteServer(ServerConfig config, ExecutionContext* sim, Rng rng);

  const std::string& id() const { return config_.id; }
  const ServerConfig& config() const { return config_; }

  // -- Data ----------------------------------------------------------------

  /// Registers a table (name must be unique on this server) and computes
  /// its statistics.
  Status AddTable(TablePtr table);
  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> table_names() const;

  /// Appends rows to a hosted table *without* recomputing statistics —
  /// like a production DBMS, the catalog stays stale until the next
  /// RUNSTATS (RefreshStats). Rows are validated against the schema.
  Status AppendRows(const std::string& table, const std::vector<Row>& rows);

  /// RUNSTATS analog: recompute statistics for one table / all tables.
  Status RefreshStats(const std::string& table);
  void RefreshAllStats();

  /// Local statistics catalog (what the wrapper's cost model uses).
  const StatsCatalog& stats() const { return stats_; }

  // -- Load & availability ---------------------------------------------------

  /// Background utilization in [0, 1): fraction of the machine consumed by
  /// non-federated work.
  void set_background_load(double load);
  double background_load() const { return background_load_; }

  void SetAvailable(bool available) { available_ = available; }
  bool available() const { return available_; }

  /// Emits per-server execution metrics to `telemetry` (nullable; nullptr
  /// disables emission — the introspection counters below always work).
  void SetTelemetry(obs::Telemetry* telemetry) {
    telemetry_ = telemetry;
    counters_.fill(nullptr);
    queue_depth_ = nullptr;
    exec_s_ = nullptr;
  }

  /// Probability that a fragment fails with a transient execution error.
  void set_error_rate(double rate) { error_rate_ = rate; }
  double error_rate() const { return error_rate_; }

  /// Effective speeds under the current background load.
  double effective_cpu_speed() const;
  double effective_io_speed() const;

  // -- Execution -------------------------------------------------------------

  using CompletionCallback = std::function<void(Result<FragmentResult>)>;

  /// Asynchronously executes `plan` against this server's tables. The
  /// callback fires through the simulator once the fragment completes,
  /// fails, or is rejected (server down). The result's `server_seconds`
  /// covers queueing plus service time (transport is the Network's job).
  /// Returns a job id usable with CancelFragment (0 when the fragment was
  /// rejected outright and there is nothing to cancel).
  uint64_t SubmitFragment(PlanNodePtr plan, CompletionCallback done);

  /// Cancels a queued or in-flight fragment: the job is dequeued (or its
  /// worker freed and its busy time refunded) and its callback never
  /// fires. Returns false when the job already completed or is unknown.
  bool CancelFragment(uint64_t job_id);

  /// Hard outage: fails every queued *and* running fragment with
  /// Unavailable. SetAvailable(false) only rejects new submissions and
  /// lets running jobs finish — the right model for a graceful drain, but
  /// not for a crash mid-flight. Callbacks fire through the simulator on
  /// the next tick; refunded worker time is not charged. Returns the
  /// number of jobs aborted.
  size_t AbortInFlight(const std::string& why);

  /// Synchronous execution that charges no simulated time — used by the
  /// availability daemons' probes and by tests.
  Result<FragmentResult> ExecuteNow(const PlanNodePtr& plan);

  // -- Introspection -----------------------------------------------------------

  int busy_workers() const { return busy_workers_; }
  size_t queued_fragments() const { return queue_.size(); }
  size_t fragments_completed() const { return completed_; }
  size_t fragments_failed() const { return failed_; }
  size_t fragments_cancelled() const { return cancelled_; }
  double total_busy_seconds() const { return total_busy_seconds_; }

 private:
  struct Job {
    uint64_t id = 0;
    PlanNodePtr plan;
    CompletionCallback done;
    SimTime submitted_at;
  };
  struct RunningJob {
    ExecutionContext::EventId completion_event = 0;
    SimTime scheduled_end = 0.0;
    /// Held here (not in the completion closure) so CancelFragment drops
    /// it silently and AbortInFlight can deliver the outage through it.
    CompletionCallback done;
  };

  /// Fragment fates counted as `server.<fate>.<id>`.
  enum class Fate { kSubmitted, kRejected, kCancelled, kCompleted, kFailed };
  static constexpr size_t kNumFates = static_cast<size_t>(Fate::kFailed) + 1;

  void TryDispatch();
  void RunJob(Job job);
  /// Bumps counter `server.<fate>.<id>` when telemetry is attached.
  void Count(Fate fate);
  /// Sets gauge `server.queue_depth.<id>` when telemetry is attached.
  void SetQueueDepth(double depth);
  /// Records into histogram `server.exec_s.<id>` when telemetry is attached.
  void RecordExecSeconds(double seconds);

  ServerConfig config_;
  ExecutionContext* sim_;
  obs::Telemetry* telemetry_ = nullptr;
  // Metric references, each looked up (and so registered) on first use so
  // a snapshot holds only the metrics that were actually touched.
  std::array<obs::Counter*, kNumFates> counters_{};
  obs::Gauge* queue_depth_ = nullptr;
  obs::LatencyHistogram* exec_s_ = nullptr;
  Rng rng_;
  std::map<std::string, TablePtr> tables_;
  StatsCatalog stats_;
  Executor executor_;

  double background_load_ = 0.0;
  bool available_ = true;
  double error_rate_ = 0.0;

  int busy_workers_ = 0;
  std::deque<Job> queue_;
  uint64_t next_job_id_ = 1;
  std::map<uint64_t, RunningJob> running_;
  size_t completed_ = 0;
  size_t failed_ = 0;
  size_t cancelled_ = 0;
  double total_busy_seconds_ = 0.0;
};

}  // namespace fedcal
