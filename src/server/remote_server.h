#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <map>
#include <shared_mutex>
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
  /// Engine configuration for fragment execution (batch size, work-unit
  /// price list, profiling).
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

/// \brief A fragment's engine work done ahead of its job on a client thread
/// (RemoteServer::RunAhead). The job that carries it prices it exactly as
/// an inline run, or runs the plan again when the run no longer applies.
struct FragmentRun {
  /// The plan that ran. A job takes the result only for this same plan,
  /// and clears it on taking, so a run answers at most one job.
  PlanNodePtr plan;
  /// The server's data version the run read (RemoteServer::data_version).
  uint64_t data_version = 0;
  Result<TablePtr> table = Status::Internal("fragment not run");
  ExecStats exec_stats;
  /// Per-operator profile in work units: the job scales it with the
  /// speeds in force when it starts, as it does an inline run's.
  std::shared_ptr<obs::OperatorProfile> profile;
};
using FragmentRunPtr = std::shared_ptr<FragmentRun>;

/// \brief A simulated remote database server.
///
/// Hosts real tables, executes fragment plans with the real engine, and
/// models time: a fragment occupies one of `num_workers` slots for
/// work/effective-speed seconds (FCFS queue when all slots are busy).
/// Completion is delivered asynchronously through the discrete-event
/// simulator. Supports availability flips (server down) and transient
/// error injection for the reliability experiments.
///
/// Threading: everything here belongs to the dispatcher (event callbacks
/// and exclusive sections, see ExecutionContext::RunExclusive) except
/// RunAhead and ReadStats, which any thread may call meanwhile. A per-server
/// reader/writer lock keeps those two apart from the writes (AddTable,
/// AppendRows, RefreshStats), which must themselves run on the dispatcher.
class RemoteServer {
 public:
  RemoteServer(ServerConfig config, ExecutionContext* sim, Rng rng);

  const std::string& id() const { return config_.id; }
  const ServerConfig& config() const { return config_; }

  // -- Data ----------------------------------------------------------------

  /// Registers a table (name must be unique on this server) and computes
  /// its statistics.
  Status AddTable(TablePtr table);
  /// Lookups read the table map unlocked: call them on the dispatcher, or
  /// from the engine inside RunAhead.
  Result<TablePtr> GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;
  std::vector<std::string> table_names() const;

  /// Appends rows to a hosted table *without* recomputing statistics —
  /// like a production DBMS, the catalog stays stale until the next
  /// RUNSTATS (RefreshStats). The whole batch is validated against the
  /// schema first: a batch with a bad row appends nothing.
  Status AppendRows(const std::string& table, const std::vector<Row>& rows);

  /// RUNSTATS analog: recompute statistics for one table / all tables.
  Status RefreshStats(const std::string& table);
  void RefreshAllStats();

  /// Local statistics catalog (what the wrapper's cost model uses).
  const StatsCatalog& stats() const { return stats_; }

  /// Runs `fn(stats())` with AddTable and RefreshStats held off, for
  /// readers off the dispatcher (Route's re-estimate of a cached plan).
  template <typename Fn>
  decltype(auto) ReadStats(Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(data_mu_);
    return fn(stats_);
  }

  /// Bumped by every AddTable and AppendRows call: a FragmentRun made at
  /// an older version may have read data that has since changed.
  uint64_t data_version() const {
    return data_version_.load(std::memory_order_acquire);
  }

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
  ///
  /// `run`, when given, is RunAhead's result for `plan`: the job uses it in
  /// place of running the engine, with the same ExecStats, speeds, error
  /// draw and availability check. It runs the plan inline as before when
  /// `run` is null, was made for another plan, was already used, or read
  /// data that AddTable or AppendRows changed since.
  uint64_t SubmitFragment(PlanNodePtr plan, CompletionCallback done,
                          FragmentRunPtr run = nullptr);

  /// Runs `plan` with this server's engine on the calling thread, ahead of
  /// the SubmitFragment that will carry the result, so the dispatcher only
  /// prices it. Safe on any thread while the dispatcher runs. Returns null,
  /// leaving the engine work to the job, when a write is waiting or in
  /// progress: a write waits for no more than the runs already started.
  FragmentRunPtr RunAhead(const PlanNodePtr& plan);

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
  /// Completed fragments whose result came from a RunAhead run rather than
  /// from the engine running inline in the job.
  size_t fragments_completed_from_runs() const { return completed_from_runs_; }
  size_t fragments_failed() const { return failed_; }
  size_t fragments_cancelled() const { return cancelled_; }
  double total_busy_seconds() const { return total_busy_seconds_; }

 private:
  struct Job {
    uint64_t id = 0;
    PlanNodePtr plan;
    CompletionCallback done;
    SimTime submitted_at;
    FragmentRunPtr run;
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
  /// Applies `write` with the data lock held exclusively, bumping the data
  /// version when `changes_data` and the write succeeded. RunAhead stays
  /// out while it waits.
  template <typename Fn>
  Status Write(bool changes_data, Fn&& write);
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
  /// Held shared by RunAhead and ReadStats, exclusively by Write.
  mutable std::shared_mutex data_mu_;
  /// Writes waiting for or holding data_mu_.
  std::atomic<int> writers_{0};
  std::atomic<uint64_t> data_version_{0};

  double background_load_ = 0.0;
  bool available_ = true;
  double error_rate_ = 0.0;

  int busy_workers_ = 0;
  std::deque<Job> queue_;
  uint64_t next_job_id_ = 1;
  std::map<uint64_t, RunningJob> running_;
  size_t completed_ = 0;
  size_t completed_from_runs_ = 0;
  size_t failed_ = 0;
  size_t cancelled_ = 0;
  double total_busy_seconds_ = 0.0;
};

}  // namespace fedcal
