#include "server/remote_server.h"

#include <algorithm>

#include "common/logging.h"
#include "common/macros.h"

namespace fedcal {

RemoteServer::RemoteServer(ServerConfig config, ExecutionContext* sim, Rng rng)
    : config_(std::move(config)),
      sim_(sim),
      rng_(rng),
      executor_([this](const std::string& name) { return GetTable(name); },
                config_.exec) {}

template <typename Fn>
Status RemoteServer::Write(bool changes_data, Fn&& write) {
  writers_.fetch_add(1);
  Status st;
  {
    std::unique_lock<std::shared_mutex> lock(data_mu_);
    st = write();
    // A failed write changed nothing (AppendRows checks its whole batch
    // before it appends), so only a write that succeeded makes older runs
    // stale.
    if (changes_data && st.ok()) {
      data_version_.fetch_add(1, std::memory_order_release);
    }
  }
  writers_.fetch_sub(1);
  return st;
}

Status RemoteServer::AddTable(TablePtr table) {
  if (tables_.count(table->name())) {
    return Status::AlreadyExists("table " + table->name() + " on server " +
                                 config_.id);
  }
  TableStats stats = TableStats::Compute(*table);
  return Write(/*changes_data=*/true, [&] {
    stats_.Put(std::move(stats));
    tables_[table->name()] = std::move(table);
    return Status::OK();
  });
}

Result<TablePtr> RemoteServer::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + name + " on server " + config_.id);
  }
  return it->second;
}

bool RemoteServer::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

std::vector<std::string> RemoteServer::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, t] : tables_) names.push_back(name);
  return names;
}

Status RemoteServer::AppendRows(const std::string& table,
                                const std::vector<Row>& rows) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + table + " on server " +
                            config_.id);
  }
  return Write(/*changes_data=*/true,
               [&] { return it->second->AppendRows(rows); });
}

Status RemoteServer::RefreshStats(const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no table " + table + " on server " +
                            config_.id);
  }
  TableStats stats = TableStats::Compute(*it->second);
  return Write(/*changes_data=*/false, [&] {
    stats_.Put(std::move(stats));
    return Status::OK();
  });
}

void RemoteServer::RefreshAllStats() {
  std::vector<TableStats> fresh;
  fresh.reserve(tables_.size());
  for (const auto& [name, table] : tables_) {
    fresh.push_back(TableStats::Compute(*table));
  }
  (void)Write(/*changes_data=*/false, [&] {
    for (TableStats& stats : fresh) stats_.Put(std::move(stats));
    return Status::OK();
  });
}

void RemoteServer::set_background_load(double load) {
  background_load_ = std::clamp(load, 0.0, 0.99);
}

double RemoteServer::effective_cpu_speed() const {
  const double frac = std::max(
      config_.min_speed_fraction,
      1.0 - config_.cpu_load_sensitivity * background_load_);
  return config_.cpu_speed * frac;
}

double RemoteServer::effective_io_speed() const {
  const double frac = std::max(
      config_.min_speed_fraction,
      1.0 - config_.io_load_sensitivity * background_load_);
  return config_.io_speed * frac;
}

Result<FragmentResult> RemoteServer::ExecuteNow(const PlanNodePtr& plan) {
  if (!available_) {
    return Status::Unavailable("server " + config_.id + " is down");
  }
  FragmentResult result;
  result.started_at = sim_->Now();
  FEDCAL_ASSIGN_OR_RETURN(
      result.table,
      executor_.Execute(plan, &result.exec_stats,
                        config_.exec.profile ? &result.profile : nullptr));
  result.server_seconds =
      result.exec_stats.cpu_units() / effective_cpu_speed() +
      result.exec_stats.io_units / effective_io_speed();
  if (result.profile) {
    obs::ApplyServerSpeeds(result.profile.get(), effective_cpu_speed(),
                           effective_io_speed());
  }
  result.finished_at = result.started_at;
  return result;
}

void RemoteServer::Count(Fate fate) {
  if (telemetry_ == nullptr) return;
  static constexpr const char* kNames[kNumFates] = {
      "submitted", "rejected", "cancelled", "completed", "failed"};
  const size_t i = static_cast<size_t>(fate);
  if (counters_[i] == nullptr) {
    counters_[i] = &telemetry_->metrics.counter(
        std::string("server.") + kNames[i] + "." + config_.id);
  }
  counters_[i]->Add();
}

void RemoteServer::SetQueueDepth(double depth) {
  if (telemetry_ == nullptr) return;
  if (queue_depth_ == nullptr) {
    queue_depth_ =
        &telemetry_->metrics.gauge("server.queue_depth." + config_.id);
  }
  queue_depth_->Set(depth);
}

void RemoteServer::RecordExecSeconds(double seconds) {
  if (telemetry_ == nullptr) return;
  if (exec_s_ == nullptr) {
    exec_s_ = &telemetry_->metrics.histogram("server.exec_s." + config_.id);
  }
  exec_s_->Record(seconds);
}

FragmentRunPtr RemoteServer::RunAhead(const PlanNodePtr& plan) {
  if (writers_.load() > 0) return nullptr;
  std::shared_lock<std::shared_mutex> lock(data_mu_, std::try_to_lock);
  if (!lock.owns_lock()) return nullptr;
  auto run = std::make_shared<FragmentRun>();
  run->plan = plan;
  run->data_version = data_version_.load(std::memory_order_acquire);
  run->table = executor_.Execute(
      plan, &run->exec_stats, config_.exec.profile ? &run->profile : nullptr);
  return run;
}

uint64_t RemoteServer::SubmitFragment(PlanNodePtr plan,
                                      CompletionCallback done,
                                      FragmentRunPtr run) {
  if (!available_) {
    Count(Fate::kRejected);
    // Rejection still takes one scheduler tick so callers never reenter.
    sim_->ScheduleAfter(0.0, [this, done = std::move(done)] {
      done(Status::Unavailable("server " + config_.id + " is down"));
    });
    return 0;
  }
  const uint64_t id = next_job_id_++;
  queue_.push_back(Job{id, std::move(plan), std::move(done), sim_->Now(),
                       std::move(run)});
  Count(Fate::kSubmitted);
  TryDispatch();
  SetQueueDepth(double(queue_.size()));
  return id;
}

bool RemoteServer::CancelFragment(uint64_t job_id) {
  if (job_id == 0) return false;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->id == job_id) {
      queue_.erase(it);
      ++cancelled_;
      Count(Fate::kCancelled);
      return true;
    }
  }
  auto it = running_.find(job_id);
  if (it == running_.end()) return false;
  sim_->Cancel(it->second.completion_event);
  // Refund the service time the worker will no longer spend.
  total_busy_seconds_ -=
      std::max(0.0, it->second.scheduled_end - sim_->Now());
  running_.erase(it);
  --busy_workers_;
  ++cancelled_;
  Count(Fate::kCancelled);
  TryDispatch();
  return true;
}

void RemoteServer::TryDispatch() {
  while (busy_workers_ < config_.num_workers && !queue_.empty()) {
    Job job = std::move(queue_.front());
    queue_.pop_front();
    ++busy_workers_;
    RunJob(std::move(job));
  }
}

void RemoteServer::RunJob(Job job) {
  // The server may have gone down while the job sat in the queue.
  if (!available_) {
    --busy_workers_;
    Count(Fate::kRejected);
    sim_->ScheduleAfter(0.0, [this, done = std::move(job.done)] {
      done(Status::Unavailable("server " + config_.id + " went down"));
    });
    return;
  }

  FragmentResult result;
  result.started_at = sim_->Now();
  ExecStats stats;
  std::shared_ptr<obs::OperatorProfile> profile;
  Result<TablePtr> table = Status::Internal("fragment not run");
  // A run made ahead on a client thread stands in for the engine when it
  // ran this plan on the data the server still holds. Everything below
  // prices both alike: the work is the same ExecStats either way.
  const bool from_run = job.run != nullptr && job.run->plan == job.plan &&
                        job.run->data_version == data_version();
  if (from_run) {
    job.run->plan = nullptr;
    table = std::move(job.run->table);
    stats = job.run->exec_stats;
    profile = std::move(job.run->profile);
  } else {
    table = executor_.Execute(job.plan, &stats,
                              config_.exec.profile ? &profile : nullptr);
  }
  job.run = nullptr;
  if (profile) {
    // Scale unit deltas with the speeds in force *now* — the load that
    // shaped this execution, even if it changes before the reply lands.
    obs::ApplyServerSpeeds(profile.get(), effective_cpu_speed(),
                           effective_io_speed());
  }

  double service_time = 0.0;
  Status failure = Status::OK();
  if (!table.ok()) {
    failure = table.status();
    service_time = 1e-4;  // fast failure
  } else {
    service_time = stats.cpu_units() / effective_cpu_speed() +
                   stats.io_units / effective_io_speed();
    if (error_rate_ > 0.0 && rng_.Bernoulli(error_rate_)) {
      // Transient fault mid-execution: charge a random fraction of the
      // work, return an error.
      service_time *= rng_.UniformDouble(0.1, 0.9);
      failure = Status::ExecutionError("transient fault on server " +
                                       config_.id);
    }
  }
  total_busy_seconds_ += service_time;

  const SimTime submitted = job.submitted_at;
  const uint64_t job_id = job.id;
  const ExecutionContext::EventId event = sim_->ScheduleAfter(
      service_time,
      [this, job_id, failure, from_run,
       table = table.ok() ? table.MoveValue() : nullptr, stats, submitted,
       profile = std::move(profile),
       started = result.started_at]() mutable {
        auto run_it = running_.find(job_id);
        CompletionCallback done = std::move(run_it->second.done);
        running_.erase(run_it);
        --busy_workers_;
        if (!failure.ok()) {
          ++failed_;
          Count(Fate::kFailed);
          done(failure);
        } else {
          ++completed_;
          if (from_run) ++completed_from_runs_;
          Count(Fate::kCompleted);
          FragmentResult r;
          r.table = std::move(table);
          r.exec_stats = stats;
          r.profile = std::move(profile);
          r.started_at = started;
          r.finished_at = sim_->Now();
          r.server_seconds = sim_->Now() - submitted;
          RecordExecSeconds(r.server_seconds);
          done(std::move(r));
        }
        TryDispatch();
      });
  running_[job_id] =
      RunningJob{event, sim_->Now() + service_time, std::move(job.done)};
}

size_t RemoteServer::AbortInFlight(const std::string& why) {
  const Status failure =
      Status::Unavailable("server " + config_.id + " " + why);
  size_t aborted = 0;
  // Queued jobs never reached a worker; running jobs lose theirs and the
  // unspent service time is refunded (the machine is gone, nobody pays).
  std::deque<Job> queued;
  queued.swap(queue_);
  for (Job& job : queued) {
    ++failed_;
    Count(Fate::kFailed);
    sim_->ScheduleAfter(0.0, [done = std::move(job.done), failure] {
      done(failure);
    });
    ++aborted;
  }
  std::map<uint64_t, RunningJob> running;
  running.swap(running_);
  for (auto& [job_id, job] : running) {
    sim_->Cancel(job.completion_event);
    total_busy_seconds_ -= std::max(0.0, job.scheduled_end - sim_->Now());
    --busy_workers_;
    ++failed_;
    Count(Fate::kFailed);
    sim_->ScheduleAfter(0.0, [done = std::move(job.done), failure] {
      done(failure);
    });
    ++aborted;
  }
  SetQueueDepth(0.0);
  if (aborted > 0) {
    FEDCAL_LOG_INFO << "server " << config_.id << ": outage aborted "
                    << aborted << " in-flight fragment(s)";
  }
  return aborted;
}

}  // namespace fedcal
