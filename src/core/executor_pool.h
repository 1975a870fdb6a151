#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/clock.h"
#include "obs/metrics.h"

namespace fedcal {

/// \brief Serving-runtime tuning.
struct ServingConfig {
  /// Client worker threads in the pool (closed-loop query streams).
  int workers = 1;
  /// Wall seconds per virtual second of timer gap. 0 fires timers as fast
  /// as possible (differential tests); ~5e-3 makes a 1-virtual-second
  /// fragment occupy ~5ms of wall clock, so concurrent in-flight queries
  /// genuinely overlap their waits (the throughput benches use this).
  double time_scale = 0.0;
};

/// \brief The wall-clock ExecutionContext: one timer/dispatcher thread
/// draining a (virtual-time, seq)-ordered event heap, plus a pool of
/// client worker threads for closed-loop query submission.
///
/// **Clock.** The serving clock is *virtual*, exactly like the
/// simulator's: it advances only when an event fires, to that event's due
/// time. `time_scale` stretches the gaps onto the wall clock (the
/// dispatcher sleeps between events) but never changes a timestamp. This
/// is what makes a single-worker serving run reproduce the simulator's
/// observed costs — and therefore its calibration factors and routing
/// decisions — bit for bit.
///
/// **Threading model.** All event callbacks run on the dispatcher thread
/// under the dispatch lock; `RunExclusive` lets any other thread join
/// that mutual exclusion for the scheduling-side of query execution.
/// Everything the engine mutates from event callbacks (attempts,
/// tickets, server queues, links) is therefore dispatcher-owned and needs
/// no locks of its own. The concurrent surfaces — plan cache, QCC
/// calibration state, telemetry spine, logging, and each server's data,
/// which `Route` reads to run the chosen fragments — carry their own
/// synchronization so `Route` on worker threads never takes the dispatch
/// lock (plan selection and fragment engine work are not serialized).
class ServingRuntime final : public ExecutionContext {
 public:
  explicit ServingRuntime(ServingConfig config = {});
  ~ServingRuntime() override;

  ServingRuntime(const ServingRuntime&) = delete;
  ServingRuntime& operator=(const ServingRuntime&) = delete;

  // -- ExecutionContext -------------------------------------------------------

  SimTime Now() const override { return vnow_.load(std::memory_order_acquire); }
  EventId ScheduleAt(SimTime when, Callback cb) override;
  bool Cancel(EventId id) override;
  ExecMode mode() const override { return ExecMode::kServing; }
  int worker_count() const override { return config_.workers; }
  void RunExclusive(const std::function<void()>& fn) override;
  void AwaitCondition(const std::function<bool()>& pred) override;

  // -- Worker pool ------------------------------------------------------------

  /// Runs `job` on one of the pool's worker threads. Jobs may block (the
  /// closed-loop drivers wait for each query's completion callback).
  void Submit(std::function<void()> job);

  /// Blocks until every submitted job has finished.
  void WaitIdle();

  /// Stops the dispatcher and the pool. Pending timers are dropped;
  /// queued jobs are drained first. Called by the destructor.
  void Shutdown();

  size_t fired_events() const { return fired_.load(std::memory_order_relaxed); }
  const ServingConfig& config() const { return config_; }

  /// Routes scheduler telemetry into `registry` under `sched.*` names:
  /// dispatch-lag / exclusion-wait histograms, event-heap depth gauge,
  /// per-worker busy/idle gauges. nullptr disables (the default — a bare
  /// runtime records nothing). Metric references are resolved once here;
  /// the hot paths then cost one acquire load plus the metric update.
  /// Call at most once, before the workload starts (publish is atomic,
  /// but repeated calls would leak the previous resolution).
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct Entry {
    SimTime when;
    uint64_t seq;
    EventId id;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  /// Per-metric references resolved once at set_metrics time, so event
  /// dispatch never does a name lookup.
  struct SchedMetrics {
    obs::LatencyHistogram* dispatch_lag = nullptr;
    obs::LatencyHistogram* exclusive_wait = nullptr;
    obs::LatencyHistogram* await_wait = nullptr;
    obs::Gauge* heap_depth = nullptr;
    obs::Counter* events_fired = nullptr;
    obs::Counter* jobs_completed = nullptr;
    obs::Gauge* workers_busy_s = nullptr;
    obs::Gauge* workers_idle_s = nullptr;
    /// Indexed by worker: (busy_s, idle_s) gauges.
    std::vector<std::pair<obs::Gauge*, obs::Gauge*>> per_worker;
  };

  void DispatchLoop();
  void WorkerLoop(int index);
  /// Runs `cb` as the event at virtual time `when`; the caller holds the
  /// dispatch lock.
  void RunEvent(SimTime when, const Callback& cb);

  SchedMetrics* sched() const {
    return sched_live_.load(std::memory_order_acquire);
  }

  ServingConfig config_;

  std::unique_ptr<SchedMetrics> sched_metrics_;
  std::atomic<SchedMetrics*> sched_live_{nullptr};

  // Virtual clock: high-water mark of started events.
  std::atomic<double> vnow_{0.0};
  std::atomic<size_t> fired_{0};

  // Timer heap (dispatcher pops, any thread pushes/cancels).
  mutable std::mutex heap_mutex_;
  std::condition_variable heap_cv_;
  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::unordered_set<EventId> cancelled_;
  std::unordered_set<EventId> live_;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> next_id_{1};
  bool stop_ = false;

  // Dispatch lock: held while any event callback or exclusive section
  // runs. Reentrancy is tracked per-thread (tls owner).
  std::mutex dispatch_mutex_;

  // Event-progress signal for AwaitCondition.
  std::mutex progress_mutex_;
  std::condition_variable progress_cv_;

  // Worker pool.
  std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> jobs_;
  size_t active_jobs_ = 0;
  bool pool_stop_ = false;

  std::thread dispatcher_;
  std::vector<std::thread> pool_;
};

}  // namespace fedcal
