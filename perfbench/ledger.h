#pragma once

// The benchmark's own span ledger and the process/statistics helpers the
// workloads share. Spans are recorded around the benchmark's calls into
// each layer of the library (never inside it), kept in memory, and
// written out as Chrome-trace JSON when a traced run ends.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// The calls the benchmark wraps. Each layer boundary gets one name.
enum class SpanName : uint8_t {
  kExclusiveWait,  ///< waiting to enter ExecutionContext::RunExclusive
  kPrepare,        ///< Integrator::Prepare (inside the exclusion)
  kRoute,          ///< Integrator::Route
  kExecute,        ///< Integrator::Execute (inside the exclusion)
  kAwait,          ///< Execute returned -> completion callback
  kSimStep,        ///< one Simulator::Step
  kAppendRows,     ///< RemoteServer::AppendRows (one insert batch)
  kCheck,          ///< the benchmark's result check
  kCount,
};

const char* SpanNameText(SpanName name);

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = top level on its thread
  uint64_t query_id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t tid = 0;
  SpanName name = SpanName::kCount;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief In-memory span store. Disabled ledgers record nothing and cost
/// one branch per call. Thread-safe: workers and the dispatcher add spans
/// concurrently; a span's parent is the innermost span still open on the
/// thread that adds it.
class SpanLedger {
 public:
  explicit SpanLedger(bool enabled) : enabled_(enabled) {}
  SpanLedger(const SpanLedger&) = delete;
  SpanLedger& operator=(const SpanLedger&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread and returns its token (0 when
  /// disabled). Spans opened or added on this thread until the matching
  /// Close are its children.
  uint64_t Open(SpanName name, uint64_t query_id);
  void Close(uint64_t token);

  /// Records a finished span with explicit stamps (for intervals measured
  /// anyway, or ending on another thread). Parent: the innermost open span
  /// of the calling thread.
  void Add(SpanName name, uint64_t query_id, int64_t start_ns,
           int64_t end_ns);

  /// Every closed span. Call after the run has quiesced.
  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time of every span (duration minus its children's durations),
  /// indexed like spans().
  std::vector<int64_t> SelfTimesNs() const;

  /// Chrome trace-event JSON ("X" events, microseconds, one track per
  /// thread), loadable by Perfetto / chrome://tracing.
  std::string ChromeTraceJson(const std::string& process_name) const;

 private:
  bool enabled_;
  std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
};

/// Opens a span for the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLedger* ledger, SpanName name, uint64_t query_id)
      : ledger_(ledger), token_(ledger->Open(name, query_id)) {}
  ~ScopedSpan() { ledger_->Close(token_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLedger* ledger_;
  uint64_t token_;
};

// -- Statistics ---------------------------------------------------------------

/// The p-th percentile (p in [0,100]) of `values`, as the Harrell-Davis
/// estimate: a weighted average of all order statistics, much steadier
/// than one order statistic when the sample is a mix of query types with
/// a gap between them. +inf entries (failed queries) count as larger
/// than every finite one, so failures push percentiles up, to +inf once
/// they exceed 100 - p percent. 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Least-squares slope of y over x (0 with fewer than two distinct x).
double Slope(const std::vector<double>& x, const std::vector<double>& y);

// -- Process memory -----------------------------------------------------------

/// A /proc/self/status field in KiB (VmRSS, VmHWM, ...); 0 if unreadable.
double ProcStatusKiB(const char* field);
/// Returns freed heap to the OS and resets VmHWM to the current RSS, so
/// work done before this point does not count toward the peak.
void ResetPeakRss();

}  // namespace perfbench
