#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/timed_mutex.h"
#include "engine/plan.h"

namespace fedcal {

/// \brief One row of the explain table: the winner global plan for a
/// compiled query (paper §1 runtime step 1 — "the query fragments selected
/// by the query optimizer and their estimated costs as well as the
/// estimated execution cost of the global query plan are stored in the
/// explain table").
struct ExplainEntry {
  uint64_t query_id = 0;
  std::string sql;
  double total_estimated_seconds = 0.0;  ///< calibrated global cost
  /// The winner's merge plan, shared with the routed query: nothing
  /// changes a plan tree once Route has chosen it. Readers render it
  /// (`merge_plan->ToString()`) when they show the entry.
  PlanNodePtr merge_plan;

  struct FragmentRow {
    std::string server_id;
    std::string statement;  ///< execution descriptor (fragment SQL)
    double estimated_seconds = 0.0;
    double calibrated_seconds = 0.0;
  };
  std::vector<FragmentRow> fragments;
};

/// \brief The integrator's explain table. Only winner plans are stored —
/// which is exactly why QCC needs its own simulated federated system to
/// see the losers (§4.2); the flight recorder keeps the full candidate
/// lists.
///
/// Entries are indexed by query id (O(1) Find; a recompile of the same id
/// supersedes the older row) and retention is bounded: beyond `capacity`
/// the oldest entries are evicted, so the table cannot grow without limit
/// under a long-running workload.
class ExplainTable {
 public:
  explicit ExplainTable(size_t capacity = 1024)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void Put(ExplainEntry entry) {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    ++total_recorded_;
    index_[entry.query_id] = base_ + entries_.size();
    entries_.push_back(std::move(entry));
    while (entries_.size() > capacity_) {
      auto it = index_.find(entries_.front().query_id);
      // Keep the index entry when a newer row for the same id superseded
      // the one being evicted.
      if (it != index_.end() && it->second == base_) index_.erase(it);
      entries_.pop_front();
      ++base_;
    }
  }

  /// Unsynchronized view for single-threaded readers (shell, tests).
  const std::deque<ExplainEntry>& entries() const { return entries_; }
  size_t size() const {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    return entries_.size();
  }
  size_t capacity() const { return capacity_; }
  /// Lifetime Put count — exceeds size() once eviction has happened.
  uint64_t total_recorded() const {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    return total_recorded_;
  }

  void set_capacity(size_t capacity) {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    capacity_ = capacity == 0 ? 1 : capacity;
    while (entries_.size() > capacity_) {
      auto it = index_.find(entries_.front().query_id);
      if (it != index_.end() && it->second == base_) index_.erase(it);
      entries_.pop_front();
      ++base_;
    }
  }

  /// Returned pointers stay valid until the ring evicts that row;
  /// concurrent readers copy what they need or read after quiescing.
  const ExplainEntry* Find(uint64_t query_id) const {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    auto it = index_.find(query_id);
    if (it == index_.end() || it->second < base_) return nullptr;
    return &entries_[it->second - base_];
  }

  /// The most recently explained query (nullptr while empty).
  const ExplainEntry* Latest() const {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    return entries_.empty() ? nullptr : &entries_.back();
  }

  void Clear() {
    std::lock_guard<obs::TimedMutex> lock(mu_);
    entries_.clear();
    index_.clear();
    base_ = 0;
    total_recorded_ = 0;
  }

 private:
  /// Route threads Put concurrently; shells and tests read.
  mutable obs::TimedMutex mu_{"explain_table"};
  size_t capacity_;
  std::deque<ExplainEntry> entries_;
  std::unordered_map<uint64_t, size_t> index_;  ///< query_id -> pos + base_
  size_t base_ = 0;  ///< entries evicted from the front
  uint64_t total_recorded_ = 0;
};

}  // namespace fedcal
