#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/exec_config.h"
#include "engine/plan.h"
#include "obs/operator_profile.h"
#include "storage/value.h"

namespace fedcal {

/// log2(n) clamped below at 1.0 — the sort work-unit scaling factor.
inline double Log2Rows(size_t n) {
  return n < 2 ? 1.0 : std::log2(static_cast<double>(n));
}

/// \brief Records one operator's profile node around its execution.
///
/// Shared by both engines so the tree shape, the row accounting, and the
/// self-vs-cumulative split are identical by construction. Construct
/// before dispatching the node (snapshots the stats and the wall clock),
/// pass prof() as the parent for the node's child recursion, and Finish()
/// once the node has produced its result. Instantiated only on the
/// profiling path — the off path never reaches it, so its cost is
/// irrelevant to unprofiled runs.
class OperatorProfileScope {
 public:
  OperatorProfileScope(const PlanNode& node, const ExecStats& stats)
      : prof_(std::make_shared<obs::OperatorProfile>()),
        work0_(stats.work_units),
        io0_(stats.io_units),
        scanned0_(stats.rows_scanned),
        wall0_(std::chrono::steady_clock::now()) {
    prof_->op = PlanKindName(node.kind);
    prof_->detail = node.Describe();
    prof_->estimated_rows = node.estimated_rows;
  }

  obs::OperatorProfile* prof() { return prof_.get(); }

  /// Seals the node: deltas vs the construction snapshot, rows_in from the
  /// children (or the scan counter for leaves), the self split, both
  /// selectivities; then appends the node to `parent`.
  void Finish(const ExecStats& stats, uint64_t rows_out, uint64_t batches,
              uint64_t arena_bytes, obs::OperatorProfile* parent) {
    prof_->rows_out = rows_out;
    prof_->batches = batches;
    prof_->arena_bytes = arena_bytes;
    prof_->cum_work_units = stats.work_units - work0_;
    prof_->cum_io_units = stats.io_units - io0_;
    prof_->cum_wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall0_)
            .count();
    double child_work = 0.0;
    double child_io = 0.0;
    double child_wall = 0.0;
    double child_est = 0.0;
    uint64_t child_rows = 0;
    for (const auto& c : prof_->children) {
      child_work += c->cum_work_units;
      child_io += c->cum_io_units;
      child_wall += c->cum_wall_s;
      child_est += c->estimated_rows;
      child_rows += c->rows_out;
    }
    prof_->self_work_units = prof_->cum_work_units - child_work;
    prof_->self_io_units = prof_->cum_io_units - child_io;
    prof_->self_wall_s = std::max(0.0, prof_->cum_wall_s - child_wall);
    if (prof_->children.empty()) {
      // Leaves consume storage rows: the scan-counter delta is their input.
      prof_->rows_in = stats.rows_scanned - scanned0_;
      prof_->est_selectivity = 1.0;
    } else {
      prof_->rows_in = child_rows;
      prof_->est_selectivity =
          child_est > 0.0 ? prof_->estimated_rows / child_est : 1.0;
    }
    prof_->obs_selectivity =
        prof_->rows_in > 0 ? static_cast<double>(rows_out) /
                                 static_cast<double>(prof_->rows_in)
                           : 1.0;
    if (parent != nullptr) parent->children.push_back(std::move(prof_));
  }

 private:
  std::shared_ptr<obs::OperatorProfile> prof_;
  double work0_;
  double io0_;
  size_t scanned0_;
  std::chrono::steady_clock::time_point wall0_;
};

/// \brief Hash-map key wrapper so Rows can key unordered_map.
///
/// Shared by the row and columnar engines so join/group/distinct key
/// semantics (null handling, numeric cross-type equality) are identical by
/// construction.
struct RowKey {
  Row values;
  size_t hash;

  explicit RowKey(Row v) : values(std::move(v)), hash(HashRow(values)) {}
  bool operator==(const RowKey& o) const {
    if (hash != o.hash || values.size() != o.values.size()) return false;
    for (size_t i = 0; i < values.size(); ++i) {
      const bool ln = values[i].is_null();
      const bool rn = o.values[i].is_null();
      if (ln != rn) return false;
      if (!ln && values[i].Compare(o.values[i]) != 0) return false;
    }
    return true;
  }
};
struct RowKeyHash {
  size_t operator()(const RowKey& k) const { return k.hash; }
};

/// \brief Accumulator for one aggregate function instance in one group.
///
/// The int_mode/isum/dsum transition sequence depends on the exact variant
/// of every input cell, so both engines feed it the same cells in the
/// same order — as Values, or through UpdateInt64/UpdateDouble from typed
/// columns — and finalize to bit-identical results.
struct AggState {
  size_t count = 0;        // non-null inputs (or all rows for COUNT(*))
  bool int_mode = true;    // SUM stays integral until a double arrives
  int64_t isum = 0;
  double dsum = 0.0;
  Value min_v;
  Value max_v;

  void Update(const AggItem& item, const Value& v) {
    if (item.count_star) {
      ++count;
      return;
    }
    if (v.is_null()) return;
    ++count;
    switch (item.func) {
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.is_int64()) {
          AddInt64(v.AsInt64());
        } else {
          AddDouble(v.AsDouble());
        }
        break;
      case AggFunc::kMin:
        if (min_v.is_null() || v < min_v) min_v = v;
        break;
      case AggFunc::kMax:
        if (max_v.is_null() || max_v < v) max_v = v;
        break;
    }
  }

  /// Update for a non-null int64 / double argument of COUNT, SUM or AVG,
  /// read straight from a typed column: the same transitions as
  /// Update(item, Value(v)). MIN and MAX go through Update.
  void UpdateInt64(const AggItem& item, int64_t v) {
    ++count;
    if (item.func != AggFunc::kCount) AddInt64(v);
  }
  void UpdateDouble(const AggItem& item, double v) {
    ++count;
    if (item.func != AggFunc::kCount) AddDouble(v);
  }

  Value Finalize(const AggItem& item) const {
    switch (item.func) {
      case AggFunc::kCount:
        return Value(static_cast<int64_t>(count));
      case AggFunc::kSum:
        if (count == 0) return Value::Null_();
        if (int_mode && item.result_type == DataType::kInt64) {
          return Value(isum);
        }
        return Value(int_mode ? static_cast<double>(isum) : dsum);
      case AggFunc::kAvg: {
        if (count == 0) return Value::Null_();
        const double total = int_mode ? static_cast<double>(isum) : dsum;
        return Value(total / static_cast<double>(count));
      }
      case AggFunc::kMin:
        return min_v;
      case AggFunc::kMax:
        return max_v;
    }
    return Value::Null_();
  }

 private:
  // SUM/AVG accumulation: integral until the first double arrives, then
  // double from the integral total on.
  void AddInt64(int64_t v) {
    if (int_mode) {
      isum += v;
    } else {
      dsum += static_cast<double>(v);
    }
  }
  void AddDouble(double v) {
    if (int_mode) {
      dsum = static_cast<double>(isum);
      int_mode = false;
    }
    dsum += v;
  }
};

}  // namespace fedcal
