#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
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

/// `w` after `n` sequential `w += c`, each rounded to nearest: the same
/// double bit for bit, without n dependent adds. While w stays in one
/// binade [2^(e-1), 2^e), its doubles are the multiples of its ulp u, so
/// an add whose exact sum w + c = (W + q) * u + r (0 <= r < u) stays below
/// the binade's top rounds to (W + q) * u for r < u / 2 and to
/// (W + q + 1) * u for r > u / 2: every add moves w by the same step, and
/// a run of them is one multiply. Ties, sums near the top of a binade,
/// zero, subnormal, negative or non-finite operands and c >= w take one
/// plain add at a time.
inline double AddRepeated(double w, double c, size_t n) {
  constexpr uint64_t kTop = uint64_t{1} << 53;  // 2^e in units of u
  while (n > 0) {
    if (!(w >= std::numeric_limits<double>::min()) || !(c > 0.0) ||
        !(c < w) || !std::isfinite(w)) {
      w += c;
      --n;
      continue;
    }
    int e = 0;
    std::frexp(w, &e);
    const double u = std::ldexp(1.0, e - 53);
    const double q = std::floor(c / u);  // c < w < 2^e, so q < 2^53
    const double r = c - q * u;          // exact: the low bits of c
    if (r == 0.5 * u) {
      w += c;
      --n;
      continue;
    }
    const auto big_w = static_cast<uint64_t>(w / u);  // in [2^52, 2^53)
    const auto big_q = static_cast<uint64_t>(q);
    const uint64_t step = r < 0.5 * u ? big_q : big_q + 1;
    // An add from W is safe while W + q + 2 <= 2^53: the exact sum then
    // lies below (2^53 - 1) * u, where the grid is still u.
    uint64_t safe = 0;
    if (big_w + big_q + 2 <= kTop) {
      safe = step == 0 ? n : (kTop - big_q - 2 - big_w) / step + 1;
    }
    if (safe == 0) {
      w += c;
      --n;
      continue;
    }
    const uint64_t k = std::min<uint64_t>(safe, n);
    w = static_cast<double>(big_w + k * step) * u;
    n -= static_cast<size_t>(k);
  }
  return w;
}

/// \brief A uint32 slot per int64 key, kNone until its user sets it: a
/// hash join whose build keys are too sparse for its dense layout keeps
/// its key numbers in them, and both columnar aggregate paths their group
/// ids.
///
/// While the keys seen so far stay compact (serial ids and small codes
/// do), a key's slot is found by its offset in a window of slots, so a
/// lookup costs no hash. The window grows as keys arrive, at least doubling
/// each time, so no pass over the keys has to size it first. Once the keys
/// would span more than max(4 × rows + 1024, 2^22) slots, `rows` being how
/// many rows they are drawn from, every set slot moves to a hash map, and
/// all later keys go there. The absolute floor matters: a small build side
/// probed by a large input (a selective filter joined against a big table)
/// is worth a few MB of slots to turn every probe into an array index.
class Int64KeyIndex {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  explicit Int64KeyIndex(size_t rows)
      : max_span_(std::max<uint64_t>(4 * static_cast<uint64_t>(rows) + 1024,
                                     uint64_t{1} << 22)) {}

  /// Sizes the window for keys in [lo, hi] before the first Slot, when
  /// they span few enough slots: a user that knows its keys' range up
  /// front (the numbered join build) makes one window instead of growing
  /// one.
  void Reserve(int64_t lo, int64_t hi) {
    const uint64_t span =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    if (!slots_.empty() || hashed_ || span >= max_span_) return;
    lo_ = lo;
    slots_.assign(span + 1, kNone);
  }
  /// The slot of `k`, kNone when `k` is new. The reference lasts until the
  /// next call of Slot.
  uint32_t& Slot(int64_t k) {
    const uint64_t off = Offset(k);
    return off < slots_.size() ? slots_[off] : Grow(k);
  }
  /// The slot of `k`, kNone for a key Slot never saw.
  uint32_t Find(int64_t k) const {
    const uint64_t off = Offset(k);
    if (off < slots_.size()) return slots_[off];
    if (!hashed_) return kNone;
    auto it = map_.find(k);
    return it == map_.end() ? kNone : it->second;
  }
  /// True while keys are found by their offset in the window.
  bool direct() const { return !hashed_; }

 private:
  // Unsigned arithmetic is overflow-safe for any int64 pair.
  uint64_t Offset(int64_t k) const {
    return static_cast<uint64_t>(k) - static_cast<uint64_t>(lo_);
  }

  /// Slot for a key outside the window: widens the window to take `k`, or
  /// moves every set slot to the hash map.
  uint32_t& Grow(int64_t k) {
    const uint64_t n = slots_.size();
    if (!hashed_ && n == 0) {
      lo_ = k;
      slots_.assign(1, kNone);
      return slots_[0];
    }
    if (!hashed_) {
      const auto lo = static_cast<uint64_t>(lo_);
      const uint64_t hi = lo + (n - 1);
      const bool left = k < lo_;
      // How many slots the window must add to take `k`, and how many it
      // can add before it leaves the int64 range.
      const uint64_t need = left ? lo - static_cast<uint64_t>(k)
                                 : static_cast<uint64_t>(k) - hi;
      const uint64_t room =
          left ? lo - static_cast<uint64_t>(
                          std::numeric_limits<int64_t>::min())
               : static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) -
                     hi;
      if (need <= max_span_ - n) {
        const uint64_t add = std::min({std::max(need, n), max_span_ - n, room});
        std::vector<uint32_t> wider(n + add, kNone);
        std::copy(slots_.begin(), slots_.end(),
                  wider.begin() + static_cast<ptrdiff_t>(left ? add : 0));
        slots_ = std::move(wider);
        if (left) lo_ = static_cast<int64_t>(lo - add);
        return slots_[Offset(k)];
      }
      for (uint64_t i = 0; i < n; ++i) {
        if (slots_[i] != kNone) {
          map_.emplace(static_cast<int64_t>(lo + i), slots_[i]);
        }
      }
      slots_.clear();
      slots_.shrink_to_fit();
      hashed_ = true;
    }
    return map_.try_emplace(k, kNone).first->second;
  }

  uint64_t max_span_;
  int64_t lo_ = 0;
  std::vector<uint32_t> slots_;  ///< keys [lo_, lo_ + size) while direct
  bool hashed_ = false;
  std::unordered_map<int64_t, uint32_t> map_;
};

/// \brief Accumulator for one aggregate function instance in one group.
///
/// The int_mode/isum/dsum transition sequence depends on every input
/// cell's variant and order, and MIN/MAX keep the first of equal cells
/// (a strict <), so both engines feed it the same cells in the same order
/// and finalize to bit-identical results: the columnar engine through
/// the typed updates (Sum, Min, Max, and `++count` for COUNT), or, over a
/// hash join, through dense accumulators that make the same transitions
/// and are stored into these fields when the groups are emitted; the row
/// oracle through Update.
struct AggState {
  size_t count = 0;        // non-null inputs (or all rows for COUNT(*))
  bool int_mode = true;    // SUM stays integral until a double arrives
  int64_t isum = 0;
  double dsum = 0.0;
  Value min_v;
  Value max_v;

  /// The row oracle's update: one row's argument as a Value.
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

  /// Updates for one non-null argument read from a typed column (or a
  /// constant), one per function, each making the transition
  /// Update(item, Value(v)) makes: T is int64_t, double or, for MIN and
  /// MAX, std::string_view (the binder rejects SUM and AVG of strings).
  /// The columnar feeds pick one per batch (WithTypedUpdate), so their
  /// loops carry no per-cell switch on the function.
  template <typename T>
  void Sum(T v) {
    ++count;
    if constexpr (std::is_same_v<T, int64_t>) AddInt64(v);
    if constexpr (std::is_same_v<T, double>) AddDouble(v);
  }
  template <typename T>
  void Min(T v) {
    ++count;
    if (min_v.is_null() || v < Kept<T>(min_v)) min_v = Keep(v);
  }
  template <typename T>
  void Max(T v) {
    ++count;
    if (max_v.is_null() || Kept<T>(max_v) < v) max_v = Keep(v);
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
  /// A kept MIN/MAX Value read as a T, and a T made a Value to keep.
  template <typename T>
  static T Kept(const Value& v) {
    if constexpr (std::is_same_v<T, int64_t>) return v.AsInt64();
    if constexpr (std::is_same_v<T, double>) return v.AsDouble();
    if constexpr (std::is_same_v<T, std::string_view>) return v.AsString();
  }
  static Value Keep(int64_t v) { return Value(v); }
  static Value Keep(double v) { return Value(v); }
  static Value Keep(std::string_view v) { return Value(std::string(v)); }

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
