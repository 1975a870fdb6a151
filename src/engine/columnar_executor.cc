#include "engine/columnar_executor.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/exec_common.h"

namespace fedcal {

namespace {

using SlotMask = ColumnarExecutor::SlotMask;

SlotMask AllSlots(const PlanNode& node) {
  return SlotMask(node.output_schema.num_columns(), true);
}

/// Marks the slots `e` reads (none for a null expression).
void AddSlots(const BoundExprPtr& e, SlotMask* mask) {
  if (e == nullptr) return;
  std::vector<size_t> slots;
  e->CollectColumns(&slots);
  for (size_t s : slots) {
    if (s < mask->size()) (*mask)[s] = true;
  }
}

/// Fails on an absent slice: `t` is about to be read in full (a result
/// leaving Execute, or the input of Distinct or a nested-loop join).
Status CheckAllPresent(const ColumnarTable& t, const char* what) {
  for (const ColumnChunk& chunk : t.chunks()) {
    for (size_t c = 0; c < chunk.columns.size(); ++c) {
      if (!chunk.columns[c].present()) {
        return Status::Internal(
            StringFormat("column %zu of %s is not materialized", c, what));
      }
    }
  }
  return Status::OK();
}

/// Compacts the selected rows of the `keep` columns of `src` into a fresh
/// chunk; the other columns are absent.
ColumnChunk GatherChunk(const ColumnChunk& src, const uint32_t* sel,
                        size_t k, const SlotMask& keep) {
  ColumnChunk out;
  out.length = k;
  out.columns.resize(src.columns.size());
  for (size_t c = 0; c < src.columns.size(); ++c) {
    const ColumnSlice& s = src.columns[c];
    if (!keep[c] || !s.present()) continue;
    auto col = std::make_shared<ColumnData>(s.col->type());
    col->AppendGather(s, sel, k);
    out.columns[c] = ColumnSlice{std::move(col), 0};
  }
  return out;
}

/// Column c of every chunk of `t`, in chunk order, for every c: the
/// gather sources that RowRefs into `t` index.
std::vector<std::vector<ColumnSlice>> GatherSources(const ColumnarTable& t) {
  std::vector<std::vector<ColumnSlice>> sources(t.schema().num_columns());
  for (const ColumnChunk& chunk : t.chunks()) {
    for (size_t c = 0; c < sources.size(); ++c) {
      sources[c].push_back(chunk.columns[c]);
    }
  }
  return sources;
}

/// Appends the `keep` columns of rows `refs[0..n)` of `src` to `out` in
/// chunks of `batch_rows`; the other columns are absent. Used by Sort and
/// Distinct, whose outputs are arbitrary permutations/subsets of their
/// input.
void AppendGatheredRows(const ColumnarTable& src, const RowRef* refs,
                        size_t n, size_t batch_rows, const SlotMask& keep,
                        ColumnarTable* out) {
  if (batch_rows == 0) batch_rows = 1;
  const std::vector<std::vector<ColumnSlice>> sources = GatherSources(src);
  for (size_t start = 0; start < n; start += batch_rows) {
    const size_t len = std::min(batch_rows, n - start);
    ColumnChunk chunk;
    chunk.length = len;
    chunk.columns.resize(sources.size());
    for (size_t c = 0; c < sources.size(); ++c) {
      if (!keep[c]) continue;
      auto col = std::make_shared<ColumnData>(src.schema().column(c).type);
      col->AppendGather(sources[c], refs + start, len);
      chunk.columns[c] = ColumnSlice{std::move(col), 0};
    }
    out->AppendChunk(std::move(chunk));
  }
}

// The typed updates of one aggregate by one non-null cell, `update(state,
// cell)`: stateless, so a loop instantiated over one of them carries no
// switch on the function.
struct CountUpdate {
  template <typename T>
  void operator()(AggState& s, T) const {
    ++s.count;
  }
};
struct SumUpdate {
  template <typename T>
  void operator()(AggState& s, T v) const {
    s.Sum(v);
  }
};
struct MinUpdate {
  template <typename T>
  void operator()(AggState& s, T v) const {
    s.Min(v);
  }
};
struct MaxUpdate {
  template <typename T>
  void operator()(AggState& s, T v) const {
    s.Max(v);
  }
};

/// Calls feed(update) with `item`'s update, chosen here once so that the
/// feed's loop carries no per-cell switch on the function.
template <typename Feed>
void WithTypedUpdate(const AggItem& item, Feed&& feed) {
  switch (item.func) {
    case AggFunc::kCount:
      feed(CountUpdate{});
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      feed(SumUpdate{});
      return;
    case AggFunc::kMin:
      feed(MinUpdate{});
      return;
    case AggFunc::kMax:
      feed(MaxUpdate{});
      return;
  }
}

/// Calls update(state of row i's group, cell(i)) for each row i < n whose
/// `nulls[i]` is 0 (every row when `nulls` is null).
template <typename Cell, typename Update>
void FeedRows(Cell cell, const uint8_t* nulls, const uint32_t* gids,
              size_t n, AggState* states, size_t stride, Update update) {
  for (size_t i = 0; i < n; ++i) {
    if (nulls != nullptr && nulls[i] != 0) continue;
    update(states[gids[i] * stride], cell(i));
  }
}

/// Feeds rows [0, n) of one aggregate's argument into the accumulators
/// `states[gids[i] * stride]`. COUNT(*) counts; every other aggregate
/// reads its argument's typed cells, or a constant's one value for every
/// row.
void UpdateAggregate(const AggItem& item, const VectorResult& arg,
                     const uint32_t* gids, size_t n, AggState* states,
                     size_t stride) {
  if (item.count_star) {
    for (size_t i = 0; i < n; ++i) ++states[gids[i] * stride].count;
    return;
  }
  WithTypedUpdate(item, [&](auto update) {
    auto feed = [&](auto cell, const uint8_t* nulls) {
      FeedRows(cell, nulls, gids, n, states, stride, update);
    };
    if (arg.constant) {
      const Value& c = arg.const_value;
      if (c.is_int64()) {
        feed([v = c.AsInt64()](size_t) { return v; }, nullptr);
      } else if (c.is_double()) {
        feed([v = c.AsDouble()](size_t) { return v; }, nullptr);
      } else if (c.is_string()) {
        feed([v = std::string_view(c.AsString())](size_t) { return v; },
             nullptr);
      }
      return;
    }
    const ColumnData& col = *arg.col;
    const size_t off = arg.offset;
    const uint8_t* nulls = col.has_nulls() ? col.nulls() + off : nullptr;
    switch (col.type()) {
      case DataType::kInt64:
        feed([v = col.ints() + off](size_t i) { return v[i]; }, nulls);
        return;
      case DataType::kDouble:
        feed([v = col.doubles() + off](size_t i) { return v[i]; }, nulls);
        return;
      case DataType::kString:
        feed([&dict = col.dict(), v = col.codes() + off](size_t i) {
               return dict.at(v[i]);
             },
             nulls);
        return;
    }
  });
}

/// \brief The typed cells of one column from a row on: base pointers with
/// the slice's offset applied, read by row index.
struct Cells {
  const int64_t* ints = nullptr;     ///< kInt64 only
  const double* doubles = nullptr;   ///< kDouble only
  const uint32_t* codes = nullptr;   ///< kString only
  const StringDict* dict = nullptr;  ///< kString only
  const uint8_t* nulls = nullptr;    ///< null when there is no null bitmap

  static Cells Of(const ColumnData& col, size_t offset) {
    Cells c;
    switch (col.type()) {
      case DataType::kInt64:
        c.ints = col.ints() + offset;
        break;
      case DataType::kDouble:
        c.doubles = col.doubles() + offset;
        break;
      case DataType::kString:
        c.codes = col.codes() + offset;
        c.dict = &col.dict();
        break;
    }
    if (col.has_nulls()) c.nulls = col.nulls() + offset;
    return c;
  }
  static Cells Of(const ColumnSlice& s) { return Of(*s.col, s.offset); }

  bool IsNull(size_t i) const { return nulls != nullptr && nulls[i] != 0; }
};

// A typed cell of a Cells.
struct IntCell {
  int64_t operator()(const Cells& c, uint32_t i) const { return c.ints[i]; }
};
struct DoubleCell {
  double operator()(const Cells& c, uint32_t i) const { return c.doubles[i]; }
};
struct StringCell {
  std::string_view operator()(const Cells& c, uint32_t i) const {
    return c.dict->at(c.codes[i]);
  }
};

/// \brief The groups of one Aggregate in first-seen order: each group's
/// key and its accumulators, `naggs` per group, group-major.
///
/// Each lookup gives a key it has not seen the next id, so ids follow the
/// order in which the input first shows each key, as in the row engine.
class Groups {
 public:
  static constexpr uint32_t kNone = Int64KeyIndex::kNone;

  /// `rows` is how many rows the keys come from, for the int64 index.
  Groups(size_t naggs, size_t rows) : naggs_(naggs), int_index_(rows) {}

  size_t size() const { return keys_.size(); }
  const Row& key(size_t g) const { return keys_[g]; }
  AggState* states() { return states_.data(); }
  const AggState& state(size_t g, size_t a) const {
    return states_[g * naggs_ + a];
  }

  /// The one group of an aggregate without keys.
  uint32_t Global() { return size() == 0 ? Add(Row{}) : 0; }
  /// NULL keys form a regular group in the row engine (Compare treats null
  /// == null); the typed indexes cannot hold them, so they get this slot.
  uint32_t Null() {
    if (null_group_ == kNone) null_group_ = Add(Row{Value()});
    return null_group_;
  }
  uint32_t Int64(int64_t k) {
    uint32_t& g = int_index_.Slot(k);
    if (g == kNone) g = Add(Row{Value(k)});
    return g;
  }
  /// The group ids of `dict`'s codes, kNone until first seen: string keys
  /// resolve through one array per dictionary, so each (dictionary, code)
  /// hashes its string once, and a string coded in two dictionaries still
  /// names one group. The array stays put while the groups live.
  uint32_t* DictGroups(const StringDict* dict) {
    auto it = std::find_if(dict_groups_.begin(), dict_groups_.end(),
                           [&](const auto& e) { return e.first == dict; });
    if (it == dict_groups_.end()) {
      dict_groups_.emplace_back(dict,
                                std::vector<uint32_t>(dict->size(), kNone));
      it = dict_groups_.end() - 1;
    }
    return it->second.data();
  }
  /// `dict` must outlive the groups: the index holds views into it.
  uint32_t Code(const StringDict& dict, uint32_t* lut, uint32_t code) {
    uint32_t& g = lut[code];
    if (g == kNone) {
      const std::string_view k = dict.at(code);
      auto [it, inserted] = str_index_.try_emplace(k, kNone);
      if (inserted) it->second = Add(Row{Value(std::string(k))});
      g = it->second;
    }
    return g;
  }
  /// Any other key, compared as Values.
  uint32_t Key(Row key) {
    auto [it, inserted] = row_index_.try_emplace(RowKey(key), kNone);
    if (inserted) it->second = Add(std::move(key));
    return it->second;
  }

 private:
  uint32_t Add(Row key) {
    keys_.push_back(std::move(key));
    states_.resize(states_.size() + naggs_);
    return static_cast<uint32_t>(keys_.size() - 1);
  }

  size_t naggs_;
  std::vector<Row> keys_;
  std::vector<AggState> states_;
  uint32_t null_group_ = kNone;
  Int64KeyIndex int_index_;  ///< group id by int64 key
  std::unordered_map<std::string_view, uint32_t> str_index_;
  std::vector<std::pair<const StringDict*, std::vector<uint32_t>>>
      dict_groups_;
  std::unordered_map<RowKey, uint32_t, RowKeyHash> row_index_;
};

/// The key of row `i` of `chunk` in the columns `slots`, as row-engine
/// Values; false when one of them is NULL (a NULL join key never matches).
bool KeyAt(const ColumnChunk& chunk, const std::vector<size_t>& slots,
           size_t i, Row* key) {
  key->clear();
  for (size_t s : slots) {
    if (chunk.IsNull(s, i)) return false;
    key->push_back(chunk.ValueAt(s, i));
  }
  return true;
}

/// Runs of at most this many build slots per matching probe row, on
/// average over a probe chunk, are short: the chunk's pairs are expanded
/// into flat arrays, this many at a time whatever a run's length, and
/// every kernel then walks the pairs with no branch per run. Longer runs
/// are walked run by run, which reads a probe-side cell once per run.
constexpr uint32_t kShortRun = 4;

/// \brief One probe chunk's matching rows in probe order, each with its
/// run of build slots [begin, end) in a JoinLayout.
struct ProbeMatches {
  std::vector<uint32_t> row;
  std::vector<uint32_t> begin;
  std::vector<uint32_t> end;
  size_t size = 0;   ///< matching probe rows
  size_t pairs = 0;  ///< their runs' slots, summed

  /// True when the runs average at most kShortRun slots.
  bool short_runs() const { return pairs <= kShortRun * size; }
};

/// \brief A hash join's build side laid out for probing: both hash-join
/// sinks probe it.
///
/// Every build row with a non-NULL key gets a key index, and a counting
/// sort over the indexes lays the rows out key by key, each key's rows
/// ascending; a position in that layout is a build slot. A probe row's
/// matches are then one run of slots in the emission order (probe order,
/// build matches ascending). One INT key on each side takes the dense
/// layout when its build keys span fewer than 4 × build rows + 64 values:
/// a key's index is its offset from the smallest build key, so no key is
/// numbered and a probe row finds its run by one subtraction and two
/// loads. The bound keeps the two passes over the span (clearing the
/// counts and summing them) within a small multiple of the passes over the
/// rows. A wider INT key is numbered in first-seen order through an
/// Int64KeyIndex (Value equality then is int64 equality, and no Row/Value
/// key is made), and any other key as a row-engine Row; both sort by that
/// number. NULL join keys never match.
class JoinLayout {
 public:
  static constexpr uint32_t kNone = Int64KeyIndex::kNone;

  JoinLayout(const PlanNode& join, const ColumnarTable& build,
             const ColumnarTable& probe)
      : join_(join),
        typed_(join.left_keys.size() == 1 && join.right_keys.size() == 1 &&
               build.schema().column(join.left_keys[0]).type ==
                   DataType::kInt64 &&
               probe.schema().column(join.right_keys[0]).type ==
                   DataType::kInt64),
        int_keys_(build.num_rows()) {
    // First each build row's key index (kNone for a NULL key), counted in
    // start_[k]; then, by the counting sort, each row's slot.
    row_slot_.assign(build.num_rows(), kNone);
    uint32_t* row_key = row_slot_.data();
    auto number = [&](uint32_t* k) {
      if (*k == kNone) {
        *k = static_cast<uint32_t>(start_.size());
        start_.push_back(0);
      }
      ++start_[*k];
      return *k;
    };
    size_t row = 0;
    if (typed_) {
      const size_t slot = join.left_keys[0];
      int64_t lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      for (const ColumnChunk& chunk : build.chunks()) {
        const Cells c = Cells::Of(chunk.columns[slot]);
        for (size_t i = 0; i < chunk.length; ++i) {
          const bool skip = c.IsNull(i);
          lo = skip ? lo : std::min(lo, c.ints[i]);
          hi = skip ? hi : std::max(hi, c.ints[i]);
        }
      }
      const bool any = lo <= hi;
      // Unsigned arithmetic is overflow-safe for any int64 pair.
      const uint64_t span =
          static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
      dense_ = any && span < 4 * static_cast<uint64_t>(build.num_rows()) + 64;
      if (dense_) {
        lo_ = lo;
        start_.assign(static_cast<size_t>(span) + 1, 0);
      } else if (any) {
        int_keys_.Reserve(lo, hi);
      }
      for (const ColumnChunk& chunk : build.chunks()) {
        const Cells c = Cells::Of(chunk.columns[slot]);
        for (size_t i = 0; i < chunk.length; ++i, ++row) {
          if (c.IsNull(i)) continue;
          if (dense_) {
            const auto k = static_cast<uint32_t>(
                static_cast<uint64_t>(c.ints[i]) - static_cast<uint64_t>(lo));
            row_key[row] = k;
            ++start_[k];
          } else {
            row_key[row] = number(&int_keys_.Slot(c.ints[i]));
          }
        }
      }
    } else {
      Row key;
      for (const ColumnChunk& chunk : build.chunks()) {
        for (size_t i = 0; i < chunk.length; ++i, ++row) {
          if (!KeyAt(chunk, join.left_keys, i, &key)) continue;
          row_key[row] = number(
              &row_keys_.try_emplace(RowKey(key), kNone).first->second);
        }
      }
    }
    // Summed, start_[k] is where key k's run ends; filling from the last
    // row down moves it to where the run begins. Index nkeys is an empty
    // run at the end, the run of a probe key without build rows.
    const size_t nkeys = start_.size();
    uint32_t total = 0;
    for (size_t k = 0; k < nkeys; ++k) {
      total += start_[k];
      start_[k] = total;
    }
    start_.resize(nkeys + 2, total);
    slots_ = total;
    for (size_t r = row_slot_.size(); r-- > 0;) {
      if (row_key[r] != kNone) row_slot_[r] = --start_[row_key[r]];
    }
  }

  /// Key indexes run over [0, num_keys()); key k's slots are
  /// [begin(k), end(k)), empty for a dense index no build row has.
  size_t num_keys() const { return start_.size() - 2; }
  uint32_t begin(size_t k) const { return start_[k]; }
  uint32_t end(size_t k) const { return start_[k + 1]; }
  size_t num_slots() const { return slots_; }
  /// The slot of each build row, the chunks' rows counted in order, and
  /// kNone for a row with a NULL key.
  const std::vector<uint32_t>& row_slot() const { return row_slot_; }

  /// The matches of every row of `chunk`, a chunk of the probe side.
  void Probe(const ColumnChunk& chunk, ProbeMatches* out) const {
    const uint32_t none = static_cast<uint32_t>(num_keys());
    if (!typed_) {
      Row key;
      Collect<false>(chunk.length, out, [&](size_t i) {
        if (!KeyAt(chunk, join_.right_keys, i, &key)) return none;
        auto it = row_keys_.find(RowKey(key));
        return it == row_keys_.end() ? none : it->second;
      });
      return;
    }
    const ColumnSlice& s = chunk.columns[join_.right_keys[0]];
    const int64_t* keys = s.col->ints() + s.offset;
    const uint8_t* nulls = s.col->has_nulls() ? s.col->nulls() + s.offset
                                              : nullptr;
    if (!dense_) {
      Collect<false>(chunk.length, out, [&](size_t i) {
        if (nulls != nullptr && nulls[i] != 0) return none;
        return std::min(int_keys_.Find(keys[i]), none);
      });
      return;
    }
    const auto lo = static_cast<uint64_t>(lo_);
    if (nulls == nullptr) {
      Collect(chunk.length, out, [&](size_t i) {
        const uint64_t off = static_cast<uint64_t>(keys[i]) - lo;
        return static_cast<uint32_t>(off < none ? off : none);
      });
      return;
    }
    Collect(chunk.length, out, [&](size_t i) {
      const uint64_t off = static_cast<uint64_t>(keys[i]) - lo;
      return static_cast<uint32_t>(off < none && nulls[i] == 0 ? off : none);
    });
  }

 private:
  /// Fills `out` from the key index of each of `n` probe rows, `key(i)`,
  /// num_keys() for a row without one. kBranchFree writes every row and
  /// moves the count past it when its run is not empty, so the loop
  /// carries no branch on whether a row matches: the dense layout's. A
  /// numbered layout's build keys are sparse in their span, or hashed, so
  /// most probe rows miss, and a branch on the match is predicted.
  template <bool kBranchFree = true, typename KeyOf>
  void Collect(size_t n, ProbeMatches* out, KeyOf&& key) const {
    if (out->row.size() < n) {
      out->row.resize(n);
      out->begin.resize(n);
      out->end.resize(n);
    }
    uint32_t* rows = out->row.data();
    uint32_t* begins = out->begin.data();
    uint32_t* ends = out->end.data();
    const uint32_t* start = start_.data();
    size_t m = 0;
    size_t pairs = 0;
    const auto none = static_cast<uint32_t>(num_keys());
    for (size_t i = 0; i < n; ++i) {
      const uint32_t k = key(i);
      if constexpr (!kBranchFree) {
        if (k == none) continue;  // a numbered key has build rows
      }
      const uint32_t b = start[k];
      const uint32_t e = start[k + 1];
      rows[m] = static_cast<uint32_t>(i);
      begins[m] = b;
      ends[m] = e;
      m += b != e ? 1 : 0;
      pairs += e - b;
    }
    out->size = m;
    out->pairs = pairs;
  }

  const PlanNode& join_;
  bool typed_;
  bool dense_ = false;
  int64_t lo_ = 0;              ///< the dense layout's smallest key
  Int64KeyIndex int_keys_;      ///< numbered INT keys
  std::unordered_map<RowKey, uint32_t, RowKeyHash> row_keys_;
  std::vector<uint32_t> start_;  ///< by key index, then two ends
  std::vector<uint32_t> row_slot_;
  size_t slots_ = 0;
};

/// Column `slot` of the build rows in slot order, with its null flags:
/// the join's kernels read build cells by slot, never by RowRef.
ColumnPtr FlattenBuildColumn(const ColumnarTable& build, size_t slot,
                             const JoinLayout& layout) {
  auto col = std::make_shared<ColumnData>(build.schema().column(slot).type);
  col->AppendScattered(build, slot, layout.row_slot().data(),
                       layout.num_slots());
  return col;
}

/// \brief Scratch for a piece of pairs: each pair's build slot, probe row
/// and group, with room for a short run's fixed-width writes past the
/// last pair.
struct PairPiece {
  PairPiece(size_t cap, bool groups)
      : slot(cap + kShortRun), row(cap + kShortRun),
        group(groups ? cap + kShortRun : 0) {}
  std::vector<uint32_t> slot;
  std::vector<uint32_t> row;
  std::vector<uint32_t> group;
};

/// \brief Walks one probe chunk's pairs in emission order, a piece at a
/// time.
///
/// When the chunk's runs are short, a run of at most kShortRun slots is
/// written as kShortRun pairs and the piece advances by the run's length,
/// so the loop takes no branch on a run's length; a longer run, or one
/// that would cross the piece's end, is written pair by pair. A run that
/// crosses the end resumes in the next piece.
class PairCursor {
 public:
  explicit PairCursor(const ProbeMatches& m)
      : m_(m), fixed_width_(m.short_runs()) {}

  bool done() const { return j_ == m_.size; }

  /// Writes the next at most `cap` pairs (no more than `piece` was made
  /// for) into `piece` and returns their count. kGroups also writes each
  /// pair's group, `match_group[j]` of its match j.
  template <bool kGroups>
  size_t Next(size_t cap, PairPiece* piece,
              const uint32_t* match_group = nullptr) {
    uint32_t* slot = piece->slot.data();
    uint32_t* row = piece->row.data();
    uint32_t* group = piece->group.data();
    size_t p = 0;
    while (j_ < m_.size && p < cap) {
      const uint32_t b = m_.begin[j_] + off_;
      const uint32_t len = m_.end[j_] - b;
      const uint32_t r = m_.row[j_];
      const uint32_t g = kGroups ? match_group[j_] : 0;
      if (fixed_width_ && len <= kShortRun && p + len <= cap) {
        for (uint32_t t = 0; t < kShortRun; ++t) {
          slot[p + t] = b + t;
          row[p + t] = r;
          if constexpr (kGroups) group[p + t] = g;
        }
        p += len;
        ++j_;
        off_ = 0;
        continue;
      }
      const auto take =
          static_cast<uint32_t>(std::min<size_t>(len, cap - p));
      for (uint32_t t = 0; t < take; ++t) {
        slot[p + t] = b + t;
        row[p + t] = r;
        if constexpr (kGroups) group[p + t] = g;
      }
      p += take;
      if (take < len) {
        off_ += take;
        break;
      }
      ++j_;
      off_ = 0;
    }
    return p;
  }

 private:
  const ProbeMatches& m_;
  bool fixed_width_;
  size_t j_ = 0;      ///< the next match
  uint32_t off_ = 0;  ///< slots of match j_ already written
};

/// \brief One aggregate's accumulators over a join, dense by group id:
/// non-NULL cells counted, and a sum, minimum or maximum of the
/// argument's type. They become AggStates only when the groups are
/// emitted.
struct DenseAcc {
  bool values = false;  ///< false for a COUNT, which keeps only counts
  DataType type = DataType::kInt64;
  std::vector<uint64_t> count;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string_view> strings;  ///< views into the join's inputs

  template <typename T>
  T* values_of() {
    if constexpr (std::is_same_v<T, int64_t>) return ints.data();
    if constexpr (std::is_same_v<T, double>) return doubles.data();
    if constexpr (std::is_same_v<T, std::string_view>) return strings.data();
  }
  void Resize(size_t groups) {
    count.resize(groups, 0);
    if (!values) return;
    switch (type) {
      case DataType::kInt64:
        ints.resize(groups, 0);
        break;
      case DataType::kDouble:
        doubles.resize(groups, 0.0);
        break;
      case DataType::kString:
        strings.resize(groups);
        break;
    }
  }
  /// Group g's state, as AggState's typed updates leave it after the
  /// same cells in the same order: SUM and AVG over INT keep int_mode and
  /// add into isum, over DOUBLE leave int_mode at their first cell and add
  /// into dsum from 0.0; MIN and MAX keep a typed Value.
  void Store(const AggItem& item, size_t g, AggState* state) const {
    state->count = count[g];
    if (count[g] == 0 || !values) return;
    if (item.func == AggFunc::kSum || item.func == AggFunc::kAvg) {
      if (type == DataType::kInt64) {
        state->isum = ints[g];
      } else {
        state->int_mode = false;
        state->dsum = doubles[g];
      }
      return;
    }
    Value v;
    switch (type) {
      case DataType::kInt64:
        v = Value(ints[g]);
        break;
      case DataType::kDouble:
        v = Value(doubles[g]);
        break;
      case DataType::kString:
        v = Value(std::string(strings[g]));
        break;
    }
    (item.func == AggFunc::kMin ? state->min_v : state->max_v) = std::move(v);
  }
};

// The typed updates of one dense accumulator by one non-null cell, each
// the transition AggState's Sum, Min or Max makes: a plain add, and a
// strict < that keeps the first of equal cells.
struct SumInto {
  template <typename T>
  void operator()(T& acc, uint64_t& count, T v) const {
    acc += v;
    ++count;
  }
};
struct MinInto {
  template <typename T>
  void operator()(T& acc, uint64_t& count, T v) const {
    if (count == 0 || v < acc) acc = v;
    ++count;
  }
};
struct MaxInto {
  template <typename T>
  void operator()(T& acc, uint64_t& count, T v) const {
    if (count == 0 || acc < v) acc = v;
    ++count;
  }
};

/// Folds `n` expanded pairs into one aggregate: pair t's cell is
/// `arg`'s cell idx[t] (its build slot or probe row), its group group[t].
template <typename Cell, typename Op>
void FoldPairs(const Cells& arg, const uint32_t* idx, const uint32_t* group,
               size_t n, DenseAcc* acc) {
  using T = decltype(Cell{}(arg, 0));
  T* vals = acc->values_of<T>();
  uint64_t* count = acc->count.data();
  if (arg.nulls == nullptr) {
    for (size_t t = 0; t < n; ++t) {
      Op{}(vals[group[t]], count[group[t]], Cell{}(arg, idx[t]));
    }
    return;
  }
  for (size_t t = 0; t < n; ++t) {
    if (arg.nulls[idx[t]] != 0) continue;
    Op{}(vals[group[t]], count[group[t]], Cell{}(arg, idx[t]));
  }
}

/// Folds a chunk's pairs into one aggregate run by run, in emission
/// order. The groups are `groups[s]` by build slot (kSlotGroups) or
/// `groups[j]` by match; a probe-side cell is read once per run.
template <typename Cell, typename Op, bool kBuildArg, bool kSlotGroups>
void FoldRuns(const Cells& arg, const ProbeMatches& m, const uint32_t* groups,
              DenseAcc* acc) {
  using T = decltype(Cell{}(arg, 0));
  T* vals = acc->values_of<T>();
  uint64_t* count = acc->count.data();
  for (size_t j = 0; j < m.size; ++j) {
    const uint32_t b = m.begin[j];
    const uint32_t e = m.end[j];
    const auto group = [&](uint32_t s) {
      if constexpr (kSlotGroups) return groups[s];
      return groups[j];
    };
    if constexpr (kBuildArg) {
      for (uint32_t s = b; s < e; ++s) {
        if (arg.IsNull(s)) continue;
        const uint32_t g = group(s);
        Op{}(vals[g], count[g], Cell{}(arg, s));
      }
    } else {
      const uint32_t r = m.row[j];
      if (arg.IsNull(r)) continue;
      const T v = Cell{}(arg, r);
      for (uint32_t s = b; s < e; ++s) {
        const uint32_t g = group(s);
        Op{}(vals[g], count[g], v);
      }
    }
  }
}

using FoldPairsFn = void (*)(const Cells&, const uint32_t*, const uint32_t*,
                             size_t, DenseAcc*);
using FoldRunsFn = void (*)(const Cells&, const ProbeMatches&,
                            const uint32_t*, DenseAcc*);

/// The two loops of one aggregate, picked once per query so that the
/// loops over pairs carry no switch on the function, the type, the
/// argument's side or the group source.
struct FoldLoops {
  FoldPairsFn pairs = nullptr;
  FoldRunsFn runs = nullptr;
};

template <typename Cell, typename Op>
FoldLoops PickLoops(bool build_arg, bool slot_groups) {
  FoldLoops f;
  f.pairs = &FoldPairs<Cell, Op>;
  if (build_arg) {
    f.runs = slot_groups ? &FoldRuns<Cell, Op, true, true>
                         : &FoldRuns<Cell, Op, true, false>;
  } else {
    f.runs = slot_groups ? &FoldRuns<Cell, Op, false, true>
                         : &FoldRuns<Cell, Op, false, false>;
  }
  return f;
}

template <typename Op>
FoldLoops PickLoops(DataType type, bool build_arg, bool slot_groups) {
  switch (type) {
    case DataType::kInt64:
      return PickLoops<IntCell, Op>(build_arg, slot_groups);
    case DataType::kDouble:
      return PickLoops<DoubleCell, Op>(build_arg, slot_groups);
    case DataType::kString:
      if constexpr (std::is_same_v<Op, SumInto>) {
        return FoldLoops{};  // the binder rejects SUM and AVG of strings
      } else {
        return PickLoops<StringCell, Op>(build_arg, slot_groups);
      }
  }
  return FoldLoops{};
}

/// SUM, AVG, MIN or MAX of a column of `type`.
FoldLoops PickLoops(const AggItem& item, DataType type, bool build_arg,
                    bool slot_groups) {
  switch (item.func) {
    case AggFunc::kSum:
    case AggFunc::kAvg:
      return PickLoops<SumInto>(type, build_arg, slot_groups);
    case AggFunc::kMin:
      return PickLoops<MinInto>(type, build_arg, slot_groups);
    case AggFunc::kMax:
      return PickLoops<MaxInto>(type, build_arg, slot_groups);
    case AggFunc::kCount:
      break;
  }
  return FoldLoops{};
}

/// \brief The accumulate sink: folds each matched pair of a hash join
/// straight into the groups of the Aggregate above it, a probe chunk at a
/// time, in the emission order.
///
/// A pair's group id is read in place. When every group key is a probe
/// column (or there is none), it is resolved once per matching probe row;
/// when every key is a build column, once per build slot, the first time
/// the slot's key matches, and kept by slot; with keys on both sides, once
/// per pair. Ids are therefore handed out in first-seen order. A COUNT
/// adds a whole run per probe row, or, when the group comes from the build
/// side, counts matching probe rows per run and the last step spreads
/// them over the run's slots: counts are integers, so their order does
/// not matter. Every other aggregate folds its pairs one by one into its
/// dense accumulators, through the expanded pairs of a chunk whose runs
/// are short and run by run otherwise, so each accumulator sees its pairs
/// in emission order (a double sum of m equal cells is not m times the
/// cell). Build cells are read from columns flattened into slot order.
class GroupJoin {
 public:
  static constexpr uint32_t kNone = Groups::kNone;
  /// Pairs per expanded piece.
  static constexpr size_t kPiece = 1024;

  GroupJoin(const PlanNode& node, const ColumnarTable& build,
            const ColumnarTable& probe, const JoinLayout& layout)
      : layout_(layout),
        build_width_(node.left->left->output_schema.num_columns()),
        from_(GroupsFrom(node, build_width_)),
        naggs_(node.aggs.size()),
        groups_(naggs_, from_ == From::kBuild ? build.num_rows()
                                              : probe.num_rows()),
        items_(node.aggs),
        acc_(naggs_),
        piece_(kPiece, /*groups=*/true) {
    std::vector<ColumnPtr> flat(build_width_);
    auto column = [&](const BoundExprPtr& e) {
      Column c;
      c.on_build = OnBuild(e);
      c.slot = e->column_index() - (c.on_build ? 0 : build_width_);
      c.type = c.on_build ? build.schema().column(c.slot).type
                          : probe.schema().column(c.slot).type;
      if (c.on_build) {
        if (flat[c.slot] == nullptr) {
          flat[c.slot] = FlattenBuildColumn(build, c.slot, layout);
        }
        c.flat = flat[c.slot];
        c.build = Cells::Of(*c.flat, 0);
      }
      return c;
    };
    for (const BoundExprPtr& g : node.group_by) keys_.push_back(column(g));
    typed_key_ = keys_.size() == 1 && keys_[0].type != DataType::kDouble;
    if (from_ == From::kNone) groups_.Global();
    const bool slot_groups = from_ == From::kBuild;
    if (from_ == From::kBuild) {
      slot_groups_.assign(layout.num_slots(), kNone);
    }
    for (size_t a = 0; a < naggs_; ++a) {
      const AggItem& item = node.aggs[a];
      if (item.func != AggFunc::kCount) {
        Column arg = column(item.arg);
        acc_[a].values = true;
        acc_[a].type = arg.type;
        const FoldLoops loops =
            PickLoops(item, arg.type, arg.on_build, slot_groups);
        folds_.push_back(Fold{a, loops, std::move(arg)});
        continue;
      }
      Count c{a, std::nullopt, {}, {}};
      if (!item.count_star) c.arg = column(item.arg);
      if (c.arg && c.arg->on_build && c.arg->build.nulls != nullptr) {
        // The non-NULL cells before each slot.
        c.nonnull_before.assign(layout.num_slots() + 1, 0);
        for (size_t s = 0; s < layout.num_slots(); ++s) {
          c.nonnull_before[s + 1] =
              c.nonnull_before[s] + (c.arg->build.IsNull(s) ? 0 : 1);
        }
      }
      if (from_ == From::kBuild) c.per_run.assign(layout.num_slots(), 0);
      counts_.push_back(std::move(c));
    }
  }

  /// Folds the pairs of `m`, the matches of the probe side's `chunk`.
  void Add(const ColumnChunk& chunk, const ProbeMatches& m) {
    if (m.size == 0) return;
    if (match_groups_.size() < m.size) match_groups_.resize(m.size);
    switch (from_) {
      case From::kNone:
        std::fill(match_groups_.begin(), match_groups_.begin() + m.size, 0);
        break;
      case From::kProbe:
        ResolveProbeGroups(chunk, m);
        break;
      case From::kBuild:
        // A build key's slots are resolved together, at its first match.
        for (size_t j = 0; j < m.size; ++j) {
          if (slot_groups_[m.begin[j]] != kNone) continue;
          for (uint32_t s = m.begin[j]; s < m.end[j]; ++s) {
            slot_groups_[s] = ResolveBuild(s);
          }
        }
        break;
      case From::kPair:
        AddPairsOneByOne(chunk, m);
        return;
    }
    Grow();
    AddCounts(chunk, m);
    if (folds_.empty()) return;
    if (!m.short_runs()) {
      const uint32_t* groups =
          from_ == From::kBuild ? slot_groups_.data() : match_groups_.data();
      for (const Fold& f : folds_) {
        f.loops.runs(f.arg.At(chunk), m, groups, &acc_[f.agg]);
      }
      return;
    }
    PairCursor cursor(m);
    while (!cursor.done()) {
      size_t n = 0;
      if (from_ == From::kBuild) {
        n = cursor.Next<false>(kPiece, &piece_);
        for (size_t t = 0; t < n; ++t) {
          piece_.group[t] = slot_groups_[piece_.slot[t]];
        }
      } else {
        n = cursor.Next<true>(kPiece, &piece_, match_groups_.data());
      }
      FoldPiece(chunk, n);
    }
  }

  /// The groups, their states set from the dense accumulators once the
  /// counts kept per run are spread; call after the last Add.
  Groups* Finish() {
    Grow();
    if (from_ == From::kBuild) {
      for (const Count& c : counts_) {
        uint64_t* count = acc_[c.agg].count.data();
        for (size_t k = 0; k < layout_.num_keys(); ++k) {
          const uint32_t b = layout_.begin(k);
          const uint32_t e = layout_.end(k);
          if (b == e || c.per_run[b] == 0) continue;
          for (uint32_t s = b; s < e; ++s) {
            if (c.arg && c.arg->on_build && c.arg->build.IsNull(s)) continue;
            count[slot_groups_[s]] += c.per_run[b];
          }
        }
      }
    }
    AggState* states = groups_.states();
    for (size_t a = 0; a < naggs_; ++a) {
      for (size_t g = 0; g < groups_.size(); ++g) {
        acc_[a].Store(items_[a], g, &states[g * naggs_ + a]);
      }
    }
    return &groups_;
  }

 private:
  /// Where a pair's group comes from.
  enum class From { kNone, kProbe, kBuild, kPair };

  /// A group key or aggregate argument: a build column flattened into
  /// slot order, or a probe column read chunk by chunk.
  struct Column {
    bool on_build = false;
    size_t slot = 0;  ///< in its side's schema
    DataType type = DataType::kInt64;
    ColumnPtr flat;   ///< build side only
    Cells build;      ///< `flat`'s cells

    Cells At(const ColumnChunk& probe_chunk) const {
      return on_build ? build : Cells::Of(probe_chunk.columns[slot]);
    }
    Value ValueAt(const ColumnChunk& probe_chunk, uint32_t s,
                  uint32_t r) const {
      return on_build ? flat->GetValue(s) : probe_chunk.ValueAt(slot, r);
    }
  };
  /// A COUNT(*) (no `arg`) or COUNT(col), counting the pairs whose cell
  /// is not NULL.
  struct Count {
    size_t agg;
    std::optional<Column> arg;
    /// A build argument with NULLs: its non-NULL cells before each slot.
    std::vector<uint32_t> nonnull_before;
    /// With groups from the build side: the probe rows counted so far,
    /// by the first slot of their run.
    std::vector<uint64_t> per_run;
  };
  /// A SUM, AVG, MIN or MAX.
  struct Fold {
    size_t agg;
    FoldLoops loops;
    Column arg;
  };

  static From GroupsFrom(const PlanNode& node, size_t build_width) {
    size_t on_build = 0;
    for (const BoundExprPtr& g : node.group_by) {
      if (g->column_index() < build_width) ++on_build;
    }
    if (node.group_by.empty()) return From::kNone;
    if (on_build == 0) return From::kProbe;
    return on_build == node.group_by.size() ? From::kBuild : From::kPair;
  }
  bool OnBuild(const BoundExprPtr& e) const {
    return e->column_index() < build_width_;
  }

  /// Sizes every accumulator to the groups made so far.
  void Grow() {
    for (DenseAcc& a : acc_) a.Resize(groups_.size());
  }

  /// The group of each matching probe row, typed for one INT or STRING
  /// key, as Values otherwise.
  void ResolveProbeGroups(const ColumnChunk& chunk, const ProbeMatches& m) {
    uint32_t* out = match_groups_.data();
    if (!typed_key_) {
      for (size_t j = 0; j < m.size; ++j) {
        Row key;
        key.reserve(keys_.size());
        for (const Column& k : keys_) {
          key.push_back(chunk.ValueAt(k.slot, m.row[j]));
        }
        out[j] = groups_.Key(std::move(key));
      }
      return;
    }
    const Cells c = keys_[0].At(chunk);
    if (keys_[0].type == DataType::kInt64) {
      for (size_t j = 0; j < m.size; ++j) {
        const uint32_t r = m.row[j];
        out[j] = c.IsNull(r) ? groups_.Null() : groups_.Int64(c.ints[r]);
      }
      return;
    }
    uint32_t* lut = groups_.DictGroups(c.dict);
    for (size_t j = 0; j < m.size; ++j) {
      const uint32_t r = m.row[j];
      out[j] = c.IsNull(r) ? groups_.Null()
                           : groups_.Code(*c.dict, lut, c.codes[r]);
    }
  }

  /// The group of build slot `s`, every group key a build column.
  uint32_t ResolveBuild(uint32_t s) {
    if (typed_key_) {
      const Cells& c = keys_[0].build;
      if (c.IsNull(s)) return groups_.Null();
      if (keys_[0].type == DataType::kInt64) return groups_.Int64(c.ints[s]);
      return groups_.Code(*c.dict, groups_.DictGroups(c.dict), c.codes[s]);
    }
    Row key;
    key.reserve(keys_.size());
    for (const Column& k : keys_) key.push_back(k.flat->GetValue(s));
    return groups_.Key(std::move(key));
  }

  /// COUNTs of a chunk whose groups come from the probe side or the build
  /// side: a run at a time.
  void AddCounts(const ColumnChunk& chunk, const ProbeMatches& m) {
    for (Count& c : counts_) {
      const bool probe_arg = c.arg && !c.arg->on_build;
      const Cells pa = probe_arg ? c.arg->At(chunk) : Cells{};
      uint64_t* count = acc_[c.agg].count.data();
      const uint32_t* nn = c.nonnull_before.data();
      for (size_t j = 0; j < m.size; ++j) {
        if (probe_arg && pa.IsNull(m.row[j])) continue;
        if (from_ == From::kBuild) {
          ++c.per_run[m.begin[j]];  // spread over the run's slots by Finish
          continue;
        }
        count[match_groups_[j]] += c.nonnull_before.empty()
                                       ? m.end[j] - m.begin[j]
                                       : nn[m.end[j]] - nn[m.begin[j]];
      }
    }
  }

  /// Folds the `n` pairs of the current piece into every SUM, AVG, MIN
  /// and MAX.
  void FoldPiece(const ColumnChunk& chunk, size_t n) {
    for (const Fold& f : folds_) {
      f.loops.pairs(f.arg.At(chunk),
                    f.arg.on_build ? piece_.slot.data() : piece_.row.data(),
                    piece_.group.data(), n, &acc_[f.agg]);
    }
  }

  /// Group keys on both sides: each pair's group is resolved as Values,
  /// pair by pair in emission order, and every aggregate, COUNTs too, is
  /// folded pair by pair.
  void AddPairsOneByOne(const ColumnChunk& chunk, const ProbeMatches& m) {
    PairCursor cursor(m);
    while (!cursor.done()) {
      const size_t n = cursor.Next<false>(kPiece, &piece_);
      for (size_t t = 0; t < n; ++t) {
        Row key;
        key.reserve(keys_.size());
        for (const Column& k : keys_) {
          key.push_back(k.ValueAt(chunk, piece_.slot[t], piece_.row[t]));
        }
        piece_.group[t] = groups_.Key(std::move(key));
      }
      Grow();
      for (const Count& c : counts_) {
        const Cells arg = c.arg ? c.arg->At(chunk) : Cells{};
        const uint32_t* idx =
            c.arg && c.arg->on_build ? piece_.slot.data() : piece_.row.data();
        uint64_t* count = acc_[c.agg].count.data();
        for (size_t t = 0; t < n; ++t) {
          if (!arg.IsNull(idx[t])) ++count[piece_.group[t]];
        }
      }
      FoldPiece(chunk, n);
    }
  }

  const JoinLayout& layout_;
  size_t build_width_;
  From from_;
  size_t naggs_;
  Groups groups_;
  const std::vector<AggItem>& items_;
  std::vector<Column> keys_;
  bool typed_key_ = false;  ///< one INT or STRING key
  std::vector<uint32_t> slot_groups_;   ///< by build slot, kNone until seen
  std::vector<uint32_t> match_groups_;  ///< by match of the current chunk
  std::vector<DenseAcc> acc_;           ///< by aggregate
  std::vector<Count> counts_;
  std::vector<Fold> folds_;
  PairPiece piece_;
};

/// True when an Aggregate runs its hash-join child itself and feeds each
/// matched pair straight into its accumulators: the join has no residual,
/// and every group key and argument is a bare column (or COUNT(*)).
bool AccumulatesJoinPairs(const PlanNode& node) {
  const PlanNode& join = *node.left;
  if (join.kind != PlanKind::kHashJoin || join.residual != nullptr) {
    return false;
  }
  const size_t width = join.output_schema.num_columns();
  auto bare = [width](const BoundExprPtr& e) {
    return e != nullptr && e->kind() == BoundExpr::Kind::kColumn &&
           e->column_index() < width;
  };
  for (const BoundExprPtr& g : node.group_by) {
    if (!bare(g)) return false;
  }
  for (const AggItem& a : node.aggs) {
    if (!a.count_star && !bare(a.arg)) return false;
  }
  return true;
}

/// An Aggregate's output: per group in id order, its key columns then its
/// finalized aggregates, in chunks of `batch_rows`, charged agg_group per
/// group. A global aggregate over no input still yields one row.
ColumnarTablePtr EmitGroups(const PlanNode& node, const ExecConfig& config,
                            Groups* groups, ExecStats* stats) {
  if (groups->size() == 0 && node.group_by.empty()) {
    groups->Global();
    stats->work_units += config.costs.agg_group;
  } else {
    stats->work_units +=
        config.costs.agg_group * static_cast<double>(groups->size());
  }
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  const size_t ncols = node.output_schema.num_columns();
  const size_t nkeys = node.group_by.size();
  const size_t batch = config.batch_rows == 0 ? 1 : config.batch_rows;
  for (size_t start = 0; start < groups->size(); start += batch) {
    const size_t len = std::min(batch, groups->size() - start);
    ColumnChunk chunk;
    chunk.length = len;
    chunk.columns.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      auto col =
          std::make_shared<ColumnData>(node.output_schema.column(c).type);
      col->Reserve(len);
      for (size_t g = start; g < start + len; ++g) {
        if (c < nkeys) {
          col->AppendValue(groups->key(g)[c]);
        } else {
          col->AppendValue(
              groups->state(g, c - nkeys).Finalize(node.aggs[c - nkeys]));
        }
      }
      chunk.columns.push_back(ColumnSlice{std::move(col), 0});
    }
    out->AppendChunk(std::move(chunk));
  }
  return out;
}

/// Materializes a broadcast constant as a column of `n` cells of the
/// constant expression's bound type.
ColumnPtr ConstantColumn(DataType type, const Value& v, size_t n) {
  auto col = std::make_shared<ColumnData>(type);
  col->Reserve(n);
  for (size_t i = 0; i < n; ++i) col->AppendValue(v);
  return col;
}

}  // namespace

void ColumnarExecutor::ChargeScan(const Table& table,
                                  ExecStats* stats) const {
  stats->rows_scanned += table.num_rows();
  // The whole scan charge (row touch + bytes read) is I/O work.
  const double io = config_.costs.scan_row * table.num_rows() +
                    config_.costs.scan_byte * table.byte_size();
  stats->work_units += io;
  stats->io_units += io;
}

Status ColumnarExecutor::CheckSize(size_t rows) const {
  if (config_.max_intermediate_rows > 0 &&
      rows > config_.max_intermediate_rows) {
    return Status::ExecutionError(StringFormat(
        "intermediate result exceeds limit (%zu > %zu rows)", rows,
        config_.max_intermediate_rows));
  }
  return Status::OK();
}

Result<TablePtr> ColumnarExecutor::Execute(const PlanNodePtr& plan,
                                           ExecStats* stats) {
  return Execute(plan, stats, nullptr);
}

Result<TablePtr> ColumnarExecutor::Execute(
    const PlanNodePtr& plan, ExecStats* stats,
    std::shared_ptr<obs::OperatorProfile>* profile_out) {
  if (profile_out != nullptr) profile_out->reset();
  if (!plan) return Status::InvalidArgument("null plan");
  const bool profiling = config_.profile && profile_out != nullptr;
  ExecStats local;
  if (plan->kind == PlanKind::kScan) {
    // A bare scan returns the resolved table itself (same object, name,
    // and byte accounting), so its profile records one batch.
    ++local.operators_executed;
    if (profiling) {
      OperatorProfileScope scope(*plan, local);
      FEDCAL_ASSIGN_OR_RETURN(TablePtr table, resolver_(plan->table_name));
      ChargeScan(*table, &local);
      obs::OperatorProfile root;
      scope.Finish(local, table->num_rows(), /*batches=*/1,
                   /*arena_bytes=*/0, &root);
      *profile_out = root.children.front();
      local.rows_output = table->num_rows();
      local.bytes_output = table->byte_size();
      if (stats) stats->Merge(local);
      return table;
    }
    FEDCAL_ASSIGN_OR_RETURN(TablePtr table, resolver_(plan->table_name));
    ChargeScan(*table, &local);
    local.rows_output = table->num_rows();
    local.bytes_output = table->byte_size();
    if (stats) stats->Merge(local);
    return table;
  }
  obs::OperatorProfile root;
  FEDCAL_ASSIGN_OR_RETURN(
      ColumnarTablePtr result,
      ExecNode(*plan, AllSlots(*plan), &local, profiling ? &root : nullptr));
  FEDCAL_RETURN_NOT_OK(CheckAllPresent(*result, "the result"));
  local.rows_output = result->num_rows();
  local.bytes_output = result->byte_size();
  if (stats) stats->Merge(local);
  if (profiling && !root.children.empty()) {
    *profile_out = root.children.front();
  }
  return Table::FromColumnar("", std::move(result));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecNode(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* parent) {
  ++stats->operators_executed;
  if (parent == nullptr) return DispatchNode(node, needed, stats, nullptr);
  OperatorProfileScope scope(node, *stats);
  const size_t arena0 = arena_.bytes_allocated();
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr result,
                          DispatchNode(node, needed, stats, scope.prof()));
  scope.Finish(*stats, result->num_rows(), result->chunks().size(),
               arena_.bytes_allocated() - arena0, parent);
  return result;
}

Result<ColumnarTablePtr> ColumnarExecutor::DispatchNode(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  switch (node.kind) {
    case PlanKind::kScan:
      return ExecScan(node, stats);
    case PlanKind::kIndexScan:
      return ExecIndexScan(node, stats);
    case PlanKind::kFilter:
      return ExecFilter(node, needed, stats, prof);
    case PlanKind::kProject:
      return ExecProject(node, stats, prof);
    case PlanKind::kHashJoin:
      return ExecHashJoin(node, needed, stats, prof);
    case PlanKind::kNestedLoopJoin:
      return ExecNestedLoopJoin(node, stats, prof);
    case PlanKind::kAggregate:
      return ExecAggregate(node, stats, prof);
    case PlanKind::kSort:
      return ExecSort(node, needed, stats, prof);
    case PlanKind::kDistinct:
      return ExecDistinct(node, needed, stats, prof);
    case PlanKind::kLimit:
      return ExecLimit(node, needed, stats, prof);
  }
  return Status::Internal("unhandled plan kind");
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecScan(const PlanNode& node,
                                                    ExecStats* stats) {
  FEDCAL_ASSIGN_OR_RETURN(TablePtr table, resolver_(node.table_name));
  ChargeScan(*table, stats);
  return table->columnar();
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecIndexScan(const PlanNode& node,
                                                         ExecStats* stats) {
  FEDCAL_ASSIGN_OR_RETURN(TablePtr table, resolver_(node.table_name));
  const HashIndex* index = table->GetIndex(node.index_column);
  if (index == nullptr) {
    return Status::ExecutionError("table " + node.table_name +
                                  " has no index on " + node.index_column);
  }
  Row empty;
  FEDCAL_ASSIGN_OR_RETURN(Value key, node.index_value->Eval(empty));
  const ColumnarTablePtr data = table->columnar();
  double io = config_.costs.index_probe;
  std::vector<RowRef> matches;
  for (size_t row_id : index->Probe(key)) {
    if (row_id >= data->num_rows()) continue;
    const RowRef ref = data->Locate(row_id);
    const ColumnSlice& cell =
        data->chunks()[ref.chunk].columns[index->column_index()];
    // Verify exact equality (the index probe is hash-based).
    if (cell.IsNull(ref.row) || cell.ValueAt(ref.row).Compare(key) != 0) {
      continue;
    }
    io += config_.costs.index_match_row;
    matches.push_back(ref);
  }
  stats->rows_scanned += matches.size();
  stats->work_units += io;
  stats->io_units += io;

  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  AppendGatheredRows(*data, matches.data(), matches.size(),
                     config_.batch_rows, AllSlots(node), out.get());
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecFilter(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  SlotMask child = needed;
  AddSlots(node.predicate, &child);
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr in,
                          ExecNode(*node.left, child, stats, prof));
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  stats->work_units +=
      config_.costs.filter_row * static_cast<double>(in->num_rows());
  for (const ColumnChunk& chunk : in->chunks()) {
    if (chunk.length == 0) continue;
    size_t k = 0;
    FEDCAL_ASSIGN_OR_RETURN(
        const uint32_t* sel,
        eval_.EvalSelection(*node.predicate, chunk, &k));
    if (k == 0) continue;
    if (k == chunk.length) {
      // Every row passed: share the chunk instead of copying it.
      out->AppendChunk(chunk);
    } else {
      out->AppendChunk(GatherChunk(chunk, sel, k, needed));
    }
  }
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecProject(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) {
  SlotMask child(node.left->output_schema.num_columns(), false);
  for (const BoundExprPtr& e : node.projections) AddSlots(e, &child);
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr in,
                          ExecNode(*node.left, child, stats, prof));
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  stats->work_units += config_.costs.project_expr *
                       static_cast<double>(in->num_rows()) *
                       static_cast<double>(node.projections.size());
  for (const ColumnChunk& chunk : in->chunks()) {
    if (chunk.length == 0) continue;
    ColumnChunk oc;
    oc.length = chunk.length;
    oc.columns.reserve(node.projections.size());
    for (const BoundExprPtr& e : node.projections) {
      FEDCAL_ASSIGN_OR_RETURN(VectorResult v, eval_.Eval(*e, chunk));
      if (v.constant) {
        oc.columns.push_back(ColumnSlice{
            ConstantColumn(e->type(), v.const_value, chunk.length), 0});
      } else {
        // Pass-through and computed columns alike are shared, not copied.
        oc.columns.push_back(ColumnSlice{std::move(v.col), v.offset});
      }
    }
    out->AppendChunk(std::move(oc));
  }
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarExecutor::JoinInputs> ColumnarExecutor::RunJoinInputs(
    const PlanNode& node, const SlotMask& keep, ExecStats* stats,
    obs::OperatorProfile* prof) {
  // Each side produces its own slots of the [build, probe] row in `keep`,
  // and its join keys.
  const auto split = keep.begin() + node.left->output_schema.num_columns();
  SlotMask lmask(keep.begin(), split);
  SlotMask rmask(split, keep.end());
  for (size_t s : node.left_keys) lmask[s] = true;
  for (size_t s : node.right_keys) rmask[s] = true;
  JoinInputs in;
  FEDCAL_ASSIGN_OR_RETURN(in.build, ExecNode(*node.left, lmask, stats, prof));
  FEDCAL_ASSIGN_OR_RETURN(in.probe, ExecNode(*node.right, rmask, stats, prof));
  stats->work_units +=
      config_.costs.hash_build_row * static_cast<double>(in.build->num_rows());
  stats->work_units +=
      config_.costs.hash_probe_row * static_cast<double>(in.probe->num_rows());
  return in;
}

Status ColumnarExecutor::ChargeJoinOutput(size_t k, size_t* emitted,
                                          ExecStats* stats) const {
  // One add per row, as the row engine charges (k adds of a price that a
  // double cannot hold exactly do not sum to k times the price). Past the
  // cap, the row engine stops at the first row over it, once charged.
  const size_t cap = config_.max_intermediate_rows;
  const bool over = cap > 0 && *emitted + k > cap;
  const size_t rows = over ? cap + 1 - *emitted : k;
  stats->work_units =
      AddRepeated(stats->work_units, config_.costs.join_output_row, rows);
  *emitted += rows;
  return over ? CheckSize(*emitted) : Status::OK();
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecHashJoin(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  // Matched pairs gather what the parent reads plus the residual's
  // inputs (slots of the [build, probe] row).
  SlotMask keep = needed;
  AddSlots(node.residual, &keep);
  FEDCAL_ASSIGN_OR_RETURN(JoinInputs in,
                          RunJoinInputs(node, keep, stats, prof));

  // The materialize sink: each probe chunk's pairs are expanded in
  // emission order into batches of exactly batch_rows pairs, gathered
  // from the build columns flattened into slot order and from the probe
  // chunk into a concatenated [build, probe] chunk, which the residual
  // predicate filters before it is charged and appended.
  const JoinLayout layout(node, *in.build, *in.probe);
  const size_t nbuild = in.build->schema().num_columns();
  std::vector<ColumnPtr> flat(nbuild);
  for (size_t c = 0; c < nbuild; ++c) {
    if (keep[c]) flat[c] = FlattenBuildColumn(*in.build, c, layout);
  }
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
  ColumnChunk cand;
  size_t emitted = 0;
  auto flush = [&]() -> Status {
    const size_t len = cand.length;
    if (len == 0) return Status::OK();
    ColumnChunk full = std::move(cand);
    cand = ColumnChunk{};
    const uint32_t* sel = nullptr;
    size_t k = len;
    if (node.residual) {
      FEDCAL_ASSIGN_OR_RETURN(sel,
                              eval_.EvalSelection(*node.residual, full, &k));
    }
    FEDCAL_RETURN_NOT_OK(ChargeJoinOutput(k, &emitted, stats));
    if (k == len) {
      out->AppendChunk(std::move(full));
    } else if (k > 0) {
      out->AppendChunk(GatherChunk(full, sel, k, needed));
    }
    return Status::OK();
  };
  ProbeMatches matches;
  PairPiece piece(batch, /*groups=*/false);
  for (const ColumnChunk& chunk : in.probe->chunks()) {
    layout.Probe(chunk, &matches);
    PairCursor pairs(matches);
    while (!pairs.done()) {
      if (cand.length == 0) {
        cand.columns.resize(keep.size());
        for (size_t c = 0; c < keep.size(); ++c) {
          if (!keep[c]) continue;
          const DataType type =
              c < nbuild ? in.build->schema().column(c).type
                         : in.probe->schema().column(c - nbuild).type;
          cand.columns[c] = ColumnSlice{std::make_shared<ColumnData>(type), 0};
        }
      }
      const size_t n = pairs.Next<false>(batch - cand.length, &piece);
      for (size_t c = 0; c < keep.size(); ++c) {
        if (!keep[c]) continue;
        ColumnData& col = *cand.columns[c].col;
        if (c < nbuild) {
          col.AppendGather(ColumnSlice{flat[c], 0}, piece.slot.data(), n);
        } else {
          col.AppendGather(chunk.columns[c - nbuild], piece.row.data(), n);
        }
      }
      cand.length += n;
      if (cand.length == batch) FEDCAL_RETURN_NOT_OK(flush());
    }
  }
  FEDCAL_RETURN_NOT_OK(flush());
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecNestedLoopJoin(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) {
  FEDCAL_ASSIGN_OR_RETURN(
      ColumnarTablePtr left,
      ExecNode(*node.left, AllSlots(*node.left), stats, prof));
  FEDCAL_ASSIGN_OR_RETURN(
      ColumnarTablePtr right,
      ExecNode(*node.right, AllSlots(*node.right), stats, prof));
  FEDCAL_RETURN_NOT_OK(CheckAllPresent(*left, "a nested-loop join input"));
  FEDCAL_RETURN_NOT_OK(CheckAllPresent(*right, "a nested-loop join input"));
  // Nested-loop joins are rare and small; run the row engine's loop over
  // materialized rows (charges and emission order are identical).
  const std::vector<Row> lrows = left->MaterializeRows();
  const std::vector<Row> rrows = right->MaterializeRows();
  stats->work_units += config_.costs.nlj_pair *
                       static_cast<double>(left->num_rows()) *
                       static_cast<double>(right->num_rows());
  std::vector<Row> out_rows;
  for (const Row& l : lrows) {
    for (const Row& r : rrows) {
      Row joined = l;
      joined.insert(joined.end(), r.begin(), r.end());
      if (node.predicate) {
        FEDCAL_ASSIGN_OR_RETURN(Value v, node.predicate->Eval(joined));
        if (!IsTruthy(v)) continue;
      }
      stats->work_units += config_.costs.join_output_row;
      out_rows.push_back(std::move(joined));
      FEDCAL_RETURN_NOT_OK(CheckSize(out_rows.size()));
    }
  }
  return ColumnarFromRows(node.output_schema, out_rows, config_.batch_rows);
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecAggregate(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) {
  if (AccumulatesJoinPairs(node)) {
    return ExecAggregateOverJoin(node, stats, prof);
  }
  SlotMask child(node.left->output_schema.num_columns(), false);
  for (const BoundExprPtr& g : node.group_by) AddSlots(g, &child);
  for (const AggItem& a : node.aggs) AddSlots(a.arg, &child);
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr in,
                          ExecNode(*node.left, child, stats, prof));

  stats->work_units +=
      config_.costs.agg_update_row * static_cast<double>(in->num_rows());

  // Evaluate group keys and aggregate arguments for every chunk up front
  // (same expression order as the per-chunk loop, so the first evaluation
  // error is unchanged). One INT or STRING key that is not a constant
  // takes a typed path: Value identity then is int64 (string) identity,
  // and no Row/RowKey is made per row.
  struct ChunkVals {
    size_t length = 0;
    std::vector<VectorResult> group_vals;
    std::vector<VectorResult> agg_vals;
  };
  std::vector<ChunkVals> evaluated;
  evaluated.reserve(in->chunks().size());
  const bool one_key =
      node.group_by.size() == 1 && !node.group_by[0]->IsConstant();
  const bool int64_keys =
      one_key && node.group_by[0]->type() == DataType::kInt64;
  const bool string_keys =
      one_key && node.group_by[0]->type() == DataType::kString;
  for (const ColumnChunk& chunk : in->chunks()) {
    if (chunk.length == 0) continue;
    ChunkVals cv;
    cv.length = chunk.length;
    cv.group_vals.reserve(node.group_by.size());
    for (const BoundExprPtr& g : node.group_by) {
      FEDCAL_ASSIGN_OR_RETURN(VectorResult v, eval_.Eval(*g, chunk));
      cv.group_vals.push_back(std::move(v));
    }
    cv.agg_vals.assign(node.aggs.size(), VectorResult{});
    for (size_t a = 0; a < node.aggs.size(); ++a) {
      if (node.aggs[a].count_star) continue;
      FEDCAL_ASSIGN_OR_RETURN(cv.agg_vals[a],
                              eval_.Eval(*node.aggs[a].arg, chunk));
    }
    evaluated.push_back(std::move(cv));
  }

  const size_t naggs = node.aggs.size();
  Groups groups(naggs, in->num_rows());
  std::vector<uint32_t> gids;
  for (const ChunkVals& cv : evaluated) {
    const size_t n = cv.length;
    gids.resize(n);
    if (int64_keys || string_keys) {
      const VectorResult& gv = cv.group_vals[0];
      const uint8_t* key_nulls =
          gv.col->has_nulls() ? gv.col->nulls() + gv.offset : nullptr;
      const StringDict* dict = string_keys ? &gv.col->dict() : nullptr;
      uint32_t* lut = dict != nullptr ? groups.DictGroups(dict) : nullptr;
      for (size_t i = 0; i < n; ++i) {
        if (key_nulls != nullptr && key_nulls[i] != 0) {
          gids[i] = groups.Null();
        } else if (int64_keys) {
          gids[i] = groups.Int64(gv.col->ints()[gv.offset + i]);
        } else {
          gids[i] = groups.Code(*dict, lut, gv.col->codes()[gv.offset + i]);
        }
      }
    } else if (node.group_by.empty()) {
      std::fill(gids.begin(), gids.end(), groups.Global());
    } else {
      for (size_t i = 0; i < n; ++i) {
        Row key;
        key.reserve(cv.group_vals.size());
        for (const VectorResult& gv : cv.group_vals) key.push_back(gv.At(i));
        gids[i] = groups.Key(std::move(key));
      }
    }
    // Each (group, aggregate) accumulator sees its rows in input order,
    // so updating one aggregate at a time matches the row engine's
    // row-at-a-time sequence exactly.
    for (size_t a = 0; a < naggs; ++a) {
      UpdateAggregate(node.aggs[a], cv.agg_vals[a], gids.data(), n,
                      groups.states() + a, naggs);
    }
  }
  return EmitGroups(node, config_, &groups, stats);
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecAggregateOverJoin(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) {
  const PlanNode& join = *node.left;
  SlotMask keep(join.output_schema.num_columns(), false);
  for (const BoundExprPtr& g : node.group_by) AddSlots(g, &keep);
  for (const AggItem& a : node.aggs) AddSlots(a.arg, &keep);

  // The join's own node, as ExecNode runs it: counted, and profiled with
  // its children below it.
  ++stats->operators_executed;
  std::optional<OperatorProfileScope> scope;
  if (prof != nullptr) scope.emplace(join, *stats);
  const size_t arena0 = arena_.bytes_allocated();
  FEDCAL_ASSIGN_OR_RETURN(
      JoinInputs in,
      RunJoinInputs(join, keep, stats, scope ? scope->prof() : nullptr));

  // One pass over the probe side folds each probe chunk's pairs into their
  // groups, and stops at the first chunk past the cap.
  const JoinLayout layout(join, *in.build, *in.probe);
  GroupJoin sink(node, *in.build, *in.probe, layout);
  const size_t cap = config_.max_intermediate_rows;
  size_t pairs = 0;
  ProbeMatches matches;
  for (const ColumnChunk& chunk : in.probe->chunks()) {
    layout.Probe(chunk, &matches);
    pairs += matches.pairs;
    if (cap > 0 && pairs > cap) break;
    sink.Add(chunk, matches);
  }
  // The materializing join's charge and cap, over every pair at once.
  size_t emitted = 0;
  FEDCAL_RETURN_NOT_OK(ChargeJoinOutput(pairs, &emitted, stats));
  Groups* groups = sink.Finish();
  if (scope) {
    // What the materializing join reports: its rows and its chunks.
    const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
    scope->Finish(*stats, pairs, (pairs + batch - 1) / batch,
                  arena_.bytes_allocated() - arena0, prof);
  }
  stats->work_units +=
      config_.costs.agg_update_row * static_cast<double>(pairs);
  return EmitGroups(node, config_, groups, stats);
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecSort(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  SlotMask child = needed;
  for (const auto& [e, desc] : node.sort_keys) {
    Unused(desc);
    AddSlots(e, &child);
  }
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr in,
                          ExecNode(*node.left, child, stats, prof));
  const size_t n = in->num_rows();
  stats->work_units +=
      config_.costs.sort_row_log * static_cast<double>(n) * Log2Rows(n);

  // Precompute sort keys per row (vectorized per chunk), then stable-sort
  // indices with the row engine's comparator: identical permutation.
  std::vector<Row> keys;
  keys.reserve(n);
  std::vector<RowRef> refs;
  refs.reserve(n);
  std::vector<VectorResult> key_vals;
  for (size_t c = 0; c < in->chunks().size(); ++c) {
    const ColumnChunk& chunk = in->chunks()[c];
    if (chunk.length == 0) continue;
    key_vals.clear();
    for (const auto& [e, desc] : node.sort_keys) {
      Unused(desc);
      FEDCAL_ASSIGN_OR_RETURN(VectorResult v, eval_.Eval(*e, chunk));
      key_vals.push_back(std::move(v));
    }
    for (size_t i = 0; i < chunk.length; ++i) {
      Row key;
      key.reserve(key_vals.size());
      for (const VectorResult& kv : key_vals) key.push_back(kv.At(i));
      keys.push_back(std::move(key));
      refs.push_back(
          RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
    }
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    for (size_t k = 0; k < node.sort_keys.size(); ++k) {
      const int c = keys[a][k].Compare(keys[b][k]);
      if (c != 0) return node.sort_keys[k].second ? c > 0 : c < 0;
    }
    return false;
  });

  std::vector<RowRef> sorted;
  sorted.reserve(n);
  for (size_t i : order) sorted.push_back(refs[i]);

  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  AppendGatheredRows(*in, sorted.data(), n, config_.batch_rows, needed,
                     out.get());
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecDistinct(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  // Rows are compared on every column.
  FEDCAL_ASSIGN_OR_RETURN(
      ColumnarTablePtr in,
      ExecNode(*node.left, AllSlots(*node.left), stats, prof));
  FEDCAL_RETURN_NOT_OK(CheckAllPresent(*in, "the input of Distinct"));
  stats->work_units +=
      config_.costs.distinct_row * static_cast<double>(in->num_rows());
  std::unordered_map<RowKey, bool, RowKeyHash> seen;
  std::vector<RowRef> picked;
  for (size_t c = 0; c < in->chunks().size(); ++c) {
    const ColumnChunk& chunk = in->chunks()[c];
    for (size_t i = 0; i < chunk.length; ++i) {
      Row row;
      row.reserve(chunk.columns.size());
      for (size_t col = 0; col < chunk.columns.size(); ++col) {
        row.push_back(chunk.ValueAt(col, i));
      }
      if (seen.emplace(RowKey(std::move(row)), true).second) {
        picked.push_back(
            RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
      }
    }
  }
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  AppendGatheredRows(*in, picked.data(), picked.size(), config_.batch_rows,
                     needed, out.get());
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecLimit(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr in,
                          ExecNode(*node.left, needed, stats, prof));
  const size_t n = std::min<size_t>(
      in->num_rows(),
      node.limit < 0 ? 0 : static_cast<size_t>(node.limit));
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  size_t remaining = n;
  for (const ColumnChunk& chunk : in->chunks()) {
    if (remaining == 0) break;
    const size_t take = std::min(remaining, chunk.length);
    // Whole or partial chunks are shared, never copied.
    out->AppendChunk(take == chunk.length ? chunk : chunk.Slice(0, take));
    remaining -= take;
  }
  return ColumnarTablePtr(std::move(out));
}

}  // namespace fedcal
