#include "engine/columnar_executor.h"

#include <algorithm>
#include <optional>
#include <string_view>
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

/// \brief Column `slot` of every chunk of one hash-join side, for reads
/// by RowRef: its declared type and base pointers with each slice's
/// offset applied.
struct SideColumn {
  struct Chunk {
    const ColumnSlice* slice = nullptr;
    const int64_t* ints = nullptr;  ///< kInt64 only
    const double* doubles = nullptr;  ///< kDouble only
    const uint32_t* codes = nullptr;  ///< kString only
    const StringDict* dict = nullptr;  ///< kString only
    const uint8_t* nulls = nullptr;  ///< null when there is no null bitmap
  };
  DataType type;
  std::vector<Chunk> chunks;

  static Chunk Of(const ColumnSlice& s) {
    Chunk c;
    c.slice = &s;
    if (!s.present()) return c;
    const ColumnData& col = *s.col;
    switch (col.type()) {
      case DataType::kInt64:
        c.ints = col.ints() + s.offset;
        break;
      case DataType::kDouble:
        c.doubles = col.doubles() + s.offset;
        break;
      case DataType::kString:
        c.codes = col.codes() + s.offset;
        c.dict = &col.dict();
        break;
    }
    if (col.has_nulls()) c.nulls = col.nulls() + s.offset;
    return c;
  }

  SideColumn(const ColumnarTable& side, size_t slot)
      : type(side.schema().column(slot).type) {
    chunks.reserve(side.chunks().size());
    for (const ColumnChunk& chunk : side.chunks()) {
      chunks.push_back(Of(chunk.columns[slot]));
    }
  }

  bool IsNull(RowRef r) const {
    const Chunk& c = chunks[r.chunk];
    return c.nulls != nullptr && c.nulls[r.row] != 0;
  }
  Value ValueAt(RowRef r) const {
    return chunks[r.chunk].slice->ValueAt(r.row);
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

/// \brief A hash join's build side laid out for probing: both hash-join
/// sinks probe it.
///
/// The distinct non-NULL build keys are numbered in first-seen order, and
/// the build rows are laid out key by key, each key's rows ascending, so a
/// probe row's matches are one run of the layout in the emission order
/// (probe order, build matches ascending). One INT key on each side is
/// numbered through an Int64KeyIndex (Value equality then is int64
/// equality, and no Row/Value key is made), other keys as row-engine Rows.
/// NULL join keys never match.
class JoinLayout {
 public:
  static constexpr uint32_t kNone = Int64KeyIndex::kNone;

  JoinLayout(const PlanNode& join, const ColumnarTable& build,
             const ColumnarTable& probe)
      : join_(join),
        probe_(probe),
        typed_(join.left_keys.size() == 1 && join.right_keys.size() == 1 &&
               build.schema().column(join.left_keys[0]).type ==
                   DataType::kInt64 &&
               probe.schema().column(join.right_keys[0]).type ==
                   DataType::kInt64),
        int_keys_(build.num_rows()) {
    // `row_key[r]` is build row r's key number, kNone for a NULL key, and
    // start_[k + 1] counts key k's rows.
    std::vector<uint32_t> row_key(build.num_rows(), kNone);
    start_.assign(1, 0);
    auto number = [&](uint32_t* k) {
      if (*k == kNone) {
        *k = static_cast<uint32_t>(start_.size() - 1);
        start_.push_back(0);
      }
      ++start_[*k + 1];
      return *k;
    };
    size_t row = 0;
    if (typed_) {
      const size_t slot = join.left_keys[0];
      bool any = false;
      int64_t lo = 0;
      int64_t hi = 0;
      for (const ColumnChunk& chunk : build.chunks()) {
        const SideColumn::Chunk c = SideColumn::Of(chunk.columns[slot]);
        for (size_t i = 0; i < chunk.length; ++i) {
          if (c.nulls != nullptr && c.nulls[i] != 0) continue;
          lo = any ? std::min(lo, c.ints[i]) : c.ints[i];
          hi = any ? std::max(hi, c.ints[i]) : c.ints[i];
          any = true;
        }
      }
      if (any) int_keys_.Reserve(lo, hi);
      for (const ColumnChunk& chunk : build.chunks()) {
        const SideColumn::Chunk c = SideColumn::Of(chunk.columns[slot]);
        for (size_t i = 0; i < chunk.length; ++i, ++row) {
          if (c.nulls != nullptr && c.nulls[i] != 0) continue;
          row_key[row] = number(&int_keys_.Slot(c.ints[i]));
        }
      }
    } else {
      Row key;
      for (const ColumnChunk& chunk : build.chunks()) {
        for (size_t i = 0; i < chunk.length; ++i, ++row) {
          if (!KeyAt(chunk, join.left_keys, i, &key)) continue;
          row_key[row] =
              number(&row_keys_.try_emplace(RowKey(key), kNone).first->second);
        }
      }
    }
    // Summed, start_[k] is where key k's run ends; filling from the last
    // row down moves it to where the run begins.
    const size_t nkeys = start_.size() - 1;
    uint32_t total = 0;
    for (size_t k = 0; k < nkeys; ++k) {
      total += start_[k + 1];
      start_[k] = total;
    }
    start_[nkeys] = total;
    matches_.resize(total);
    for (size_t c = build.chunks().size(); c-- > 0;) {
      for (size_t i = build.chunks()[c].length; i-- > 0;) {
        const uint32_t k = row_key[--row];
        if (k == kNone) continue;
        matches_[--start_[k]] =
            RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)};
      }
    }
  }

  size_t num_keys() const { return start_.size() - 1; }
  /// Key k's run of build rows: matches()[begin(k)..end(k)), never empty.
  uint32_t begin(uint32_t k) const { return start_[k]; }
  uint32_t end(uint32_t k) const { return start_[k + 1]; }
  /// The build rows, key by key; an index into it is a build slot.
  const std::vector<RowRef>& matches() const { return matches_; }

  /// Calls f(probe row, key) for each probe row whose key has build rows,
  /// in probe order, until f returns false.
  template <typename F>
  void Probe(F&& f) const {
    Row key;
    for (size_t c = 0; c < probe_.chunks().size(); ++c) {
      const ColumnChunk& chunk = probe_.chunks()[c];
      const auto ref = [c](size_t i) {
        return RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)};
      };
      if (typed_) {
        const SideColumn::Chunk pc =
            SideColumn::Of(chunk.columns[join_.right_keys[0]]);
        for (size_t i = 0; i < chunk.length; ++i) {
          if (pc.nulls != nullptr && pc.nulls[i] != 0) continue;
          const uint32_t k = int_keys_.Find(pc.ints[i]);
          if (k != kNone && !f(ref(i), k)) return;
        }
        continue;
      }
      for (size_t i = 0; i < chunk.length; ++i) {
        if (!KeyAt(chunk, join_.right_keys, i, &key)) continue;
        auto it = row_keys_.find(RowKey(key));
        if (it != row_keys_.end() && !f(ref(i), it->second)) return;
      }
    }
  }

 private:
  const PlanNode& join_;
  const ColumnarTable& probe_;
  bool typed_;
  Int64KeyIndex int_keys_;
  std::unordered_map<RowKey, uint32_t, RowKeyHash> row_keys_;
  std::vector<uint32_t> start_;  ///< by key number, then the end
  std::vector<RowRef> matches_;
};

// A typed cell of one chunk of a SideColumn.
struct IntCell {
  int64_t operator()(const SideColumn::Chunk& c, uint32_t r) const {
    return c.ints[r];
  }
};
struct DoubleCell {
  double operator()(const SideColumn::Chunk& c, uint32_t r) const {
    return c.doubles[r];
  }
};
struct StringCell {
  std::string_view operator()(const SideColumn::Chunk& c, uint32_t r) const {
    return c.dict->at(c.codes[r]);
  }
};

/// One probe row's pairs: probe row `probe` with the build rows
/// `build[begin..end)` of a JoinLayout. Every pair's group is `group`, or,
/// when the group varies by build row, build slot b's is `slot_groups[b]`.
struct PairRun {
  RowRef probe;
  const RowRef* build;
  uint32_t begin;
  uint32_t end;
  uint32_t group;
  const uint32_t* slot_groups;
};

/// Folds a run's pairs into one aggregate, pair by pair in emission order:
/// `states[g * stride]` is group g's accumulator, `arg` the aggregate's
/// column, whose non-null cells Update takes. A probe-side cell is read
/// once per run.
template <typename Cell, typename Update, bool kBuildArg, bool kSlotGroups>
void FoldRun(const SideColumn& arg, const PairRun& run, AggState* states,
             size_t stride) {
  const RowRef* build = run.build;
  const uint32_t* slot_groups = run.slot_groups;
  AggState& one = states[static_cast<size_t>(run.group) * stride];
  const auto state = [&](uint32_t b) -> AggState& {
    if constexpr (kSlotGroups) return states[slot_groups[b] * stride];
    return one;
  };
  if constexpr (kBuildArg) {
    for (uint32_t b = run.begin; b < run.end; ++b) {
      const RowRef r = build[b];
      const SideColumn::Chunk& c = arg.chunks[r.chunk];
      if (c.nulls != nullptr && c.nulls[r.row] != 0) continue;
      Update{}(state(b), Cell{}(c, r.row));
    }
  } else {
    const SideColumn::Chunk& c = arg.chunks[run.probe.chunk];
    if (c.nulls != nullptr && c.nulls[run.probe.row] != 0) return;
    const auto v = Cell{}(c, run.probe.row);
    for (uint32_t b = run.begin; b < run.end; ++b) Update{}(state(b), v);
  }
}

using FoldFn = void (*)(const SideColumn&, const PairRun&, AggState*, size_t);

template <typename Cell, typename Update>
FoldFn PickFold(bool build_arg, bool slot_groups) {
  if (build_arg) {
    return slot_groups ? &FoldRun<Cell, Update, true, true>
                       : &FoldRun<Cell, Update, true, false>;
  }
  return slot_groups ? &FoldRun<Cell, Update, false, true>
                     : &FoldRun<Cell, Update, false, false>;
}

/// The fold of `item` over a column of `type`, picked once per query so
/// that the loop over pairs carries no switch on the function or the type.
FoldFn PickFold(const AggItem& item, DataType type, bool build_arg,
                bool slot_groups) {
  FoldFn fn = nullptr;
  WithTypedUpdate(item, [&](auto update) {
    using Update = decltype(update);
    switch (type) {
      case DataType::kInt64:
        fn = PickFold<IntCell, Update>(build_arg, slot_groups);
        return;
      case DataType::kDouble:
        fn = PickFold<DoubleCell, Update>(build_arg, slot_groups);
        return;
      case DataType::kString:
        fn = PickFold<StringCell, Update>(build_arg, slot_groups);
        return;
    }
  });
  return fn;
}

/// \brief The accumulate sink: folds each matched pair of a hash join
/// straight into the groups of the Aggregate above it, one probe row's run
/// at a time, in the emission order.
///
/// A pair's group is read in place. When every group key is a probe column
/// (or there is none), it is resolved once per probe row; when every key is
/// a build column, once per build slot, the first time the slot's key
/// matches, and cached; otherwise once per pair. Ids are therefore handed
/// out in first-seen order. A COUNT adds a whole run per probe row, or,
/// when the group comes from the build side, a count per build key that
/// the last step spreads over the key's slots: counts are integers, so
/// their order does not matter. Every other aggregate folds its pairs one
/// by one, so each accumulator sees them in emission order (a double sum
/// of m equal cells is not m times the cell).
class GroupJoin {
 public:
  static constexpr uint32_t kNone = Groups::kNone;

  GroupJoin(const PlanNode& node, const ColumnarTable& build,
            const ColumnarTable& probe, const JoinLayout& layout)
      : layout_(layout),
        build_width_(node.left->left->output_schema.num_columns()),
        from_(GroupsFrom(node, build_width_)),
        naggs_(node.aggs.size()),
        groups_(naggs_, from_ == From::kBuild ? build.num_rows()
                                              : probe.num_rows()) {
    auto side_column = [&](const BoundExprPtr& e) {
      return OnBuild(e) ? SideColumn(build, e->column_index())
                        : SideColumn(probe, e->column_index() - build_width_);
    };
    for (const BoundExprPtr& g : node.group_by) {
      keys_.push_back(side_column(g));
      key_on_build_.push_back(OnBuild(g));
    }
    typed_key_ = keys_.size() == 1 && keys_[0].type != DataType::kDouble;
    if (from_ == From::kNone) groups_.Global();
    const bool slot_groups = from_ == From::kBuild || from_ == From::kPair;
    if (slot_groups) slot_groups_.assign(layout.matches().size(), kNone);
    const RowRef* slots = layout.matches().data();
    for (size_t a = 0; a < naggs_; ++a) {
      const AggItem& item = node.aggs[a];
      if (item.func != AggFunc::kCount) {
        SideColumn arg = side_column(item.arg);
        const FoldFn fn =
            PickFold(item, arg.type, OnBuild(item.arg), slot_groups);
        folds_.push_back(Fold{a, fn, std::move(arg)});
        continue;
      }
      Count c;
      c.agg = a;
      if (!item.count_star && OnBuild(item.arg)) {
        c.build_arg.emplace(side_column(item.arg));
      } else if (!item.count_star) {
        c.probe_arg.emplace(side_column(item.arg));
      }
      if (c.build_arg && !slot_groups) {
        c.per_key.assign(layout.num_keys(), 0);
        for (uint32_t k = 0; k < layout.num_keys(); ++k) {
          for (uint32_t b = layout.begin(k); b < layout.end(k); ++b) {
            if (!c.build_arg->IsNull(slots[b])) ++c.per_key[k];
          }
        }
      }
      if (from_ == From::kBuild) c.per_key.assign(layout.num_keys(), 0);
      counts_.push_back(std::move(c));
    }
  }

  /// Folds the pairs of probe row `p` with build key `k`'s rows.
  void Add(RowRef p, uint32_t k) {
    const RowRef* slots = layout_.matches().data();
    PairRun run{p, slots, layout_.begin(k), layout_.end(k), 0,
                slot_groups_.data()};
    if (from_ == From::kProbe) {
      run.group = Resolve(RowRef{}, p);
    } else if (from_ == From::kPair ||
               (from_ == From::kBuild && slot_groups_[run.begin] == kNone)) {
      // A build key's slots are resolved together, at its first match.
      for (uint32_t b = run.begin; b < run.end; ++b) {
        slot_groups_[b] = Resolve(slots[b], p);
      }
    }
    AggState* states = groups_.states();
    for (Count& c : counts_) {
      if (c.probe_arg && c.probe_arg->IsNull(p)) continue;
      if (from_ == From::kBuild) {
        ++c.per_key[k];  // matched probe rows, spread over slots by Finish
      } else if (from_ != From::kPair) {
        states[run.group * naggs_ + c.agg].count +=
            c.build_arg ? c.per_key[k] : run.end - run.begin;
      } else {
        for (uint32_t b = run.begin; b < run.end; ++b) {
          if (c.build_arg && c.build_arg->IsNull(slots[b])) continue;
          ++states[slot_groups_[b] * naggs_ + c.agg].count;
        }
      }
    }
    for (const Fold& f : folds_) f.fn(f.arg, run, states + f.agg, naggs_);
  }

  /// The groups, once the counts kept per build key are added; call after
  /// the last Add.
  Groups* Finish() {
    if (from_ != From::kBuild) return &groups_;
    const RowRef* slots = layout_.matches().data();
    AggState* states = groups_.states();
    for (const Count& c : counts_) {
      for (uint32_t k = 0; k < layout_.num_keys(); ++k) {
        if (c.per_key[k] == 0) continue;
        for (uint32_t b = layout_.begin(k); b < layout_.end(k); ++b) {
          if (c.build_arg && c.build_arg->IsNull(slots[b])) continue;
          states[slot_groups_[b] * naggs_ + c.agg].count += c.per_key[k];
        }
      }
    }
    return &groups_;
  }

 private:
  /// Where a pair's group comes from.
  enum class From { kNone, kProbe, kBuild, kPair };

  /// A COUNT(*) or COUNT(col), counting the pairs whose cell is not NULL.
  struct Count {
    size_t agg = 0;
    std::optional<SideColumn> probe_arg;
    std::optional<SideColumn> build_arg;
    /// Per build key: with a build argument and one group per probe row,
    /// the key's non-NULL cells; with groups from the build side, the
    /// probe rows counted so far.
    std::vector<size_t> per_key;
  };
  /// A SUM, AVG, MIN or MAX.
  struct Fold {
    size_t agg;
    FoldFn fn;
    SideColumn arg;
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

  /// The group of the pair (build row b, probe row p), each key read from
  /// its side: typed for one INT or STRING key, as Values otherwise.
  uint32_t Resolve(RowRef b, RowRef p) {
    if (typed_key_) {
      const RowRef r = from_ == From::kBuild ? b : p;
      const SideColumn::Chunk& c = keys_[0].chunks[r.chunk];
      if (c.nulls != nullptr && c.nulls[r.row] != 0) return groups_.Null();
      if (keys_[0].type == DataType::kInt64) {
        return groups_.Int64(c.ints[r.row]);
      }
      return groups_.Code(*c.dict, groups_.DictGroups(c.dict),
                          c.codes[r.row]);
    }
    Row key;
    key.reserve(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      key.push_back(keys_[i].ValueAt(key_on_build_[i] ? b : p));
    }
    return groups_.Key(std::move(key));
  }

  const JoinLayout& layout_;
  size_t build_width_;
  From from_;
  size_t naggs_;
  Groups groups_;
  std::vector<SideColumn> keys_;
  std::vector<bool> key_on_build_;
  bool typed_key_ = false;  ///< one INT or STRING key
  std::vector<uint32_t> slot_groups_;  ///< by build slot, kNone until seen
  std::vector<Count> counts_;
  std::vector<Fold> folds_;
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

  // The materialize sink: the pairs are streamed in emission order into
  // batches of batch_rows; each batch is gathered into a concatenated
  // [build, probe] chunk, filtered by the residual predicate, charged and
  // appended.
  const JoinLayout layout(node, *in.build, *in.probe);
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  const std::vector<std::vector<ColumnSlice>> bsrc = GatherSources(*in.build);
  const std::vector<std::vector<ColumnSlice>> psrc = GatherSources(*in.probe);
  const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
  std::vector<RowRef> bsel;
  std::vector<RowRef> psel;
  size_t emitted = 0;
  auto flush = [&]() -> Status {
    const size_t len = bsel.size();
    if (len == 0) return Status::OK();
    ColumnChunk cand;
    cand.length = len;
    cand.columns.resize(bsrc.size() + psrc.size());
    for (size_t c = 0; c < bsrc.size(); ++c) {
      if (!keep[c]) continue;
      auto col =
          std::make_shared<ColumnData>(in.build->schema().column(c).type);
      col->AppendGather(bsrc[c], bsel.data(), len);
      cand.columns[c] = ColumnSlice{std::move(col), 0};
    }
    for (size_t c = 0; c < psrc.size(); ++c) {
      if (!keep[bsrc.size() + c]) continue;
      auto col =
          std::make_shared<ColumnData>(in.probe->schema().column(c).type);
      col->AppendGather(psrc[c], psel.data(), len);
      cand.columns[bsrc.size() + c] = ColumnSlice{std::move(col), 0};
    }
    bsel.clear();
    psel.clear();
    const uint32_t* sel = nullptr;
    size_t k = len;
    if (node.residual) {
      FEDCAL_ASSIGN_OR_RETURN(sel,
                              eval_.EvalSelection(*node.residual, cand, &k));
    }
    FEDCAL_RETURN_NOT_OK(ChargeJoinOutput(k, &emitted, stats));
    if (k == len) {
      out->AppendChunk(std::move(cand));
    } else if (k > 0) {
      out->AppendChunk(GatherChunk(cand, sel, k, needed));
    }
    return Status::OK();
  };
  Status status;
  layout.Probe([&](RowRef p, uint32_t k) {
    for (uint32_t b = layout.begin(k); b < layout.end(k); ++b) {
      bsel.push_back(layout.matches()[b]);
      psel.push_back(p);
      if (bsel.size() == batch) {
        status = flush();
        if (!status.ok()) return false;
      }
    }
    return true;
  });
  FEDCAL_RETURN_NOT_OK(status);
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

  // One pass over the probe side folds each probe row's pairs into their
  // groups, and stops at the first probe row past the cap.
  const JoinLayout layout(join, *in.build, *in.probe);
  GroupJoin sink(node, *in.build, *in.probe, layout);
  const size_t cap = config_.max_intermediate_rows;
  size_t pairs = 0;
  layout.Probe([&](RowRef p, uint32_t k) {
    pairs += layout.end(k) - layout.begin(k);
    if (cap > 0 && pairs > cap) return false;
    sink.Add(p, k);
    return true;
  });
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
