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

/// Calls feed(update) with `item`'s update for one non-null typed cell,
/// `update(state, cell)`, chosen here once per batch so that the feed's
/// loop carries no per-cell switch on the function.
template <typename Feed>
void WithTypedUpdate(const AggItem& item, Feed&& feed) {
  switch (item.func) {
    case AggFunc::kCount:
      feed([](AggState& s, auto) { ++s.count; });
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      feed([](AggState& s, auto v) { s.Sum(v); });
      return;
    case AggFunc::kMin:
      feed([](AggState& s, auto v) { s.Min(v); });
      return;
    case AggFunc::kMax:
      feed([](AggState& s, auto v) { s.Max(v); });
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

/// Calls f(i, build row, probe row) for pair i of a batch of runs.
template <typename F>
void ForEachPair(const RowRef* matches, const MatchRun* runs, size_t n,
                 F&& f) {
  size_t i = 0;
  for (size_t k = 0; k < n; ++k) {
    for (uint32_t j = runs[k].begin; j < runs[k].end; ++j) {
      f(i++, matches[j], runs[k].probe);
    }
  }
}

/// Feeds pair i of a batch of runs to `states[gids[i] * stride]` through
/// `update(state, cell)`, `cell(chunk, row)` reading a non-null cell of
/// `arg`. A probe-side cell is read once per run.
template <typename Cell, typename Update>
void FeedPairs(const SideColumn& arg, bool build, const RowRef* matches,
               const MatchRun* runs, size_t n, const uint32_t* gids,
               AggState* states, size_t stride, Cell cell, Update update) {
  size_t i = 0;
  for (size_t k = 0; k < n; ++k) {
    const MatchRun& run = runs[k];
    if (!build) {
      const SideColumn::Chunk& c = arg.chunks[run.probe.chunk];
      const size_t end = i + (run.end - run.begin);
      if (c.nulls == nullptr || c.nulls[run.probe.row] == 0) {
        const auto v = cell(c, run.probe.row);
        for (; i < end; ++i) update(states[gids[i] * stride], v);
      }
      i = end;
      continue;
    }
    for (uint32_t j = run.begin; j < run.end; ++j, ++i) {
      const RowRef r = matches[j];
      const SideColumn::Chunk& c = arg.chunks[r.chunk];
      if (c.nulls == nullptr || c.nulls[r.row] == 0) {
        update(states[gids[i] * stride], cell(c, r.row));
      }
    }
  }
}

/// How the accumulate sink feeds one aggregate, a batch of pairs at a
/// time in emission order: COUNT(*) counts; every other aggregate reads
/// its side column's typed cells.
struct PairFeed {
  bool build = false;  ///< the argument is a column of the build side
  std::optional<SideColumn> arg;  ///< absent for COUNT(*)

  /// Feeds the `len` pairs of `runs[0..n)` to `states[gids[i] * stride]`.
  void Update(const AggItem& item, const RowRef* matches,
              const MatchRun* runs, size_t n, size_t len,
              const uint32_t* gids, AggState* states, size_t stride) const {
    if (!arg) {
      for (size_t i = 0; i < len; ++i) ++states[gids[i] * stride].count;
      return;
    }
    using Chunk = SideColumn::Chunk;
    WithTypedUpdate(item, [&](auto update) {
      auto feed = [&](auto cell) {
        FeedPairs(*arg, build, matches, runs, n, gids, states, stride, cell,
                  update);
      };
      switch (arg->type) {
        case DataType::kInt64:
          feed([](const Chunk& c, uint32_t r) { return c.ints[r]; });
          return;
        case DataType::kDouble:
          feed([](const Chunk& c, uint32_t r) { return c.doubles[r]; });
          return;
        case DataType::kString:
          feed([](const Chunk& c, uint32_t r) {
            return c.dict->at(c.codes[r]);
          });
          return;
      }
    });
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

  explicit Groups(size_t naggs) : naggs_(naggs) {}

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
  /// Readies Int64() for the non-null keys in `keys`, out of `rows` rows.
  void IndexInt64(const Int64Range& keys, size_t rows) {
    int_index_.emplace(keys, rows);
    int_groups_.assign(int_index_->size(), kNone);
  }
  uint32_t Int64(int64_t k) {
    const uint32_t n = int_index_->Insert(k);
    if (n >= int_groups_.size()) int_groups_.resize(n + 1, kNone);
    uint32_t& g = int_groups_[n];
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
  std::optional<Int64KeyIndex> int_index_;
  std::vector<uint32_t> int_groups_;  ///< by key number
  std::unordered_map<std::string_view, uint32_t> str_index_;
  std::vector<std::pair<const StringDict*, std::vector<uint32_t>>>
      dict_groups_;
  std::unordered_map<RowKey, uint32_t, RowKeyHash> row_index_;
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

Status ColumnarExecutor::ProbeHashJoin(const PlanNode& node,
                                       const JoinInputs& in,
                                       const PairSink& sink) const {
  const ColumnarTable& build = *in.build;
  const ColumnarTable& probe = *in.probe;
  constexpr uint32_t kNone = Int64KeyIndex::kNone;

  // Number the distinct non-NULL build keys in first-seen order: through
  // an Int64KeyIndex when the key is one INT column on each side (Value
  // equality then is int64 equality, and no Row/Value key is made), as
  // row-engine Rows otherwise. NULL join keys never match.
  const bool typed =
      node.left_keys.size() == 1 && node.right_keys.size() == 1 &&
      build.schema().column(node.left_keys[0]).type == DataType::kInt64 &&
      probe.schema().column(node.right_keys[0]).type == DataType::kInt64;
  auto key_at = [](const ColumnChunk& chunk, const std::vector<size_t>& slots,
                   size_t i, Row* key) {
    key->clear();
    for (size_t s : slots) {
      if (chunk.IsNull(s, i)) return false;
      key->push_back(chunk.ValueAt(s, i));
    }
    return true;
  };
  // `row_key[r]` is build row r's key number, kNone for a NULL key.
  std::vector<uint32_t> row_key(build.num_rows(), kNone);
  std::optional<Int64KeyIndex> int_keys;
  std::unordered_map<RowKey, uint32_t, RowKeyHash> row_keys;
  size_t row = 0;
  Row key;
  if (typed) {
    Int64Range range;
    for (const ColumnChunk& chunk : build.chunks()) {
      const SideColumn::Chunk c =
          SideColumn::Of(chunk.columns[node.left_keys[0]]);
      range.AddAll(c.ints, c.nulls, chunk.length);
    }
    int_keys.emplace(range, build.num_rows());
    for (const ColumnChunk& chunk : build.chunks()) {
      const SideColumn::Chunk c =
          SideColumn::Of(chunk.columns[node.left_keys[0]]);
      for (size_t i = 0; i < chunk.length; ++i, ++row) {
        if (c.nulls == nullptr || c.nulls[i] == 0) {
          row_key[row] = int_keys->Insert(c.ints[i]);
        }
      }
    }
  } else {
    row_keys.reserve(build.num_rows());
    for (const ColumnChunk& chunk : build.chunks()) {
      for (size_t i = 0; i < chunk.length; ++i, ++row) {
        if (!key_at(chunk, node.left_keys, i, &key)) continue;
        row_key[row] =
            row_keys
                .try_emplace(RowKey(key), static_cast<uint32_t>(row_keys.size()))
                .first->second;
      }
    }
  }
  // Lay the build rows out key by key, each key's rows ascending (the
  // emission order), so a probe row's matches are one run of `matches`.
  // start[k + 1] counts key k's rows; summed, start[k] is where key k's
  // run ends, and filling from the last row down moves it to where the
  // run begins.
  const size_t nkeys = typed ? int_keys->size() : row_keys.size();
  std::vector<uint32_t> start(nkeys + 1, 0);
  for (uint32_t k : row_key) {
    if (k != kNone) ++start[k + 1];
  }
  uint32_t total = 0;
  for (size_t k = 0; k < nkeys; ++k) {
    total += start[k + 1];
    start[k] = total;
  }
  start[nkeys] = total;
  std::vector<RowRef> matches(start[nkeys]);
  for (size_t c = build.chunks().size(); c-- > 0;) {
    for (size_t i = build.chunks()[c].length; i-- > 0;) {
      const uint32_t k = row_key[--row];
      if (k == kNone) continue;
      matches[--start[k]] =
          RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)};
    }
  }

  // Probe in order; each probe row's run is cut where a batch fills.
  const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
  std::vector<MatchRun> runs;
  size_t len = 0;
  auto flush = [&]() -> Status {
    if (len == 0) return Status::OK();
    const Status st = sink(matches.data(), runs.data(), runs.size(), len);
    runs.clear();
    len = 0;
    return st;
  };
  auto emit = [&](RowRef p, uint32_t k) -> Status {
    for (uint32_t b = start[k]; b < start[k + 1];) {
      const auto take =
          static_cast<uint32_t>(std::min<size_t>(start[k + 1] - b, batch - len));
      runs.push_back(MatchRun{p, b, b + take});
      b += take;
      len += take;
      if (len == batch) FEDCAL_RETURN_NOT_OK(flush());
    }
    return Status::OK();
  };
  for (size_t c = 0; c < probe.chunks().size(); ++c) {
    const ColumnChunk& chunk = probe.chunks()[c];
    const auto ref = [c](size_t i) {
      return RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)};
    };
    if (typed) {
      const SideColumn::Chunk pc =
          SideColumn::Of(chunk.columns[node.right_keys[0]]);
      for (size_t i = 0; i < chunk.length; ++i) {
        if (pc.nulls != nullptr && pc.nulls[i] != 0) continue;
        const uint32_t k = int_keys->Find(pc.ints[i]);
        if (k != kNone && start[k] != start[k + 1]) {
          FEDCAL_RETURN_NOT_OK(emit(ref(i), k));
        }
      }
      continue;
    }
    for (size_t i = 0; i < chunk.length; ++i) {
      if (!key_at(chunk, node.right_keys, i, &key)) continue;
      auto it = row_keys.find(RowKey(key));
      if (it != row_keys.end()) FEDCAL_RETURN_NOT_OK(emit(ref(i), it->second));
    }
  }
  return flush();
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

  // The materialize sink: each batch of pairs is gathered into a
  // concatenated [build, probe] chunk, filtered by the residual predicate,
  // charged and appended.
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  const std::vector<std::vector<ColumnSlice>> bsrc = GatherSources(*in.build);
  const std::vector<std::vector<ColumnSlice>> psrc = GatherSources(*in.probe);
  std::vector<RowRef> bsel;
  std::vector<RowRef> psel;
  size_t emitted = 0;
  auto gather = [&](const RowRef* matches, const MatchRun* runs, size_t n,
                    size_t len) -> Status {
    bsel.clear();
    psel.clear();
    ForEachPair(matches, runs, n, [&](size_t, RowRef b, RowRef p) {
      bsel.push_back(b);
      psel.push_back(p);
    });
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
  FEDCAL_RETURN_NOT_OK(ProbeHashJoin(node, in, gather));
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
  Groups groups(naggs);
  if (int64_keys) {
    Int64Range range;
    for (const ChunkVals& cv : evaluated) {
      const VectorResult& gv = cv.group_vals[0];
      range.AddAll(gv.col->ints() + gv.offset,
                   gv.col->has_nulls() ? gv.col->nulls() + gv.offset : nullptr,
                   cv.length);
    }
    groups.IndexInt64(range, in->num_rows());
  }
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

  // Every key and argument is a bare column of the [build, probe] row:
  // read it from its side, by the RowRef the pair carries for that side.
  const size_t build_width = join.left->output_schema.num_columns();
  auto on_build = [&](const BoundExprPtr& e) {
    return e->column_index() < build_width;
  };
  auto side_column = [&](const BoundExprPtr& e) {
    return on_build(e) ? SideColumn(*in.build, e->column_index())
                       : SideColumn(*in.probe, e->column_index() - build_width);
  };
  std::vector<SideColumn> keys;
  for (const BoundExprPtr& g : node.group_by) keys.push_back(side_column(g));
  const size_t naggs = node.aggs.size();
  std::vector<PairFeed> feeds(naggs);
  for (size_t a = 0; a < naggs; ++a) {
    const AggItem& item = node.aggs[a];
    if (item.count_star) continue;
    feeds[a].build = on_build(item.arg);
    feeds[a].arg.emplace(side_column(item.arg));
  }

  // A single INT or STRING key is resolved the first time a pair
  // carries its row, so ids keep first-seen order: a build row's id is
  // kept by the row's place in the join's build layout, a probe row's,
  // whose pairs are adjacent, until the next probe row. Other keys
  // (several columns, or a DOUBLE one) are compared as Values per pair.
  Groups groups(naggs);
  constexpr uint32_t kNone = Groups::kNone;
  const bool per_row =
      keys.size() == 1 && (keys[0].type == DataType::kInt64 ||
                           keys[0].type == DataType::kString);
  const bool key_on_build = !keys.empty() && on_build(node.group_by[0]);
  std::vector<uint32_t> build_gid;
  if (per_row) {
    const ColumnarTable& side = key_on_build ? *in.build : *in.probe;
    if (keys[0].type == DataType::kInt64) {
      Int64Range range;
      for (size_t c = 0; c < side.chunks().size(); ++c) {
        const SideColumn::Chunk& kc = keys[0].chunks[c];
        range.AddAll(kc.ints, kc.nulls, side.chunks()[c].length);
      }
      groups.IndexInt64(range, side.num_rows());
    }
    if (key_on_build) build_gid.assign(side.num_rows(), kNone);
  }
  auto resolve = [&](RowRef r) {
    const SideColumn& key = keys[0];
    if (key.IsNull(r)) return groups.Null();
    const SideColumn::Chunk& c = key.chunks[r.chunk];
    if (key.type == DataType::kInt64) return groups.Int64(c.ints[r.row]);
    return groups.Code(*c.dict, groups.DictGroups(c.dict), c.codes[r.row]);
  };
  RowRef last_probe{UINT32_MAX, UINT32_MAX};
  uint32_t last_gid = kNone;

  // The accumulate sink: the batch is charged as the join charges it and
  // each pair's group resolved; then each aggregate takes the batch, so
  // every accumulator sees its pairs in emission order.
  size_t pairs = 0;
  std::vector<uint32_t> gids;
  auto accumulate = [&](const RowRef* matches, const MatchRun* runs,
                        size_t n, size_t len) -> Status {
    FEDCAL_RETURN_NOT_OK(ChargeJoinOutput(len, &pairs, stats));
    gids.resize(len);
    if (keys.empty()) {
      std::fill(gids.begin(), gids.end(), groups.Global());
    } else if (per_row && key_on_build) {
      uint32_t* cached = build_gid.data();
      size_t i = 0;
      for (size_t k = 0; k < n; ++k) {
        for (uint32_t j = runs[k].begin; j < runs[k].end; ++j) {
          if (cached[j] == kNone) cached[j] = resolve(matches[j]);
          gids[i++] = cached[j];
        }
      }
    } else if (per_row) {
      size_t i = 0;
      for (size_t k = 0; k < n; ++k) {
        const RowRef p = runs[k].probe;
        if (p.chunk != last_probe.chunk || p.row != last_probe.row) {
          last_probe = p;
          last_gid = resolve(p);
        }
        const size_t end = i + (runs[k].end - runs[k].begin);
        std::fill(gids.begin() + i, gids.begin() + end, last_gid);
        i = end;
      }
    } else {
      ForEachPair(matches, runs, n, [&](size_t i, RowRef b, RowRef p) {
        Row key;
        key.reserve(keys.size());
        for (size_t k = 0; k < keys.size(); ++k) {
          key.push_back(keys[k].ValueAt(on_build(node.group_by[k]) ? b : p));
        }
        gids[i] = groups.Key(std::move(key));
      });
    }
    for (size_t a = 0; a < naggs; ++a) {
      feeds[a].Update(node.aggs[a], matches, runs, n, len, gids.data(),
                      groups.states() + a, naggs);
    }
    return Status::OK();
  };
  FEDCAL_RETURN_NOT_OK(ProbeHashJoin(join, in, accumulate));
  if (scope) {
    // What the materializing join reports: its rows and its chunks.
    const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
    scope->Finish(*stats, pairs, (pairs + batch - 1) / batch,
                  arena_.bytes_allocated() - arena0, prof);
  }
  stats->work_units +=
      config_.costs.agg_update_row * static_cast<double>(pairs);
  return EmitGroups(node, config_, &groups, stats);
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
