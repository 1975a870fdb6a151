#include "engine/columnar_executor.h"

#include <algorithm>
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
/// chunk; the other columns are absent. Output columns start in the source
/// representation, so same-kind cells copy through the typed gather (and
/// demoted sources stay variant-exact).
ColumnChunk GatherChunk(const ColumnChunk& src, const uint32_t* sel,
                        size_t k, const SlotMask& keep) {
  ColumnChunk out;
  out.length = k;
  out.columns.resize(src.columns.size());
  for (size_t c = 0; c < src.columns.size(); ++c) {
    const ColumnSlice& s = src.columns[c];
    if (!keep[c] || !s.present()) continue;
    auto col = std::make_shared<ColumnData>(s.col->kind());
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

/// True when column `slot` of every chunk is a pure int64 vector (no mixed
/// demotion). For such columns Value comparison degenerates to int64
/// comparison — cross int/double equality cannot arise — so hash keys can
/// skip the per-row Value materialization entirely.
bool AllChunksInt64(const ColumnarTable& t, size_t slot) {
  for (const ColumnChunk& chunk : t.chunks()) {
    if (chunk.length == 0) continue;
    if (chunk.columns[slot].col->kind() != ColumnData::Kind::kInt64) {
      return false;
    }
  }
  return true;
}

/// Feeds rows [0, n) of one aggregate's argument into the accumulators
/// `states[gids[i] * stride]`. COUNT, SUM and AVG over a pure int64 or
/// double column read the typed array; COUNT(*), MIN, MAX, constants and
/// kMixed columns go through AggState::Update with per-row Values.
void UpdateAggregate(const AggItem& item, const VectorResult& arg,
                     const size_t* gids, size_t n, AggState* states,
                     size_t stride) {
  if (item.count_star) {
    const Value none;
    for (size_t i = 0; i < n; ++i) states[gids[i] * stride].Update(item, none);
    return;
  }
  const bool typed_func = item.func == AggFunc::kCount ||
                          item.func == AggFunc::kSum ||
                          item.func == AggFunc::kAvg;
  if (typed_func && !arg.constant) {
    const ColumnData& col = *arg.col;
    const uint8_t* nulls =
        col.has_nulls() ? col.nulls() + arg.offset : nullptr;
    if (col.kind() == ColumnData::Kind::kInt64) {
      const int64_t* v = col.ints() + arg.offset;
      for (size_t i = 0; i < n; ++i) {
        if (nulls != nullptr && nulls[i] != 0) continue;
        states[gids[i] * stride].UpdateInt64(item, v[i]);
      }
      return;
    }
    if (col.kind() == ColumnData::Kind::kDouble) {
      const double* v = col.doubles() + arg.offset;
      for (size_t i = 0; i < n; ++i) {
        if (nulls != nullptr && nulls[i] != 0) continue;
        states[gids[i] * stride].UpdateDouble(item, v[i]);
      }
      return;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    states[gids[i] * stride].Update(item, arg.At(i));
  }
}

/// Materializes a broadcast constant as a column of `n` cells.
ColumnPtr ConstantColumn(const Value& v, size_t n) {
  DataType t = DataType::kInt64;
  if (v.is_double()) t = DataType::kDouble;
  if (v.is_string()) t = DataType::kString;
  auto col = std::make_shared<ColumnData>(t);
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
        oc.columns.push_back(
            ColumnSlice{ConstantColumn(v.const_value, chunk.length), 0});
      } else {
        // Pass-through and computed columns alike are shared, not copied.
        oc.columns.push_back(ColumnSlice{std::move(v.col), v.offset});
      }
    }
    out->AppendChunk(std::move(oc));
  }
  return ColumnarTablePtr(std::move(out));
}

Result<ColumnarTablePtr> ColumnarExecutor::ExecHashJoin(
    const PlanNode& node, const SlotMask& needed, ExecStats* stats,
    obs::OperatorProfile* prof) {
  // Matched pairs gather what the parent reads plus the residual's
  // inputs (slots of the [build, probe] row); each side also produces its
  // join keys.
  SlotMask keep = needed;
  AddSlots(node.residual, &keep);
  const auto split = keep.begin() + node.left->output_schema.num_columns();
  SlotMask lmask(keep.begin(), split);
  SlotMask rmask(split, keep.end());
  for (size_t s : node.left_keys) lmask[s] = true;
  for (size_t s : node.right_keys) rmask[s] = true;
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr build,
                          ExecNode(*node.left, lmask, stats, prof));
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr probe,
                          ExecNode(*node.right, rmask, stats, prof));
  stats->work_units +=
      config_.costs.hash_build_row * static_cast<double>(build->num_rows());
  stats->work_units +=
      config_.costs.hash_probe_row * static_cast<double>(probe->num_rows());

  // Candidate (build, probe) pairs stream out in probe order, matches
  // ascending — exactly the row engine's deterministic emission order — in
  // batches of `batch` pairs. Each batch is gathered into a concatenated
  // [build, probe] chunk, filtered by the residual predicate, charged and
  // appended.
  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  const std::vector<std::vector<ColumnSlice>> bsrc = GatherSources(*build);
  const std::vector<std::vector<ColumnSlice>> psrc = GatherSources(*probe);
  const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
  std::vector<RowRef> bsel;
  std::vector<RowRef> psel;
  bsel.reserve(batch);
  psel.reserve(batch);
  size_t emitted = 0;
  auto flush = [&]() -> Status {
    const size_t len = bsel.size();
    if (len == 0) return Status::OK();
    ColumnChunk cand;
    cand.length = len;
    cand.columns.resize(bsrc.size() + psrc.size());
    for (size_t c = 0; c < bsrc.size(); ++c) {
      if (!keep[c]) continue;
      auto col = std::make_shared<ColumnData>(build->schema().column(c).type);
      col->AppendGather(bsrc[c], bsel.data(), len);
      cand.columns[c] = ColumnSlice{std::move(col), 0};
    }
    for (size_t c = 0; c < psrc.size(); ++c) {
      if (!keep[bsrc.size() + c]) continue;
      auto col = std::make_shared<ColumnData>(probe->schema().column(c).type);
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
    for (size_t j = 0; j < k; ++j) {
      stats->work_units += config_.costs.join_output_row;
      ++emitted;
      FEDCAL_RETURN_NOT_OK(CheckSize(emitted));
    }
    if (k == len) {
      out->AppendChunk(std::move(cand));
    } else if (k > 0) {
      out->AppendChunk(GatherChunk(cand, sel, k, needed));
    }
    return Status::OK();
  };

  if (node.left_keys.size() == 1 && node.right_keys.size() == 1 &&
      AllChunksInt64(*build, node.left_keys[0]) &&
      AllChunksInt64(*probe, node.right_keys[0])) {
    // Typed fast path: both key columns are pure int64, so Value equality
    // degenerates to int64 equality and the per-row Row/Value key
    // materialization disappears. Matching rows chain through a single
    // `next` array (built in reverse so each chain lists build rows in
    // ascending order — the required emission order) instead of one heap
    // vector per distinct key; when the build keys span a compact range
    // (serial ids do) the chain heads live in a direct-address array and
    // the hash table disappears entirely.
    struct KeyCol {
      const int64_t* vals;
      const uint8_t* nulls;  // null => skip (NULL keys never join)
      size_t len;
      uint32_t base;
    };
    auto key_cols = [](const ColumnarTable& t, size_t slot) {
      std::vector<KeyCol> cols;
      cols.reserve(t.chunks().size());
      uint32_t base = 0;
      for (const ColumnChunk& chunk : t.chunks()) {
        const ColumnSlice& s = chunk.columns[slot];
        cols.push_back(KeyCol{
            s.col->ints() + s.offset,
            s.col->has_nulls() ? s.col->nulls() + s.offset : nullptr,
            chunk.length, base});
        base += static_cast<uint32_t>(chunk.length);
      }
      return cols;
    };
    const std::vector<KeyCol> bcols = key_cols(*build, node.left_keys[0]);
    const std::vector<KeyCol> pcols = key_cols(*probe, node.right_keys[0]);

    const size_t bn = build->num_rows();
    constexpr uint32_t kNone = UINT32_MAX;
    int64_t kmin = 0;
    int64_t kmax = 0;
    size_t nonnull = 0;
    for (const KeyCol& kc : bcols) {
      for (size_t i = 0; i < kc.len; ++i) {
        if (kc.nulls != nullptr && kc.nulls[i] != 0) continue;
        const int64_t k = kc.vals[i];
        if (nonnull == 0) {
          kmin = kmax = k;
        } else {
          if (k < kmin) kmin = k;
          if (k > kmax) kmax = k;
        }
        ++nonnull;
      }
    }
    // Unsigned subtraction is overflow-safe for any int64 pair.
    const uint64_t range =
        static_cast<uint64_t>(kmax) - static_cast<uint64_t>(kmin);
    // Direct addressing pays one uint32 slot per key in [kmin, kmax]. The
    // absolute floor matters: a small build side probed by a large input
    // (selective filter joined against a big table) is worth a few MB of
    // head array to turn every probe into an array index.
    const bool dense =
        nonnull > 0 &&
        range < std::max<uint64_t>(4 * static_cast<uint64_t>(bn) + 1024,
                                   uint64_t{1} << 22);

    // Chains link build rows by their table-wide index; `bref` maps that
    // index back to the row's chunk for the gather.
    std::vector<uint32_t> next(bn, kNone);
    std::vector<RowRef> bref(bn);
    std::vector<uint32_t> head;
    std::unordered_map<int64_t, uint32_t> head_map;
    if (dense) {
      head.assign(static_cast<size_t>(range) + 1, kNone);
    } else {
      head_map.reserve(nonnull);
    }
    for (size_t c = bcols.size(); c-- > 0;) {
      const KeyCol& kc = bcols[c];
      for (size_t i = kc.len; i-- > 0;) {
        if (kc.nulls != nullptr && kc.nulls[i] != 0) continue;
        const uint32_t row = kc.base + static_cast<uint32_t>(i);
        bref[row] = RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)};
        if (dense) {
          uint32_t& h = head[static_cast<size_t>(
              static_cast<uint64_t>(kc.vals[i]) -
              static_cast<uint64_t>(kmin))];
          next[row] = h;
          h = row;
        } else {
          uint32_t& h = head_map.try_emplace(kc.vals[i], kNone).first->second;
          next[row] = h;
          h = row;
        }
      }
    }
    for (size_t c = 0; c < pcols.size(); ++c) {
      const KeyCol& kc = pcols[c];
      for (size_t i = 0; i < kc.len; ++i) {
        if (kc.nulls != nullptr && kc.nulls[i] != 0) continue;
        const int64_t k = kc.vals[i];
        uint32_t h = kNone;
        if (dense) {
          if (k >= kmin && k <= kmax) {
            h = head[static_cast<size_t>(static_cast<uint64_t>(k) -
                                         static_cast<uint64_t>(kmin))];
          }
        } else {
          auto it = head_map.find(k);
          if (it != head_map.end()) h = it->second;
        }
        for (uint32_t b = h; b != kNone; b = next[b]) {
          bsel.push_back(bref[b]);
          psel.push_back(
              RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
          if (bsel.size() == batch) FEDCAL_RETURN_NOT_OK(flush());
        }
      }
    }
  } else {
    // Generic path: composite or non-int64 keys hash as row-engine Rows.
    std::unordered_map<RowKey, std::vector<RowRef>, RowKeyHash> table;
    table.reserve(build->num_rows());
    for (size_t c = 0; c < build->chunks().size(); ++c) {
      const ColumnChunk& chunk = build->chunks()[c];
      for (size_t i = 0; i < chunk.length; ++i) {
        Row key;
        key.reserve(node.left_keys.size());
        bool has_null = false;
        for (size_t s : node.left_keys) {
          Value v = chunk.ValueAt(s, i);
          has_null |= v.is_null();
          key.push_back(std::move(v));
        }
        // NULL join keys never match; skip them at build time.
        if (has_null) continue;
        table[RowKey(std::move(key))].push_back(
            RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
      }
    }
    for (size_t c = 0; c < probe->chunks().size(); ++c) {
      const ColumnChunk& chunk = probe->chunks()[c];
      for (size_t i = 0; i < chunk.length; ++i) {
        Row key;
        key.reserve(node.right_keys.size());
        bool has_null = false;
        for (size_t s : node.right_keys) {
          Value v = chunk.ValueAt(s, i);
          has_null |= v.is_null();
          key.push_back(std::move(v));
        }
        if (has_null) continue;
        auto it = table.find(RowKey(std::move(key)));
        if (it == table.end()) continue;
        for (const RowRef& b : it->second) {
          bsel.push_back(b);
          psel.push_back(
              RowRef{static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
          if (bsel.size() == batch) FEDCAL_RETURN_NOT_OK(flush());
        }
      }
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
  SlotMask child(node.left->output_schema.num_columns(), false);
  for (const BoundExprPtr& g : node.group_by) AddSlots(g, &child);
  for (const AggItem& a : node.aggs) AddSlots(a.arg, &child);
  FEDCAL_ASSIGN_OR_RETURN(ColumnarTablePtr in,
                          ExecNode(*node.left, child, stats, prof));

  stats->work_units +=
      config_.costs.agg_update_row * static_cast<double>(in->num_rows());

  // Evaluate group keys and aggregate arguments for every chunk up front
  // (same expression order as the per-chunk loop, so the first evaluation
  // error is unchanged). The pre-pass also decides whether a typed
  // single-key path applies: every chunk's key must be a pure int64 (or
  // pure string) column, so Value identity reduces to int64 (string)
  // identity and the per-row Row/RowKey materialization disappears.
  struct ChunkVals {
    size_t length = 0;
    std::vector<VectorResult> group_vals;
    std::vector<VectorResult> agg_vals;
  };
  std::vector<ChunkVals> evaluated;
  evaluated.reserve(in->chunks().size());
  bool int64_keys = node.group_by.size() == 1;
  bool string_keys = node.group_by.size() == 1;
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
    if (node.group_by.size() == 1) {
      const VectorResult& gv = cv.group_vals[0];
      int64_keys = int64_keys && !gv.constant &&
                   gv.col->kind() == ColumnData::Kind::kInt64;
      string_keys = string_keys && !gv.constant &&
                    gv.col->kind() == ColumnData::Kind::kString;
    }
    evaluated.push_back(std::move(cv));
  }

  // Groups in first-seen order, matching the row engine: their keys, and
  // node.aggs.size() accumulators per group, group-major.
  const size_t naggs = node.aggs.size();
  std::vector<Row> keys;
  std::vector<AggState> states;
  auto add_group = [&](Row key) {
    keys.push_back(std::move(key));
    states.resize(states.size() + naggs);
    return keys.size() - 1;
  };
  std::unordered_map<RowKey, size_t, RowKeyHash> group_index;
  std::unordered_map<int64_t, size_t> int_index;
  // Views into the key columns' dictionaries, which `evaluated` keeps
  // alive.
  std::unordered_map<std::string_view, size_t> str_index;
  // String keys resolve through one array per dictionary, indexed by code:
  // each (dictionary, code) pair hashes its string into `str_index` once,
  // the first time a row carries it, so group ids keep first-seen order
  // and a string coded in two dictionaries still names one group.
  constexpr size_t kNoGroup = SIZE_MAX;
  std::vector<std::pair<const StringDict*, std::vector<size_t>>> dict_groups;
  // NULL group keys form a regular group in the row engine (Compare treats
  // null == null); the typed maps can't hold them, so they get a dedicated
  // slot that still respects first-seen ordering.
  size_t null_group = kNoGroup;
  std::vector<size_t> gids;
  for (const ChunkVals& cv : evaluated) {
    const size_t n = cv.length;
    gids.resize(n);
    if (int64_keys || string_keys) {
      const VectorResult& gv = cv.group_vals[0];
      const uint8_t* key_nulls =
          gv.col->has_nulls() ? gv.col->nulls() + gv.offset : nullptr;
      const StringDict* dict = string_keys ? &gv.col->dict() : nullptr;
      size_t* lut = nullptr;
      if (dict != nullptr) {
        auto it = std::find_if(dict_groups.begin(), dict_groups.end(),
                               [&](const auto& e) { return e.first == dict; });
        if (it == dict_groups.end()) {
          dict_groups.emplace_back(dict,
                                   std::vector<size_t>(dict->size(), kNoGroup));
          it = dict_groups.end() - 1;
        }
        lut = it->second.data();
      }
      for (size_t i = 0; i < n; ++i) {
        if (key_nulls != nullptr && key_nulls[i] != 0) {
          if (null_group == kNoGroup) null_group = add_group(Row{Value()});
          gids[i] = null_group;
        } else if (int64_keys) {
          const int64_t k = gv.col->ints()[gv.offset + i];
          auto [it, inserted] = int_index.try_emplace(k, keys.size());
          if (inserted) add_group(Row{Value(k)});
          gids[i] = it->second;
        } else {
          const uint32_t code = gv.col->codes()[gv.offset + i];
          size_t& g = lut[code];
          if (g == kNoGroup) {
            const std::string_view k = dict->at(code);
            auto [it, inserted] = str_index.try_emplace(k, keys.size());
            if (inserted) add_group(Row{Value(std::string(k))});
            g = it->second;
          }
          gids[i] = g;
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        Row key;
        key.reserve(cv.group_vals.size());
        for (const VectorResult& gv : cv.group_vals) key.push_back(gv.At(i));
        RowKey rk(key);
        auto [it, inserted] = group_index.emplace(std::move(rk), keys.size());
        if (inserted) add_group(std::move(key));
        gids[i] = it->second;
      }
    }
    // Each (group, aggregate) accumulator sees its rows in input order,
    // so updating one aggregate at a time matches the row engine's
    // row-at-a-time sequence exactly.
    for (size_t a = 0; a < naggs; ++a) {
      UpdateAggregate(node.aggs[a], cv.agg_vals[a], gids.data(), n,
                      states.data() + a, naggs);
    }
  }

  auto out = std::make_shared<ColumnarTable>(node.output_schema);
  const size_t ncols = node.output_schema.num_columns();
  const size_t nkeys = node.group_by.size();
  // Global aggregation over empty input still yields one row.
  if (keys.empty() && node.group_by.empty()) {
    add_group(Row{});
    stats->work_units += config_.costs.agg_group;
  } else {
    stats->work_units +=
        config_.costs.agg_group * static_cast<double>(keys.size());
  }
  const size_t batch = config_.batch_rows == 0 ? 1 : config_.batch_rows;
  for (size_t start = 0; start < keys.size(); start += batch) {
    const size_t len = std::min(batch, keys.size() - start);
    ColumnChunk chunk;
    chunk.length = len;
    chunk.columns.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      auto col =
          std::make_shared<ColumnData>(node.output_schema.column(c).type);
      col->Reserve(len);
      for (size_t g = start; g < start + len; ++g) {
        if (c < nkeys) {
          col->AppendValue(keys[g][c]);
        } else {
          col->AppendValue(states[g * naggs + (c - nkeys)].Finalize(
              node.aggs[c - nkeys]));
        }
      }
      chunk.columns.push_back(ColumnSlice{std::move(col), 0});
    }
    out->AppendChunk(std::move(chunk));
  }
  return ColumnarTablePtr(std::move(out));
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
