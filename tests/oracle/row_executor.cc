#include "tests/oracle/row_executor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "common/macros.h"
#include "common/string_util.h"
#include "engine/exec_common.h"

namespace fedcal::oracle {

void RowTable::Append(Row row) {
  for (const Value& v : row) bytes += v.ByteSize();
  rows.push_back(std::move(row));
}

RowTablePtr RowView(const TablePtr& table) {
  auto view = std::make_shared<RowTable>(table->schema());
  view->rows = table->rows();
  for (const Row& row : view->rows) {
    for (const Value& v : row) view->bytes += v.ByteSize();
  }
  view->source = table;
  return view;
}

std::string FirstDifference(const RowTable& oracle, const Table& table) {
  if (oracle.num_rows() != table.num_rows()) {
    return StringFormat("%zu rows, oracle %zu", table.num_rows(),
                        oracle.num_rows());
  }
  if (oracle.schema.num_columns() != table.schema().num_columns()) {
    return StringFormat("%zu columns, oracle %zu",
                        table.schema().num_columns(),
                        oracle.schema.num_columns());
  }
  if (oracle.bytes != table.byte_size()) {
    return StringFormat("%zu bytes, oracle %zu", table.byte_size(),
                        oracle.bytes);
  }
  for (size_t c = 0; c < oracle.schema.num_columns(); ++c) {
    if (oracle.schema.column(c).type != table.schema().column(c).type) {
      return StringFormat("column %zu is %s, oracle %s", c,
                          DataTypeName(table.schema().column(c).type),
                          DataTypeName(oracle.schema.column(c).type));
    }
  }
  const ColumnarTable& data = *table.columnar();
  for (size_t k = 0; k < data.chunks().size(); ++k) {
    if (!data.Typed(data.chunks()[k])) {
      return StringFormat("chunk %zu holds a column not of its type", k);
    }
  }
  const std::vector<Row> rows = table.rows();
  for (size_t r = 0; r < rows.size(); ++r) {
    const Row& a = oracle.rows[r];
    const Row& b = rows[r];
    if (a.size() != b.size()) {
      return StringFormat("row %zu has %zu cells, oracle %zu", r, b.size(),
                          a.size());
    }
    for (size_t c = 0; c < a.size(); ++c) {
      const bool same = a[c].is_null() == b[c].is_null() &&
                        a[c].is_int64() == b[c].is_int64() &&
                        a[c].is_double() == b[c].is_double() && a[c] == b[c];
      if (!same) {
        return StringFormat("cell %zu,%zu is %s, oracle %s", r, c,
                            b[c].ToString().c_str(),
                            a[c].ToString().c_str());
      }
    }
  }
  return "";
}

RowExecutor::TableResolver RowExecutor::Caching(
    std::function<Result<TablePtr>(const std::string&)> resolve) {
  auto views = std::make_shared<std::map<std::string, RowTablePtr>>();
  return [resolve = std::move(resolve),
          views](const std::string& name) -> Result<RowTablePtr> {
    auto it = views->find(name);
    if (it != views->end()) return it->second;
    FEDCAL_ASSIGN_OR_RETURN(TablePtr table, resolve(name));
    RowTablePtr view = RowView(table);
    (*views)[name] = view;
    return view;
  };
}

Status RowExecutor::CheckSize(size_t rows) const {
  if (config_.max_intermediate_rows > 0 &&
      rows > config_.max_intermediate_rows) {
    return Status::ExecutionError(StringFormat(
        "intermediate result exceeds limit (%zu > %zu rows)", rows,
        config_.max_intermediate_rows));
  }
  return Status::OK();
}

Result<RowTablePtr> RowExecutor::Execute(
    const PlanNodePtr& plan, ExecStats* stats,
    std::shared_ptr<obs::OperatorProfile>* profile_out) const {
  if (profile_out != nullptr) profile_out->reset();
  if (!plan) return Status::InvalidArgument("null plan");
  const bool profiling = config_.profile && profile_out != nullptr;
  ExecStats local;
  obs::OperatorProfile root;
  FEDCAL_ASSIGN_OR_RETURN(
      RowTablePtr result,
      ExecuteNode(*plan, &local, profiling ? &root : nullptr));
  local.rows_output = result->num_rows();
  local.bytes_output = result->bytes;
  if (stats) stats->Merge(local);
  if (profiling && !root.children.empty()) {
    *profile_out = root.children.front();
  }
  return result;
}

Result<RowTablePtr> RowExecutor::ExecuteNode(
    const PlanNode& node, ExecStats* stats,
    obs::OperatorProfile* parent) const {
  ++stats->operators_executed;
  if (parent == nullptr) return DispatchNode(node, stats, nullptr);
  OperatorProfileScope scope(node, *stats);
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr result,
                          DispatchNode(node, stats, scope.prof()));
  // The row engine materializes each operator's output in one batch.
  scope.Finish(*stats, result->num_rows(), /*batches=*/1, /*arena_bytes=*/0,
               parent);
  return result;
}

Result<RowTablePtr> RowExecutor::DispatchNode(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) const {
  switch (node.kind) {
    case PlanKind::kScan:
      return ExecScan(node, stats);
    case PlanKind::kIndexScan:
      return ExecIndexScan(node, stats);
    case PlanKind::kFilter:
      return ExecFilter(node, stats, prof);
    case PlanKind::kProject:
      return ExecProject(node, stats, prof);
    case PlanKind::kHashJoin:
      return ExecHashJoin(node, stats, prof);
    case PlanKind::kNestedLoopJoin:
      return ExecNestedLoopJoin(node, stats, prof);
    case PlanKind::kAggregate:
      return ExecAggregate(node, stats, prof);
    case PlanKind::kSort:
      return ExecSort(node, stats, prof);
    case PlanKind::kDistinct:
      return ExecDistinct(node, stats, prof);
    case PlanKind::kLimit:
      return ExecLimit(node, stats, prof);
  }
  return Status::Internal("unhandled plan kind");
}

Result<RowTablePtr> RowExecutor::ExecScan(const PlanNode& node,
                                          ExecStats* stats) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr table, resolver_(node.table_name));
  stats->rows_scanned += table->num_rows();
  // The whole scan charge (row touch + bytes read) is I/O work.
  const double io = config_.costs.scan_row * table->num_rows() +
                    config_.costs.scan_byte * table->bytes;
  stats->work_units += io;
  stats->io_units += io;
  return table;
}

Result<RowTablePtr> RowExecutor::ExecIndexScan(const PlanNode& node,
                                               ExecStats* stats) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr table, resolver_(node.table_name));
  const HashIndex* index = table->source != nullptr
                               ? table->source->GetIndex(node.index_column)
                               : nullptr;
  if (index == nullptr) {
    return Status::ExecutionError("table " + node.table_name +
                                  " has no index on " + node.index_column);
  }
  Row empty;
  FEDCAL_ASSIGN_OR_RETURN(Value key, node.index_value->Eval(empty));
  auto out = std::make_shared<RowTable>(node.output_schema);
  double io = config_.costs.index_probe;
  for (size_t row_id : index->Probe(key)) {
    if (row_id >= table->num_rows()) continue;
    const Row& row = table->rows[row_id];
    // Verify exact equality (the index probe is hash-based).
    if (row[index->column_index()].is_null() ||
        row[index->column_index()].Compare(key) != 0) {
      continue;
    }
    io += config_.costs.index_match_row;
    out->Append(row);
  }
  stats->rows_scanned += out->num_rows();
  stats->work_units += io;
  stats->io_units += io;
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecFilter(const PlanNode& node,
                                            ExecStats* stats,
                                            obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr in,
                          ExecuteNode(*node.left, stats, prof));
  auto out = std::make_shared<RowTable>(node.output_schema);
  stats->work_units +=
      config_.costs.filter_row * static_cast<double>(in->num_rows());
  for (const Row& row : in->rows) {
    FEDCAL_ASSIGN_OR_RETURN(Value v, node.predicate->Eval(row));
    if (IsTruthy(v)) out->Append(row);
  }
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecProject(const PlanNode& node,
                                             ExecStats* stats,
                                             obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr in,
                          ExecuteNode(*node.left, stats, prof));
  auto out = std::make_shared<RowTable>(node.output_schema);
  out->rows.reserve(in->num_rows());
  stats->work_units += config_.costs.project_expr *
                       static_cast<double>(in->num_rows()) *
                       static_cast<double>(node.projections.size());
  for (const Row& row : in->rows) {
    Row projected;
    projected.reserve(node.projections.size());
    for (const auto& e : node.projections) {
      FEDCAL_ASSIGN_OR_RETURN(Value v, e->Eval(row));
      projected.push_back(std::move(v));
    }
    out->Append(std::move(projected));
  }
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecHashJoin(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr build,
                          ExecuteNode(*node.left, stats, prof));
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr probe,
                          ExecuteNode(*node.right, stats, prof));

  auto extract_keys = [](const Row& row, const std::vector<size_t>& slots) {
    Row key;
    key.reserve(slots.size());
    for (size_t s : slots) key.push_back(row[s]);
    return key;
  };

  // Build-side rows group under their key in ascending row order, so a
  // probe row with several matches emits them deterministically (the
  // columnar engine reproduces the same order; unordered_multimap's
  // equal_range order is implementation-defined).
  std::unordered_map<RowKey, std::vector<size_t>, RowKeyHash> table;
  table.reserve(build->num_rows());
  for (size_t i = 0; i < build->num_rows(); ++i) {
    Row key = extract_keys(build->rows[i], node.left_keys);
    // NULL join keys never match; skip them at build time.
    bool has_null = false;
    for (const Value& v : key) has_null |= v.is_null();
    if (has_null) continue;
    table[RowKey(std::move(key))].push_back(i);
  }
  stats->work_units +=
      config_.costs.hash_build_row * static_cast<double>(build->num_rows());

  auto out = std::make_shared<RowTable>(node.output_schema);
  stats->work_units +=
      config_.costs.hash_probe_row * static_cast<double>(probe->num_rows());
  for (const Row& probe_row : probe->rows) {
    Row key = extract_keys(probe_row, node.right_keys);
    bool has_null = false;
    for (const Value& v : key) has_null |= v.is_null();
    if (has_null) continue;
    auto it = table.find(RowKey(std::move(key)));
    if (it == table.end()) continue;
    for (size_t build_idx : it->second) {
      const Row& build_row = build->rows[build_idx];
      Row joined;
      joined.reserve(build_row.size() + probe_row.size());
      joined.insert(joined.end(), build_row.begin(), build_row.end());
      joined.insert(joined.end(), probe_row.begin(), probe_row.end());
      if (node.residual) {
        FEDCAL_ASSIGN_OR_RETURN(Value v, node.residual->Eval(joined));
        if (!IsTruthy(v)) continue;
      }
      stats->work_units += config_.costs.join_output_row;
      out->Append(std::move(joined));
      FEDCAL_RETURN_NOT_OK(CheckSize(out->num_rows()));
    }
  }
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecNestedLoopJoin(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr left,
                          ExecuteNode(*node.left, stats, prof));
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr right,
                          ExecuteNode(*node.right, stats, prof));
  auto out = std::make_shared<RowTable>(node.output_schema);
  stats->work_units += config_.costs.nlj_pair *
                       static_cast<double>(left->num_rows()) *
                       static_cast<double>(right->num_rows());
  for (const Row& l : left->rows) {
    for (const Row& r : right->rows) {
      Row joined;
      joined.reserve(l.size() + r.size());
      joined.insert(joined.end(), l.begin(), l.end());
      joined.insert(joined.end(), r.begin(), r.end());
      if (node.predicate) {
        FEDCAL_ASSIGN_OR_RETURN(Value v, node.predicate->Eval(joined));
        if (!IsTruthy(v)) continue;
      }
      stats->work_units += config_.costs.join_output_row;
      out->Append(std::move(joined));
      FEDCAL_RETURN_NOT_OK(CheckSize(out->num_rows()));
    }
  }
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecAggregate(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr in,
                          ExecuteNode(*node.left, stats, prof));

  struct Group {
    Row key;
    std::vector<AggState> states;
  };
  // Groups emit in first-seen order (deterministic and engine-invariant,
  // unlike unordered_map iteration order).
  std::vector<Group> groups;
  std::unordered_map<RowKey, size_t, RowKeyHash> group_index;

  stats->work_units +=
      config_.costs.agg_update_row * static_cast<double>(in->num_rows());
  for (const Row& row : in->rows) {
    Row key;
    key.reserve(node.group_by.size());
    for (const auto& g : node.group_by) {
      FEDCAL_ASSIGN_OR_RETURN(Value v, g->Eval(row));
      key.push_back(std::move(v));
    }
    RowKey rk(key);
    auto [it, inserted] = group_index.emplace(std::move(rk), groups.size());
    if (inserted) {
      Group grp;
      grp.key = std::move(key);
      grp.states.resize(node.aggs.size());
      groups.push_back(std::move(grp));
    }
    Group& grp = groups[it->second];
    for (size_t a = 0; a < node.aggs.size(); ++a) {
      const AggItem& item = node.aggs[a];
      if (item.count_star) {
        grp.states[a].Update(item, Value());
      } else {
        FEDCAL_ASSIGN_OR_RETURN(Value v, item.arg->Eval(row));
        grp.states[a].Update(item, v);
      }
    }
  }

  auto out = std::make_shared<RowTable>(node.output_schema);
  // Global aggregation over empty input still yields one row.
  if (groups.empty() && node.group_by.empty()) {
    Row row;
    for (const AggItem& item : node.aggs) {
      row.push_back(AggState().Finalize(item));
    }
    out->Append(std::move(row));
    stats->work_units += config_.costs.agg_group;
    return RowTablePtr(std::move(out));
  }
  stats->work_units +=
      config_.costs.agg_group * static_cast<double>(groups.size());
  out->rows.reserve(groups.size());
  for (Group& grp : groups) {
    Row row = std::move(grp.key);
    for (size_t a = 0; a < node.aggs.size(); ++a) {
      row.push_back(grp.states[a].Finalize(node.aggs[a]));
    }
    out->Append(std::move(row));
  }
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecSort(const PlanNode& node,
                                          ExecStats* stats,
                                          obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr in,
                          ExecuteNode(*node.left, stats, prof));
  const size_t n = in->num_rows();
  stats->work_units +=
      config_.costs.sort_row_log * static_cast<double>(n) * Log2Rows(n);

  // Precompute sort keys per row, then stable-sort indices.
  std::vector<Row> keys;
  keys.reserve(n);
  for (const Row& row : in->rows) {
    Row key;
    key.reserve(node.sort_keys.size());
    for (const auto& [e, desc] : node.sort_keys) {
      FEDCAL_ASSIGN_OR_RETURN(Value v, e->Eval(row));
      Unused(desc);
      key.push_back(std::move(v));
    }
    keys.push_back(std::move(key));
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

  auto out = std::make_shared<RowTable>(node.output_schema);
  out->rows.reserve(n);
  for (size_t i : order) out->Append(in->rows[i]);
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecDistinct(
    const PlanNode& node, ExecStats* stats, obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr in,
                          ExecuteNode(*node.left, stats, prof));
  stats->work_units +=
      config_.costs.distinct_row * static_cast<double>(in->num_rows());
  std::unordered_map<RowKey, bool, RowKeyHash> seen;
  seen.reserve(in->num_rows());
  auto out = std::make_shared<RowTable>(node.output_schema);
  for (const Row& row : in->rows) {
    RowKey rk(row);
    if (seen.emplace(std::move(rk), true).second) {
      out->Append(row);
    }
  }
  return RowTablePtr(std::move(out));
}

Result<RowTablePtr> RowExecutor::ExecLimit(const PlanNode& node,
                                           ExecStats* stats,
                                           obs::OperatorProfile* prof) const {
  FEDCAL_ASSIGN_OR_RETURN(RowTablePtr in,
                          ExecuteNode(*node.left, stats, prof));
  auto out = std::make_shared<RowTable>(node.output_schema);
  const size_t n = std::min<size_t>(
      in->num_rows(),
      node.limit < 0 ? 0 : static_cast<size_t>(node.limit));
  out->rows.reserve(n);
  for (size_t i = 0; i < n; ++i) out->Append(in->rows[i]);
  return RowTablePtr(std::move(out));
}

}  // namespace fedcal::oracle
