#include "sql/binder.h"

#include <unordered_map>

#include "common/macros.h"
#include "common/string_util.h"

namespace fedcal {

namespace {

/// Why `op` cannot take operands of types `l` and `r`, or "" when it can:
/// comparisons take two numbers or two strings, LIKE two strings,
/// arithmetic two numbers, AND and OR anything.
const char* BinaryTypeError(BinaryOp op, DataType l, DataType r) {
  const bool ls = l == DataType::kString;
  const bool rs = r == DataType::kString;
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) return "";
  if (op == BinaryOp::kLike) {
    return ls && rs ? "" : "LIKE requires string operands";
  }
  if (IsComparison(op)) {
    return ls == rs ? "" : "cannot compare string with numeric";
  }
  return !ls && !rs ? "" : "arithmetic requires numeric operands";
}

/// `e`'s operator over bound operands, or a bind error naming `e` when
/// their types do not fit it.
Result<BoundExprPtr> BindBinary(const ParseExprPtr& e, BoundExprPtr l,
                                BoundExprPtr r) {
  const std::string error = BinaryTypeError(e->bop, l->type(), r->type());
  if (!error.empty()) return Status::BindError(error + " in " + e->ToString());
  return BoundExpr::Binary(e->bop, std::move(l), std::move(r));
}

/// Negation takes a number; NOT and IS [NOT] NULL take anything.
Result<BoundExprPtr> BindUnary(const ParseExprPtr& e, BoundExprPtr o) {
  if (e->uop == UnaryOp::kNeg && o->type() == DataType::kString) {
    return Status::BindError("negation requires a numeric operand in " +
                             e->ToString());
  }
  return BoundExpr::Unary(e->uop, std::move(o));
}

/// Column-resolution scope over the flattened FROM-row.
class Scope {
 public:
  explicit Scope(const std::vector<TableBinding>& tables) {
    for (const auto& t : tables) {
      for (size_t c = 0; c < t.schema.num_columns(); ++c) {
        const auto& col = t.schema.column(c);
        Slot slot{t.slot_offset + c, col.type,
                  t.alias + "." + col.name};
        by_qualified_[t.alias + "." + col.name] = slot;
        by_name_[col.name].push_back(slot);
      }
    }
  }

  struct Slot {
    size_t index;
    DataType type;
    std::string qualified_name;
  };

  Result<Slot> Resolve(const std::string& table,
                       const std::string& column) const {
    if (!table.empty()) {
      auto it = by_qualified_.find(table + "." + column);
      if (it == by_qualified_.end()) {
        return Status::BindError("unknown column " + table + "." + column);
      }
      return it->second;
    }
    auto it = by_name_.find(column);
    if (it == by_name_.end()) {
      return Status::BindError("unknown column " + column);
    }
    if (it->second.size() > 1) {
      return Status::BindError("ambiguous column " + column);
    }
    return it->second.front();
  }

 private:
  std::unordered_map<std::string, Slot> by_qualified_;
  std::unordered_map<std::string, std::vector<Slot>> by_name_;
};

/// Binds scalar (non-aggregate) expressions against a scope.
Result<BoundExprPtr> BindScalar(const ParseExprPtr& e, const Scope& scope) {
  switch (e->kind) {
    case ParseExpr::Kind::kLiteral:
      return BoundExpr::Literal(e->literal, e->param_index);
    case ParseExpr::Kind::kColumnRef: {
      FEDCAL_ASSIGN_OR_RETURN(Scope::Slot slot,
                              scope.Resolve(e->table, e->column));
      return BoundExpr::Column(slot.index, slot.qualified_name, slot.type);
    }
    case ParseExpr::Kind::kBinary: {
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr l, BindScalar(e->left, scope));
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr r, BindScalar(e->right, scope));
      return BindBinary(e, std::move(l), std::move(r));
    }
    case ParseExpr::Kind::kUnary: {
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr o, BindScalar(e->left, scope));
      return BindUnary(e, std::move(o));
    }
    case ParseExpr::Kind::kAggCall:
      return Status::BindError("aggregate not allowed here: " + e->ToString());
  }
  return Status::Internal("unhandled parse expr kind");
}

/// Context for binding expressions over the post-aggregation row
/// [group values..., agg results...].
class AggBinder {
 public:
  AggBinder(const Scope& scope, const std::vector<ParseExprPtr>& group_by,
            std::vector<BoundAggSpec>* aggs)
      : scope_(scope), aggs_(aggs) {
    for (size_t i = 0; i < group_by.size(); ++i) {
      group_keys_.emplace_back(group_by[i]->ToString(), i);
    }
  }

  /// Binds an expression over the post-agg row, registering aggregate
  /// calls in `aggs_` (deduplicated) as needed.
  Result<BoundExprPtr> Bind(const ParseExprPtr& e) {
    // A subtree structurally equal to a GROUP BY expression becomes a
    // reference to that group column.
    const std::string key = e->ToString();
    for (const auto& [gkey, gidx] : group_keys_) {
      if (gkey == key) {
        FEDCAL_ASSIGN_OR_RETURN(DataType t, GroupType(gidx));
        return BoundExpr::Column(gidx, key, t);
      }
    }
    switch (e->kind) {
      case ParseExpr::Kind::kLiteral:
        return BoundExpr::Literal(e->literal, e->param_index);
      case ParseExpr::Kind::kColumnRef:
        return Status::BindError(
            "column " + key +
            " must appear in GROUP BY or inside an aggregate");
      case ParseExpr::Kind::kBinary: {
        FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr l, Bind(e->left));
        FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr r, Bind(e->right));
        return BindBinary(e, std::move(l), std::move(r));
      }
      case ParseExpr::Kind::kUnary: {
        FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr o, Bind(e->left));
        return BindUnary(e, std::move(o));
      }
      case ParseExpr::Kind::kAggCall: {
        FEDCAL_ASSIGN_OR_RETURN(size_t agg_index, RegisterAgg(e));
        const auto& spec = (*aggs_)[agg_index];
        return BoundExpr::Column(group_keys_.size() + agg_index,
                                 spec.display_name, spec.result_type);
      }
    }
    return Status::Internal("unhandled parse expr kind");
  }

  /// Binds and remembers group-by expressions (must be called first, in
  /// order, with the statement's GROUP BY list).
  Status BindGroupBy(const std::vector<ParseExprPtr>& group_by,
                     std::vector<BoundExprPtr>* out) {
    for (const auto& g : group_by) {
      if (g->ContainsAggregate()) {
        return Status::BindError("aggregate in GROUP BY: " + g->ToString());
      }
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr b, BindScalar(g, scope_));
      group_types_.push_back(b->type());
      out->push_back(std::move(b));
    }
    return Status::OK();
  }

 private:
  Result<DataType> GroupType(size_t i) const {
    if (i >= group_types_.size()) {
      return Status::Internal("group-by types not yet bound");
    }
    return group_types_[i];
  }

  Result<size_t> RegisterAgg(const ParseExprPtr& e) {
    BoundAggSpec spec;
    spec.func = e->agg;
    spec.count_star = e->count_star;
    spec.display_name = e->ToString();
    spec.dedup_key = spec.display_name;
    for (size_t i = 0; i < aggs_->size(); ++i) {
      if ((*aggs_)[i].dedup_key == spec.dedup_key) return i;
    }
    if (!spec.count_star) {
      if (e->agg_arg->ContainsAggregate()) {
        return Status::BindError("nested aggregate: " + e->ToString());
      }
      FEDCAL_ASSIGN_OR_RETURN(spec.arg, BindScalar(e->agg_arg, scope_));
    }
    const DataType arg_type =
        spec.count_star ? DataType::kInt64 : spec.arg->type();
    switch (spec.func) {
      case AggFunc::kCount:
        spec.result_type = DataType::kInt64;
        break;
      case AggFunc::kAvg:
        spec.result_type = DataType::kDouble;
        break;
      case AggFunc::kSum:
      case AggFunc::kMin:
      case AggFunc::kMax:
        spec.result_type = arg_type;
        break;
    }
    if (spec.func == AggFunc::kSum || spec.func == AggFunc::kAvg) {
      if (arg_type == DataType::kString) {
        return Status::BindError("SUM/AVG over string column in " +
                                 spec.display_name);
      }
    }
    aggs_->push_back(std::move(spec));
    return aggs_->size() - 1;
  }

  const Scope& scope_;
  std::vector<BoundAggSpec>* aggs_;
  std::vector<std::pair<std::string, size_t>> group_keys_;
  std::vector<DataType> group_types_;
};

std::string OutputName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ParseExpr::Kind::kColumnRef) {
    return item.expr->column;
  }
  if (item.expr->kind == ParseExpr::Kind::kAggCall) {
    return item.expr->ToString();
  }
  return StringFormat("expr%zu", index);
}

}  // namespace

Schema BoundQuery::PostAggSchema() const {
  Schema s;
  for (size_t i = 0; i < group_by.size(); ++i) {
    s.AddColumn({StringFormat("group%zu", i), group_by[i]->type()});
  }
  for (const auto& a : aggs) {
    s.AddColumn({a.display_name, a.result_type});
  }
  return s;
}

Result<BoundQuery> BindQuery(const SelectStmt& stmt,
                             const std::vector<Schema>& table_schemas) {
  if (stmt.from.empty()) {
    return Status::BindError("query has no FROM clause");
  }
  if (table_schemas.size() != stmt.from.size()) {
    return Status::BindError(StringFormat(
        "expected %zu table schemas, got %zu", stmt.from.size(),
        table_schemas.size()));
  }

  BoundQuery bq;
  bq.distinct = stmt.distinct;
  bq.limit = stmt.limit;

  // Lay out FROM tables left-to-right in the flattened row.
  size_t offset = 0;
  std::unordered_map<std::string, int> alias_count;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    TableBinding tb;
    tb.alias = stmt.from[i].effective_alias();
    tb.table_name = stmt.from[i].table;
    tb.schema = table_schemas[i];
    tb.slot_offset = offset;
    if (++alias_count[tb.alias] > 1) {
      return Status::BindError("duplicate table alias " + tb.alias);
    }
    offset += tb.schema.num_columns();
    bq.tables.push_back(std::move(tb));
  }
  for (const auto& t : bq.tables) {
    for (const auto& c : t.schema.columns()) {
      bq.input_schema.AddColumn({t.alias + "." + c.name, c.type});
    }
  }

  Scope scope(bq.tables);

  if (stmt.where) {
    if (stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregate in WHERE clause");
    }
    FEDCAL_ASSIGN_OR_RETURN(bq.where, BindScalar(stmt.where, scope));
  }

  bool any_agg = !stmt.group_by.empty() || stmt.having != nullptr;
  for (const auto& item : stmt.items) {
    if (!item.is_star && item.expr->ContainsAggregate()) any_agg = true;
  }
  bq.has_aggregate = any_agg;

  if (!bq.has_aggregate) {
    // Plain query: outputs over the input row.
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      if (item.is_star) {
        for (size_t c = 0; c < bq.input_schema.num_columns(); ++c) {
          const auto& col = bq.input_schema.column(c);
          bq.outputs.push_back(BoundExpr::Column(c, col.name, col.type));
          bq.output_schema.AddColumn(col);
        }
        continue;
      }
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr b, BindScalar(item.expr, scope));
      bq.output_schema.AddColumn({OutputName(item, i), b->type()});
      bq.outputs.push_back(std::move(b));
    }
  } else {
    AggBinder agg_binder(scope, stmt.group_by, &bq.aggs);
    FEDCAL_RETURN_NOT_OK(agg_binder.BindGroupBy(stmt.group_by, &bq.group_by));
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      const auto& item = stmt.items[i];
      if (item.is_star) {
        return Status::BindError("SELECT * not allowed with aggregation");
      }
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr b, agg_binder.Bind(item.expr));
      bq.output_schema.AddColumn({OutputName(item, i), b->type()});
      bq.outputs.push_back(std::move(b));
    }
    if (stmt.having) {
      FEDCAL_ASSIGN_OR_RETURN(bq.having, agg_binder.Bind(stmt.having));
    }
  }

  // ORDER BY binds against the output schema (by alias / output name), so
  // it can run after the final projection.
  for (const auto& o : stmt.order_by) {
    if (o.expr->kind == ParseExpr::Kind::kColumnRef && o.expr->table.empty()) {
      auto idx = bq.output_schema.IndexOf(o.expr->column);
      if (idx.has_value()) {
        const auto& col = bq.output_schema.column(*idx);
        bq.order_by.emplace_back(
            BoundExpr::Column(*idx, col.name, col.type), o.descending);
        continue;
      }
    }
    // Fallback: structural match against a SELECT item.
    const std::string key = o.expr->ToString();
    bool matched = false;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      if (!stmt.items[i].is_star && stmt.items[i].expr->ToString() == key) {
        const auto& col = bq.output_schema.column(i);
        bq.order_by.emplace_back(BoundExpr::Column(i, col.name, col.type),
                                 o.descending);
        matched = true;
        break;
      }
    }
    if (!matched) {
      return Status::BindError(
          "ORDER BY expression must name an output column: " + key);
    }
  }

  return bq;
}

}  // namespace fedcal
