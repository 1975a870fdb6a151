#include "engine/plan.h"

#include "common/string_util.h"

namespace fedcal {

const char* PlanKindName(PlanKind k) {
  switch (k) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kIndexScan:
      return "IndexScan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kHashJoin:
      return "HashJoin";
    case PlanKind::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kDistinct:
      return "Distinct";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

std::string PlanNode::Describe() const {
  std::string s = PlanKindName(kind);
  switch (kind) {
    case PlanKind::kScan:
      s += "(";
      s += table_name;
      s += ")";
      break;
    case PlanKind::kIndexScan:
      s += "(";
      s += table_name;
      s += ".";
      s += index_column;
      s += " = ";
      s += index_value ? index_value->ToString() : "?";
      s += ")";
      break;
    case PlanKind::kFilter:
      s += "(";
      s += predicate ? predicate->ToString() : "true";
      s += ")";
      break;
    case PlanKind::kProject: {
      std::vector<std::string> parts;
      for (const auto& p : projections) parts.push_back(p->ToString());
      s += "(";
      s += Join(parts, ", ");
      s += ")";
      break;
    }
    case PlanKind::kHashJoin: {
      std::vector<std::string> parts;
      for (size_t i = 0; i < left_keys.size(); ++i) {
        parts.push_back(StringFormat("$%zu=$%zu", left_keys[i],
                                     right_keys[i]));
      }
      s += "(";
      s += Join(parts, " AND ");
      if (residual) {
        s += " ; ";
        s += residual->ToString();
      }
      s += ")";
      break;
    }
    case PlanKind::kNestedLoopJoin:
      s += "(";
      s += predicate ? predicate->ToString() : "true";
      s += ")";
      break;
    case PlanKind::kAggregate: {
      std::vector<std::string> parts;
      for (const auto& g : group_by) parts.push_back(g->ToString());
      std::vector<std::string> aparts;
      for (const auto& a : aggs) aparts.push_back(a.name);
      s += "(by: ";
      s += Join(parts, ", ");
      s += "; aggs: ";
      s += Join(aparts, ", ");
      s += ")";
      break;
    }
    case PlanKind::kSort: {
      std::vector<std::string> parts;
      for (const auto& [e, desc] : sort_keys) {
        std::string key = e->ToString();
        if (desc) key += " DESC";
        parts.push_back(std::move(key));
      }
      s += "(";
      s += Join(parts, ", ");
      s += ")";
      break;
    }
    case PlanKind::kDistinct:
      break;
    case PlanKind::kLimit:
      s += StringFormat("(%lld)", static_cast<long long>(limit));
      break;
  }
  if (estimated_rows > 0) {
    s += StringFormat(" [est_rows=%.0f, est_work=%.0f]", estimated_rows,
                      estimated_work);
  }
  return s;
}

std::string PlanNode::ToString(int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string s = pad + Describe();
  if (left) {
    s += "\n";
    s += left->ToString(indent + 1);
  }
  if (right) {
    s += "\n";
    s += right->ToString(indent + 1);
  }
  return s;
}

size_t PlanNode::ShapeFingerprint(bool normalize_literals) const {
  return FingerprintImpl(normalize_literals, /*include_table_names=*/false);
}

size_t PlanNode::Fingerprint(bool normalize_literals) const {
  return FingerprintImpl(normalize_literals, /*include_table_names=*/true);
}

size_t PlanNode::FingerprintImpl(bool normalize_literals,
                                 bool include_table_names) const {
  auto mix = [](size_t h, size_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  };
  size_t h = static_cast<size_t>(kind) * 0xff51afd7ed558ccdull;
  auto mix_expr = [&](const BoundExprPtr& e) {
    if (e) {
      h = mix(h, e->Fingerprint(normalize_literals, include_table_names));
    }
  };
  if (include_table_names) {
    h = mix(h, std::hash<std::string>{}(table_name));
  }
  h = mix(h, std::hash<std::string>{}(index_column));
  mix_expr(index_value);
  mix_expr(predicate);
  for (const auto& p : projections) mix_expr(p);
  for (size_t k : left_keys) h = mix(h, k + 1);
  for (size_t k : right_keys) h = mix(h, (k + 1) * 131);
  mix_expr(residual);
  for (const auto& g : group_by) mix_expr(g);
  for (const auto& a : aggs) {
    h = mix(h, static_cast<size_t>(a.func) + (a.count_star ? 97 : 0));
    mix_expr(a.arg);
  }
  for (const auto& [e, desc] : sort_keys) {
    mix_expr(e);
    h = mix(h, desc ? 2 : 1);
  }
  if (kind == PlanKind::kLimit) h = mix(h, static_cast<size_t>(limit));
  if (left) {
    h = mix(h, left->FingerprintImpl(normalize_literals,
                                     include_table_names));
  }
  if (right) {
    h = mix(h, right->FingerprintImpl(normalize_literals,
                                      include_table_names));
  }
  return h;
}

PlanNodePtr PlanNode::Scan(std::string table_name, Schema schema) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kScan;
  n->table_name = std::move(table_name);
  n->output_schema = std::move(schema);
  return n;
}

PlanNodePtr PlanNode::IndexScan(std::string table_name, Schema schema,
                                std::string index_column,
                                BoundExprPtr index_value) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kIndexScan;
  n->table_name = std::move(table_name);
  n->output_schema = std::move(schema);
  n->index_column = std::move(index_column);
  n->index_value = std::move(index_value);
  return n;
}

PlanNodePtr PlanNode::Filter(PlanNodePtr child, BoundExprPtr predicate) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kFilter;
  n->output_schema = child->output_schema;
  n->left = std::move(child);
  n->predicate = std::move(predicate);
  return n;
}

PlanNodePtr PlanNode::Project(PlanNodePtr child,
                              std::vector<BoundExprPtr> projections,
                              Schema output_schema) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kProject;
  n->left = std::move(child);
  n->projections = std::move(projections);
  n->output_schema = std::move(output_schema);
  return n;
}

PlanNodePtr PlanNode::HashJoin(PlanNodePtr left, PlanNodePtr right,
                               std::vector<size_t> left_keys,
                               std::vector<size_t> right_keys,
                               BoundExprPtr residual) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kHashJoin;
  n->output_schema =
      Schema::Concat(left->output_schema, right->output_schema);
  n->left = std::move(left);
  n->right = std::move(right);
  n->left_keys = std::move(left_keys);
  n->right_keys = std::move(right_keys);
  n->residual = std::move(residual);
  return n;
}

PlanNodePtr PlanNode::NestedLoopJoin(PlanNodePtr left, PlanNodePtr right,
                                     BoundExprPtr predicate) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kNestedLoopJoin;
  n->output_schema =
      Schema::Concat(left->output_schema, right->output_schema);
  n->left = std::move(left);
  n->right = std::move(right);
  n->predicate = std::move(predicate);
  return n;
}

PlanNodePtr PlanNode::Aggregate(PlanNodePtr child,
                                std::vector<BoundExprPtr> group_by,
                                std::vector<AggItem> aggs,
                                Schema output_schema) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kAggregate;
  n->left = std::move(child);
  n->group_by = std::move(group_by);
  n->aggs = std::move(aggs);
  n->output_schema = std::move(output_schema);
  return n;
}

PlanNodePtr PlanNode::Sort(PlanNodePtr child,
                           std::vector<std::pair<BoundExprPtr, bool>> keys) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kSort;
  n->output_schema = child->output_schema;
  n->left = std::move(child);
  n->sort_keys = std::move(keys);
  return n;
}

PlanNodePtr PlanNode::Distinct(PlanNodePtr child) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kDistinct;
  n->output_schema = child->output_schema;
  n->left = std::move(child);
  return n;
}

PlanNodePtr PlanNode::Limit(PlanNodePtr child, int64_t limit) {
  auto n = std::make_shared<PlanNode>();
  n->kind = PlanKind::kLimit;
  n->output_schema = child->output_schema;
  n->left = std::move(child);
  n->limit = limit;
  return n;
}

PlanNodePtr PlanNode::SubstituteParams(const PlanNodePtr& plan,
                                       const std::vector<Value>& params) {
  if (plan == nullptr) return nullptr;
  auto sub_expr = [&](const BoundExprPtr& e) {
    return fedcal::SubstituteParams(e, params);
  };
  // Every node is cloned, even when nothing in its subtree referenced a
  // param: callers re-annotate (mutate) the substituted tree, so sharing
  // an unchanged node with the cached template would race concurrent
  // Route() calls on the same prepared plan and dirty the template's own
  // estimates.
  auto node = std::make_shared<PlanNode>(*plan);
  node->left = SubstituteParams(plan->left, params);
  node->right = SubstituteParams(plan->right, params);
  node->index_value = sub_expr(plan->index_value);
  node->predicate = sub_expr(plan->predicate);
  node->residual = sub_expr(plan->residual);
  for (auto& p : node->projections) p = sub_expr(p);
  for (auto& g : node->group_by) g = sub_expr(g);
  for (auto& a : node->aggs) a.arg = sub_expr(a.arg);
  for (auto& k : node->sort_keys) k.first = sub_expr(k.first);
  return node;
}

}  // namespace fedcal
