#include "expr/bound_expr.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace fedcal {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "<>";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kLike:
      return "LIKE";
  }
  return "?";
}

bool LikeMatch(std::string_view text, std::string_view pattern) {
  // Iterative wildcard match: '%' = any run, '_' = any single char.
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

CompareOp ToCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return CompareOp::kEq;
    case BinaryOp::kNe:
      return CompareOp::kNe;
    case BinaryOp::kLt:
      return CompareOp::kLt;
    case BinaryOp::kLe:
      return CompareOp::kLe;
    case BinaryOp::kGt:
      return CompareOp::kGt;
    case BinaryOp::kGe:
      return CompareOp::kGe;
    default:
      return CompareOp::kEq;
  }
}

BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // = and <> are symmetric
  }
}

const char* UnaryOpName(UnaryOp op) {
  switch (op) {
    case UnaryOp::kNot:
      return "NOT";
    case UnaryOp::kNeg:
      return "-";
    case UnaryOp::kIsNull:
      return "IS NULL";
    case UnaryOp::kIsNotNull:
      return "IS NOT NULL";
  }
  return "?";
}

BoundExprPtr BoundExpr::Literal(Value v, int param_index) {
  auto e = std::shared_ptr<BoundExpr>(new BoundExpr());
  e->kind_ = Kind::kLiteral;
  e->type_ = v.is_double()   ? DataType::kDouble
             : v.is_string() ? DataType::kString
                             : DataType::kInt64;
  e->literal_ = std::move(v);
  e->param_index_ = param_index;
  return e;
}

BoundExprPtr BoundExpr::Column(size_t index, std::string name,
                               DataType type) {
  auto e = std::shared_ptr<BoundExpr>(new BoundExpr());
  e->kind_ = Kind::kColumn;
  e->column_index_ = index;
  e->column_name_ = std::move(name);
  e->type_ = type;
  return e;
}

BoundExprPtr BoundExpr::Binary(BinaryOp op, BoundExprPtr left,
                               BoundExprPtr right) {
  auto e = std::shared_ptr<BoundExpr>(new BoundExpr());
  e->kind_ = Kind::kBinary;
  e->binary_op_ = op;
  if (op == BinaryOp::kDiv ||
      ((op == BinaryOp::kAdd || op == BinaryOp::kSub ||
        op == BinaryOp::kMul) &&
       (left->type() != DataType::kInt64 ||
        right->type() != DataType::kInt64))) {
    e->type_ = DataType::kDouble;
  }
  e->left_ = std::move(left);
  e->right_ = std::move(right);
  return e;
}

BoundExprPtr BoundExpr::Unary(UnaryOp op, BoundExprPtr operand) {
  auto e = std::shared_ptr<BoundExpr>(new BoundExpr());
  e->kind_ = Kind::kUnary;
  e->unary_op_ = op;
  if (op == UnaryOp::kNeg) e->type_ = operand->type();
  e->left_ = std::move(operand);
  return e;
}

// EvalBinaryValues and EvalUnaryValue build their result in one local
// and return it once: GCC 12 with the sanitizers reports the string
// alternative of a Result<Value> built from each of several Value
// temporaries as maybe-uninitialized.

Result<Value> EvalBinaryValues(BinaryOp op, const Value& l, const Value& r) {
  Value out;  // NULL unless a branch sets it
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    // Two-valued collapse of SQL three-valued logic: NULL acts as false.
    const bool lb = IsTruthy(l);
    const bool rb = IsTruthy(r);
    const bool b = op == BinaryOp::kAnd ? (lb && rb) : (lb || rb);
    out = Value(static_cast<int64_t>(b ? 1 : 0));
  } else if (l.is_null() || r.is_null()) {
    // NULL propagates.
  } else if (op == BinaryOp::kLike) {
    if (!l.is_string() || !r.is_string()) {
      return Status::ExecutionError("LIKE requires string operands");
    }
    out = Value(
        static_cast<int64_t>(LikeMatch(l.AsString(), r.AsString()) ? 1 : 0));
  } else if (IsComparison(op)) {
    if (l.is_string() != r.is_string()) {
      return Status::ExecutionError(
          "type mismatch comparing " + l.ToString() + " with " + r.ToString());
    }
    const int c = l.Compare(r);
    bool b = false;
    switch (op) {
      case BinaryOp::kEq:
        b = c == 0;
        break;
      case BinaryOp::kNe:
        b = c != 0;
        break;
      case BinaryOp::kLt:
        b = c < 0;
        break;
      case BinaryOp::kLe:
        b = c <= 0;
        break;
      case BinaryOp::kGt:
        b = c > 0;
        break;
      case BinaryOp::kGe:
        b = c >= 0;
        break;
      default:
        break;
    }
    out = Value(static_cast<int64_t>(b ? 1 : 0));
  } else if (!l.is_numeric() || !r.is_numeric()) {
    return Status::ExecutionError("arithmetic on non-numeric values");
  } else if (op == BinaryOp::kDiv) {
    // SQL makes division by zero an error; it degrades to NULL here.
    const double d = r.AsDouble();
    if (d != 0.0) out = Value(l.AsDouble() / d);
  } else {
    auto arith = [op](auto a, auto b) {
      return op == BinaryOp::kAdd ? a + b : op == BinaryOp::kSub ? a - b
                                                                 : a * b;
    };
    out = l.is_int64() && r.is_int64()
              ? Value(arith(l.AsInt64(), r.AsInt64()))
              : Value(arith(l.AsDouble(), r.AsDouble()));
  }
  return out;
}

Result<Value> EvalUnaryValue(UnaryOp op, const Value& v) {
  Value out;  // NULL unless a case sets it
  switch (op) {
    case UnaryOp::kNot:
      if (!v.is_null()) out = Value(static_cast<int64_t>(IsTruthy(v) ? 0 : 1));
      break;
    case UnaryOp::kNeg:
      if (v.is_int64()) {
        out = Value(-v.AsInt64());
      } else if (v.is_double()) {
        out = Value(-v.AsDouble());
      } else if (!v.is_null()) {
        return Status::ExecutionError("negation of non-numeric value");
      }
      break;
    case UnaryOp::kIsNull:
      out = Value(static_cast<int64_t>(v.is_null() ? 1 : 0));
      break;
    case UnaryOp::kIsNotNull:
      out = Value(static_cast<int64_t>(v.is_null() ? 0 : 1));
      break;
  }
  return out;
}

Result<Value> BoundExpr::Eval(const Row& row) const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_;
    case Kind::kColumn:
      if (column_index_ >= row.size()) {
        return Status::ExecutionError(StringFormat(
            "column slot %zu out of range (row width %zu)", column_index_,
            row.size()));
      }
      return row[column_index_];
    case Kind::kBinary: {
      FEDCAL_ASSIGN_OR_RETURN(Value l, left_->Eval(row));
      FEDCAL_ASSIGN_OR_RETURN(Value r, right_->Eval(row));
      return EvalBinaryValues(binary_op_, l, r);
    }
    case Kind::kUnary: {
      FEDCAL_ASSIGN_OR_RETURN(Value v, left_->Eval(row));
      return EvalUnaryValue(unary_op_, v);
    }
  }
  return Status::Internal("unhandled expr kind");
}

bool BoundExpr::IsConstant() const {
  switch (kind_) {
    case Kind::kLiteral:
      return true;
    case Kind::kColumn:
      return false;
    case Kind::kBinary:
      return left_->IsConstant() && right_->IsConstant();
    case Kind::kUnary:
      return left_->IsConstant();
  }
  return false;
}

void BoundExpr::CollectColumns(std::vector<size_t>* out) const {
  switch (kind_) {
    case Kind::kLiteral:
      break;
    case Kind::kColumn:
      out->push_back(column_index_);
      break;
    case Kind::kBinary:
      left_->CollectColumns(out);
      right_->CollectColumns(out);
      break;
    case Kind::kUnary:
      left_->CollectColumns(out);
      break;
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

Result<BoundExprPtr> BoundExpr::RemapColumns(
    const std::vector<int>& mapping) const {
  switch (kind_) {
    case Kind::kLiteral:
      return Literal(literal_, param_index_);
    case Kind::kColumn: {
      if (column_index_ >= mapping.size() || mapping[column_index_] < 0) {
        return Status::PlanError(StringFormat(
            "column %s (slot %zu) not available after remap",
            column_name_.c_str(), column_index_));
      }
      return Column(static_cast<size_t>(mapping[column_index_]), column_name_,
                    type_);
    }
    case Kind::kBinary: {
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr l, left_->RemapColumns(mapping));
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr r, right_->RemapColumns(mapping));
      return Binary(binary_op_, std::move(l), std::move(r));
    }
    case Kind::kUnary: {
      FEDCAL_ASSIGN_OR_RETURN(BoundExprPtr o, left_->RemapColumns(mapping));
      return Unary(unary_op_, std::move(o));
    }
  }
  return Status::Internal("unhandled expr kind in remap");
}

std::string BoundExpr::ToString() const {
  switch (kind_) {
    case Kind::kLiteral:
      return literal_.ToString();
    case Kind::kColumn:
      return column_name_.empty() ? StringFormat("$%zu", column_index_)
                                  : column_name_;
    case Kind::kBinary: {
      std::string out = "(";
      out += left_->ToString();
      out += " ";
      out += BinaryOpName(binary_op_);
      out += " ";
      out += right_->ToString();
      out += ")";
      return out;
    }
    case Kind::kUnary: {
      std::string out = "(";
      if (unary_op_ == UnaryOp::kIsNull || unary_op_ == UnaryOp::kIsNotNull) {
        out += left_->ToString();
        out += " ";
        out += UnaryOpName(unary_op_);
      } else {
        out += UnaryOpName(unary_op_);
        out += " ";
        out += left_->ToString();
      }
      out += ")";
      return out;
    }
  }
  return "?";
}

size_t BoundExpr::Fingerprint(bool normalize_literals,
                              bool include_column_names) const {
  auto mix = [](size_t h, size_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
  };
  size_t h = static_cast<size_t>(kind_) * 0x100000001b3ull;
  switch (kind_) {
    case Kind::kLiteral:
      if (normalize_literals) {
        h = mix(h, literal_.is_null()     ? 0
                   : literal_.is_int64()  ? 1
                   : literal_.is_double() ? 2
                                          : 3);
      } else {
        h = mix(h, literal_.Hash());
      }
      break;
    case Kind::kColumn:
      if (include_column_names) {
        h = mix(h, std::hash<std::string>{}(column_name_));
      }
      h = mix(h, column_index_);
      break;
    case Kind::kBinary:
      h = mix(h, static_cast<size_t>(binary_op_));
      h = mix(h, left_->Fingerprint(normalize_literals,
                                    include_column_names));
      h = mix(h, right_->Fingerprint(normalize_literals,
                                     include_column_names));
      break;
    case Kind::kUnary:
      h = mix(h, static_cast<size_t>(unary_op_));
      h = mix(h, left_->Fingerprint(normalize_literals,
                                    include_column_names));
      break;
  }
  return h;
}

void SplitConjuncts(const BoundExprPtr& expr,
                    std::vector<BoundExprPtr>* out) {
  if (!expr) return;
  if (expr->kind() == BoundExpr::Kind::kBinary &&
      expr->binary_op() == BinaryOp::kAnd) {
    SplitConjuncts(expr->left(), out);
    SplitConjuncts(expr->right(), out);
    return;
  }
  out->push_back(expr);
}

BoundExprPtr CombineConjuncts(const std::vector<BoundExprPtr>& conjuncts) {
  BoundExprPtr acc;
  for (const auto& c : conjuncts) {
    if (!c) continue;
    acc = acc ? BoundExpr::Binary(BinaryOp::kAnd, acc, c) : c;
  }
  return acc;
}

BoundExprPtr SubstituteParams(const BoundExprPtr& expr,
                              const std::vector<Value>& params) {
  if (expr == nullptr) return nullptr;
  switch (expr->kind()) {
    case BoundExpr::Kind::kLiteral: {
      const int idx = expr->param_index();
      if (idx < 0 || static_cast<size_t>(idx) >= params.size()) return expr;
      if (params[idx] == expr->literal()) return expr;
      return BoundExpr::Literal(params[idx], idx);
    }
    case BoundExpr::Kind::kColumn:
      return expr;
    case BoundExpr::Kind::kBinary: {
      BoundExprPtr l = SubstituteParams(expr->left(), params);
      BoundExprPtr r = SubstituteParams(expr->right(), params);
      if (l == expr->left() && r == expr->right()) return expr;
      return BoundExpr::Binary(expr->binary_op(), std::move(l), std::move(r));
    }
    case BoundExpr::Kind::kUnary: {
      BoundExprPtr o = SubstituteParams(expr->operand(), params);
      if (o == expr->operand()) return expr;
      return BoundExpr::Unary(expr->unary_op(), std::move(o));
    }
  }
  return expr;
}

bool IsTruthy(const Value& v) {
  if (v.is_null()) return false;
  if (v.is_int64()) return v.AsInt64() != 0;
  if (v.is_double()) return v.AsDouble() != 0.0;
  return !v.AsString().empty();
}

}  // namespace fedcal
