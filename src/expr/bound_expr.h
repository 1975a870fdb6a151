#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "stats/table_stats.h"
#include "storage/value.h"

namespace fedcal {

/// \brief Binary operators available in bound expressions.
///
/// Comparisons and logical operators evaluate to int64 0/1; arithmetic
/// follows SQL numeric promotion (int64 op int64 -> int64 except division,
/// anything else -> double).
enum class BinaryOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kLike,  ///< SQL LIKE with % (any run) and _ (any char) wildcards
};

const char* BinaryOpName(BinaryOp op);
bool IsComparison(BinaryOp op);
/// Maps a comparison operator to the stats-layer CompareOp.
CompareOp ToCompareOp(BinaryOp op);
/// Mirror of a comparison (a < b  <=>  b > a).
BinaryOp FlipComparison(BinaryOp op);

enum class UnaryOp { kNot, kNeg, kIsNull, kIsNotNull };

const char* UnaryOpName(UnaryOp op);

/// \brief A fully resolved expression tree evaluated against a single row.
///
/// Column references are slot indices into the row produced by the operator
/// below (the binder lays out the FROM-clause tables left to right). Every
/// node carries the type its factory derives (type()): a literal's from its
/// value (NULL is INT), a column's as declared, comparisons, LIKE, AND, OR,
/// NOT and IS [NOT] NULL INT, division DOUBLE, other arithmetic INT when
/// both operands are INT and DOUBLE otherwise, negation its operand's. A
/// tree the binder accepts evaluates to cells of that type or NULL.
class BoundExpr {
 public:
  enum class Kind { kLiteral, kColumn, kBinary, kUnary };

  /// Literal constant. `param_index` is the fingerprint pass's parameter
  /// ordinal (-1 = not parameterized); see SubstituteParams.
  static std::shared_ptr<BoundExpr> Literal(Value v, int param_index = -1);
  /// Column slot reference; `name` is kept for display / SQL rendering.
  static std::shared_ptr<BoundExpr> Column(size_t index, std::string name,
                                           DataType type);
  static std::shared_ptr<BoundExpr> Binary(BinaryOp op,
                                           std::shared_ptr<BoundExpr> left,
                                           std::shared_ptr<BoundExpr> right);
  static std::shared_ptr<BoundExpr> Unary(UnaryOp op,
                                          std::shared_ptr<BoundExpr> operand);

  Kind kind() const { return kind_; }
  const Value& literal() const { return literal_; }
  /// Parameter ordinal of a literal (-1 = not parameterized).
  int param_index() const { return param_index_; }
  size_t column_index() const { return column_index_; }
  const std::string& column_name() const { return column_name_; }
  DataType type() const { return type_; }
  BinaryOp binary_op() const { return binary_op_; }
  UnaryOp unary_op() const { return unary_op_; }
  const std::shared_ptr<BoundExpr>& left() const { return left_; }
  const std::shared_ptr<BoundExpr>& right() const { return right_; }
  const std::shared_ptr<BoundExpr>& operand() const { return left_; }

  /// Evaluates against a row. Null inputs propagate to null outputs for
  /// arithmetic and comparisons (three-valued logic collapses to "not
  /// matched" at filter boundaries).
  Result<Value> Eval(const Row& row) const;

  /// True if the expression references no columns.
  bool IsConstant() const;

  /// Collects all referenced column slots (deduplicated, sorted).
  void CollectColumns(std::vector<size_t>* out) const;

  /// Rewrites column slots through `mapping` (old slot -> new slot);
  /// returns nullptr via Status if a referenced slot is unmapped.
  Result<std::shared_ptr<BoundExpr>> RemapColumns(
      const std::vector<int>& mapping) const;

  /// SQL-ish rendering for diagnostics and fragment statements.
  std::string ToString() const;

  /// Structural fingerprint. When `normalize_literals` is set, literal
  /// values hash as their type only — this gives the "query signature" QCC
  /// uses to recognize instances of the same parameterized fragment.
  /// When `include_column_names` is false, column references hash by slot
  /// index only, so expressions over differently-named replicas collide
  /// (used by PlanNode::ShapeFingerprint).
  size_t Fingerprint(bool normalize_literals,
                     bool include_column_names = true) const;

 private:
  BoundExpr() = default;

  Kind kind_ = Kind::kLiteral;
  Value literal_;
  int param_index_ = -1;
  size_t column_index_ = 0;
  std::string column_name_;
  DataType type_ = DataType::kInt64;
  BinaryOp binary_op_ = BinaryOp::kEq;
  UnaryOp unary_op_ = UnaryOp::kNot;
  std::shared_ptr<BoundExpr> left_;
  std::shared_ptr<BoundExpr> right_;
};

using BoundExprPtr = std::shared_ptr<BoundExpr>;

/// Splits a conjunctive predicate (AND tree) into its conjuncts.
void SplitConjuncts(const BoundExprPtr& expr, std::vector<BoundExprPtr>* out);

/// Rebuilds a conjunction from conjuncts (nullptr if empty).
BoundExprPtr CombineConjuncts(const std::vector<BoundExprPtr>& conjuncts);

/// Clone-on-write parameter substitution: every literal whose param_index
/// is a valid slot of `params` is replaced by that slot's value. Subtrees
/// containing no parameterized literal are returned unchanged (shared),
/// so the cost of re-instantiating a cached plan scales with the number
/// of parameterized predicates, not plan size. Returns `expr` itself when
/// nothing changed; nullptr in, nullptr out.
BoundExprPtr SubstituteParams(const BoundExprPtr& expr,
                              const std::vector<Value>& params);

/// Applies a binary operator to two already-evaluated operands with the
/// engine's exact semantics (three-valued logic collapse for AND/OR, null
/// propagation, numeric promotion, LIKE, div-by-zero -> NULL). Shared by
/// the row evaluator (BoundExpr::Eval) and the vectorized evaluator's
/// constant folding, so both agree cell for cell.
Result<Value> EvalBinaryValues(BinaryOp op, const Value& l, const Value& r);
/// The unary counterpart of EvalBinaryValues.
Result<Value> EvalUnaryValue(UnaryOp op, const Value& v);

/// True when a value is "truthy" for filtering: non-null and non-zero.
bool IsTruthy(const Value& v);

/// SQL LIKE matching with '%' (any run) and '_' (any single character).
bool LikeMatch(std::string_view text, std::string_view pattern);

}  // namespace fedcal
