#pragma once

#include <cstdint>

#include "common/arena.h"
#include "common/result.h"
#include "expr/bound_expr.h"
#include "storage/column_chunk.h"

namespace fedcal {

/// \brief Result of evaluating an expression over one column chunk.
///
/// Either a broadcast constant (literal subtrees), or a column of
/// `length` cells starting at `offset` — shared zero-copy with the input
/// chunk for bare column references, owned for computed expressions.
struct VectorResult {
  bool constant = false;
  Value const_value;   ///< when constant
  ColumnPtr col;       ///< when not constant
  size_t offset = 0;   ///< first cell of `col` in this result

  bool IsNullAt(size_t i) const {
    return constant ? const_value.is_null() : col->IsNull(offset + i);
  }
  Value At(size_t i) const {
    return constant ? const_value : col->GetValue(offset + i);
  }
};

/// \brief Batched expression evaluation over column chunks.
///
/// Produces exactly the values BoundExpr::Eval produces row by row —
/// including SQL null propagation, numeric promotion, and the int64/double
/// variant of every cell — through typed kernels over contiguous columns.
/// Every computed column is of its expression's bound type
/// (BoundExpr::type()), and only constant subtrees go through Values. A
/// tree the binder would reject (a hand-built plan) fails with a Status,
/// as does a column reference whose column is not of the bound type.
/// Selection vectors come from the per-query Arena.
class VectorEvaluator {
 public:
  explicit VectorEvaluator(Arena* arena) : arena_(arena) {}

  /// Evaluates `e` over every row of `chunk`.
  Result<VectorResult> Eval(const BoundExpr& e, const ColumnChunk& chunk);

  /// Evaluates a predicate and compacts it into a selection vector of
  /// chunk-local row indices where the result is truthy (non-null,
  /// non-zero). The returned pointer is arena-owned; `*count` receives
  /// the number of selected rows. A numeric column compared with a
  /// constant writes the selection vector directly.
  Result<const uint32_t*> EvalSelection(const BoundExpr& e,
                                        const ColumnChunk& chunk,
                                        size_t* count);

  Arena* arena() { return arena_; }

 private:
  Result<VectorResult> EvalBinaryVec(const BoundExpr& e,
                                     const ColumnChunk& chunk);
  /// A binary node over its operands' results, `n` rows.
  Result<VectorResult> CombineBinary(const BoundExpr& e,
                                     const VectorResult& l,
                                     const VectorResult& r, size_t n);
  Result<VectorResult> EvalUnaryVec(const BoundExpr& e,
                                    const ColumnChunk& chunk);

  Arena* arena_;
};

}  // namespace fedcal
