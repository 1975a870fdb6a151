#include "expr/vector_eval.h"

#include <cstring>
#include <string_view>
#include <utility>

#include "common/macros.h"
#include "common/string_util.h"

namespace fedcal {
namespace {

// ---------------------------------------------------------------------------
// Operand classification
// ---------------------------------------------------------------------------

enum class Rep {
  kIntCol,
  kDblCol,
  kStrCol,
  kIntConst,
  kDblConst,
  kStrConst,
  kNullConst,
};

/// A VectorResult flattened into raw pointers (chunk offset applied) for
/// the typed kernels below.
struct Operand {
  Rep rep = Rep::kNullConst;
  const int64_t* ints = nullptr;
  const double* dbls = nullptr;
  const uint32_t* codes = nullptr;  ///< string cells: codes into `dict`
  const StringDict* dict = nullptr;
  const uint8_t* nulls = nullptr;  ///< nullptr when the column is null-free
  int64_t iconst = 0;
  double dconst = 0.0;
  std::string_view sconst;
};

Operand Classify(const VectorResult& v) {
  Operand o;
  if (v.constant) {
    const Value& c = v.const_value;
    if (c.is_null()) {
      o.rep = Rep::kNullConst;
    } else if (c.is_int64()) {
      o.rep = Rep::kIntConst;
      o.iconst = c.AsInt64();
    } else if (c.is_double()) {
      o.rep = Rep::kDblConst;
      o.dconst = c.AsDouble();
    } else {
      o.rep = Rep::kStrConst;
      o.sconst = c.AsString();
    }
    return o;
  }
  const ColumnData& col = *v.col;
  const size_t off = v.offset;
  o.nulls = col.has_nulls() ? col.nulls() + off : nullptr;
  switch (col.type()) {
    case DataType::kInt64:
      o.rep = Rep::kIntCol;
      o.ints = col.ints() + off;
      break;
    case DataType::kDouble:
      o.rep = Rep::kDblCol;
      o.dbls = col.doubles() + off;
      break;
    case DataType::kString:
      o.rep = Rep::kStrCol;
      o.codes = col.codes() + off;
      o.dict = &col.dict();
      break;
  }
  return o;
}

bool IsNumericRep(Rep r) {
  return r == Rep::kIntCol || r == Rep::kDblCol || r == Rep::kIntConst ||
         r == Rep::kDblConst;
}
bool IsIntRep(Rep r) { return r == Rep::kIntCol || r == Rep::kIntConst; }
bool IsStringRep(Rep r) { return r == Rep::kStrCol || r == Rep::kStrConst; }

// Accessor functors: an Operand viewed as int64, double, or string cells.
// Templated kernels instantiate per accessor pair, so the per-element load
// compiles down to an array index or a register value.
struct IntColAcc {
  const int64_t* p;
  int64_t operator()(size_t i) const { return p[i]; }
};
struct IntConstAcc {
  int64_t v;
  int64_t operator()(size_t) const { return v; }
};
struct DblColAcc {
  const double* p;
  double operator()(size_t i) const { return p[i]; }
};
struct IntAsDblAcc {
  const int64_t* p;
  double operator()(size_t i) const { return static_cast<double>(p[i]); }
};
struct DblConstAcc {
  double v;
  double operator()(size_t) const { return v; }
};
struct StrColAcc {
  const uint32_t* codes;
  const StringDict* dict;
  std::string_view operator()(size_t i) const { return dict->at(codes[i]); }
};
struct StrConstAcc {
  std::string_view v;
  std::string_view operator()(size_t) const { return v; }
};

template <typename F>
void WithIntAcc(const Operand& o, F&& f) {
  if (o.rep == Rep::kIntCol) {
    f(IntColAcc{o.ints});
  } else {
    f(IntConstAcc{o.iconst});
  }
}

template <typename F>
void WithDblAcc(const Operand& o, F&& f) {
  switch (o.rep) {
    case Rep::kDblCol:
      f(DblColAcc{o.dbls});
      break;
    case Rep::kIntCol:
      f(IntAsDblAcc{o.ints});
      break;
    case Rep::kIntConst:
      f(DblConstAcc{static_cast<double>(o.iconst)});
      break;
    default:
      f(DblConstAcc{o.dconst});
      break;
  }
}

template <typename F>
void WithStrAcc(const Operand& o, F&& f) {
  if (o.rep == Rep::kStrCol) {
    f(StrColAcc{o.codes, o.dict});
  } else {
    f(StrConstAcc{o.sconst});
  }
}

/// Comparison outcome for a three-way (or string compare) result.
inline int64_t CmpResult(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0 ? 1 : 0;
    case BinaryOp::kNe:
      return c != 0 ? 1 : 0;
    case BinaryOp::kLt:
      return c < 0 ? 1 : 0;
    case BinaryOp::kLe:
      return c <= 0 ? 1 : 0;
    case BinaryOp::kGt:
      return c > 0 ? 1 : 0;
    case BinaryOp::kGe:
      return c >= 0 ? 1 : 0;
    default:
      return 0;
  }
}

inline bool CellNull(const uint8_t* nulls, size_t i) {
  return nulls != nullptr && nulls[i] != 0;
}

VectorResult WrapColumn(ColumnPtr col) {
  VectorResult r;
  r.col = std::move(col);
  r.offset = 0;
  return r;
}

VectorResult AllNullColumn(DataType type, size_t n) {
  auto out = std::make_shared<ColumnData>(type);
  out->Reserve(n);
  for (size_t i = 0; i < n; ++i) out->AppendNull();
  return WrapColumn(std::move(out));
}

// ---------------------------------------------------------------------------
// Typed kernels
// ---------------------------------------------------------------------------

VectorResult CmpNumeric(BinaryOp op, const Operand& lo, const Operand& ro,
                        size_t n) {
  auto out = std::make_shared<ColumnData>(DataType::kInt64);
  out->Reserve(n);
  const uint8_t* ln = lo.nulls;
  const uint8_t* rn = ro.nulls;
  if (IsIntRep(lo.rep) && IsIntRep(ro.rep)) {
    WithIntAcc(lo, [&](auto la) {
      WithIntAcc(ro, [&](auto ra) {
        for (size_t i = 0; i < n; ++i) {
          if (CellNull(ln, i) || CellNull(rn, i)) {
            out->AppendNull();
            continue;
          }
          const int64_t a = la(i);
          const int64_t b = ra(i);
          out->AppendInt(CmpResult(op, a < b ? -1 : (a > b ? 1 : 0)));
        }
      });
    });
  } else {
    WithDblAcc(lo, [&](auto la) {
      WithDblAcc(ro, [&](auto ra) {
        for (size_t i = 0; i < n; ++i) {
          if (CellNull(ln, i) || CellNull(rn, i)) {
            out->AppendNull();
            continue;
          }
          const double a = la(i);
          const double b = ra(i);
          out->AppendInt(CmpResult(op, a < b ? -1 : (a > b ? 1 : 0)));
        }
      });
    });
  }
  return WrapColumn(std::move(out));
}

VectorResult CmpString(BinaryOp op, const Operand& lo, const Operand& ro,
                       size_t n) {
  auto out = std::make_shared<ColumnData>(DataType::kInt64);
  out->Reserve(n);
  const uint8_t* ln = lo.nulls;
  const uint8_t* rn = ro.nulls;
  WithStrAcc(lo, [&](auto la) {
    WithStrAcc(ro, [&](auto ra) {
      for (size_t i = 0; i < n; ++i) {
        if (CellNull(ln, i) || CellNull(rn, i)) {
          out->AppendNull();
          continue;
        }
        out->AppendInt(CmpResult(op, la(i).compare(ra(i))));
      }
    });
  });
  return WrapColumn(std::move(out));
}

/// Writes to `sel` the rows i < n whose cell v[i] compares with the
/// constant `c` by `op`, and returns how many. The rule is CmpNumeric's
/// three-way one, which Value::Compare shares: a NaN compares equal to
/// everything, so =, <= and >= pass it and <, > and <> do not. A NULL cell
/// never passes.
template <typename T, typename C>
size_t SelectCompared(BinaryOp op, const T* v, const uint8_t* nulls,
                      size_t n, C c, uint32_t* sel) {
  auto select = [&](auto pass) {
    size_t k = 0;
    if (nulls == nullptr) {
      for (size_t i = 0; i < n; ++i) {
        sel[k] = static_cast<uint32_t>(i);
        k += pass(v[i]);
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        sel[k] = static_cast<uint32_t>(i);
        k += static_cast<size_t>(nulls[i] == 0) & pass(v[i]);
      }
    }
    return k;
  };
  switch (op) {
    case BinaryOp::kEq:
      return select([c](T x) -> size_t { return !(x < c) && !(c < x); });
    case BinaryOp::kNe:
      return select([c](T x) -> size_t { return x < c || c < x; });
    case BinaryOp::kLt:
      return select([c](T x) -> size_t { return x < c; });
    case BinaryOp::kLe:
      return select([c](T x) -> size_t { return !(c < x); });
    case BinaryOp::kGt:
      return select([c](T x) -> size_t { return c < x; });
    case BinaryOp::kGe:
      return select([c](T x) -> size_t { return !(x < c); });
    default:
      return 0;
  }
}

/// SelectCompared for a numeric column `col` and a non-null numeric
/// constant: INT against INT compares as int64, anything else as double.
size_t SelectNumeric(BinaryOp op, const Operand& col, const Value& c,
                     size_t n, uint32_t* sel) {
  if (col.rep == Rep::kIntCol && c.is_int64()) {
    return SelectCompared(op, col.ints, col.nulls, n, c.AsInt64(), sel);
  }
  if (col.rep == Rep::kIntCol) {
    return SelectCompared(op, col.ints, col.nulls, n, c.AsDouble(), sel);
  }
  return SelectCompared(op, col.dbls, col.nulls, n, c.AsDouble(), sel);
}

VectorResult LikeVec(const Operand& lo, const Operand& ro, size_t n) {
  auto out = std::make_shared<ColumnData>(DataType::kInt64);
  out->Reserve(n);
  const uint8_t* ln = lo.nulls;
  const uint8_t* rn = ro.nulls;
  WithStrAcc(lo, [&](auto la) {
    WithStrAcc(ro, [&](auto ra) {
      for (size_t i = 0; i < n; ++i) {
        if (CellNull(ln, i) || CellNull(rn, i)) {
          out->AppendNull();
          continue;
        }
        out->AppendInt(LikeMatch(la(i), ra(i)) ? 1 : 0);
      }
    });
  });
  return WrapColumn(std::move(out));
}

VectorResult ArithNumeric(BinaryOp op, const Operand& lo, const Operand& ro,
                          size_t n) {
  const uint8_t* ln = lo.nulls;
  const uint8_t* rn = ro.nulls;
  if (op == BinaryOp::kDiv) {
    // Division always promotes to double; divisor 0 degrades to NULL
    // (matching EvalBinaryValues).
    auto out = std::make_shared<ColumnData>(DataType::kDouble);
    out->Reserve(n);
    WithDblAcc(lo, [&](auto la) {
      WithDblAcc(ro, [&](auto ra) {
        for (size_t i = 0; i < n; ++i) {
          if (CellNull(ln, i) || CellNull(rn, i)) {
            out->AppendNull();
            continue;
          }
          const double b = ra(i);
          if (b == 0.0) {
            out->AppendNull();
          } else {
            out->AppendDouble(la(i) / b);
          }
        }
      });
    });
    return WrapColumn(std::move(out));
  }
  if (IsIntRep(lo.rep) && IsIntRep(ro.rep)) {
    auto out = std::make_shared<ColumnData>(DataType::kInt64);
    out->Reserve(n);
    WithIntAcc(lo, [&](auto la) {
      WithIntAcc(ro, [&](auto ra) {
        for (size_t i = 0; i < n; ++i) {
          if (CellNull(ln, i) || CellNull(rn, i)) {
            out->AppendNull();
            continue;
          }
          const int64_t a = la(i);
          const int64_t b = ra(i);
          switch (op) {
            case BinaryOp::kAdd:
              out->AppendInt(a + b);
              break;
            case BinaryOp::kSub:
              out->AppendInt(a - b);
              break;
            default:
              out->AppendInt(a * b);
              break;
          }
        }
      });
    });
    return WrapColumn(std::move(out));
  }
  auto out = std::make_shared<ColumnData>(DataType::kDouble);
  out->Reserve(n);
  WithDblAcc(lo, [&](auto la) {
    WithDblAcc(ro, [&](auto ra) {
      for (size_t i = 0; i < n; ++i) {
        if (CellNull(ln, i) || CellNull(rn, i)) {
          out->AppendNull();
          continue;
        }
        const double a = la(i);
        const double b = ra(i);
        switch (op) {
          case BinaryOp::kAdd:
            out->AppendDouble(a + b);
            break;
          case BinaryOp::kSub:
            out->AppendDouble(a - b);
            break;
          default:
            out->AppendDouble(a * b);
            break;
        }
      }
    });
  });
  return WrapColumn(std::move(out));
}

/// Fills `out[i]` with the truthiness (non-null, non-zero / non-empty) of
/// each cell — the AND/OR collapse EvalBinaryValues applies via IsTruthy.
/// A string cell is non-empty exactly when its code is not 0.
void TruthVector(const VectorResult& v, size_t n, uint8_t* out) {
  if (v.constant) {
    std::memset(out, IsTruthy(v.const_value) ? 1 : 0, n);
    return;
  }
  const ColumnData& col = *v.col;
  const size_t off = v.offset;
  const uint8_t* nu = col.has_nulls() ? col.nulls() + off : nullptr;
  auto truth = [&](const auto* p) {
    for (size_t i = 0; i < n; ++i) {
      out[i] = (!CellNull(nu, i) && p[i] != 0) ? 1 : 0;
    }
  };
  switch (col.type()) {
    case DataType::kInt64:
      truth(col.ints() + off);
      break;
    case DataType::kDouble:
      truth(col.doubles() + off);
      break;
    case DataType::kString:
      truth(col.codes() + off);
      break;
  }
}

/// The error for a tree whose operand types the binder would have
/// rejected (a hand-built plan).
Status OperandTypeError(const BoundExpr& e) {
  return Status::ExecutionError("operand types do not fit " + e.ToString());
}

}  // namespace

// ---------------------------------------------------------------------------
// VectorEvaluator
// ---------------------------------------------------------------------------

Result<VectorResult> VectorEvaluator::Eval(const BoundExpr& e,
                                           const ColumnChunk& chunk) {
  switch (e.kind()) {
    case BoundExpr::Kind::kLiteral: {
      VectorResult r;
      r.constant = true;
      r.const_value = e.literal();
      return r;
    }
    case BoundExpr::Kind::kColumn: {
      if (e.column_index() >= chunk.columns.size()) {
        return Status::ExecutionError(StringFormat(
            "column slot %zu out of range (row width %zu)", e.column_index(),
            chunk.columns.size()));
      }
      const ColumnSlice& slice = chunk.columns[e.column_index()];
      if (!slice.present()) {
        return Status::Internal(StringFormat(
            "column slot %zu is not materialized", e.column_index()));
      }
      if (slice.col->type() != e.type()) {
        return Status::Internal(StringFormat(
            "column slot %zu holds %s, bound as %s", e.column_index(),
            DataTypeName(slice.col->type()), DataTypeName(e.type())));
      }
      VectorResult r;
      r.col = slice.col;
      r.offset = slice.offset;
      return r;
    }
    case BoundExpr::Kind::kBinary:
      return EvalBinaryVec(e, chunk);
    case BoundExpr::Kind::kUnary:
      return EvalUnaryVec(e, chunk);
  }
  return Status::Internal("unhandled expr kind");
}

Result<VectorResult> VectorEvaluator::EvalBinaryVec(const BoundExpr& e,
                                                    const ColumnChunk& chunk) {
  FEDCAL_ASSIGN_OR_RETURN(VectorResult l, Eval(*e.left(), chunk));
  FEDCAL_ASSIGN_OR_RETURN(VectorResult r, Eval(*e.right(), chunk));
  return CombineBinary(e, l, r, chunk.length);
}

Result<VectorResult> VectorEvaluator::CombineBinary(const BoundExpr& e,
                                                    const VectorResult& l,
                                                    const VectorResult& r,
                                                    size_t n) {
  const BinaryOp op = e.binary_op();

  if (l.constant && r.constant) {
    FEDCAL_ASSIGN_OR_RETURN(Value v,
                            EvalBinaryValues(op, l.const_value, r.const_value));
    VectorResult out;
    out.constant = true;
    out.const_value = std::move(v);
    return out;
  }

  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    uint8_t* lt = arena_->Allocate<uint8_t>(n);
    uint8_t* rt = arena_->Allocate<uint8_t>(n);
    TruthVector(l, n, lt);
    TruthVector(r, n, rt);
    auto out = std::make_shared<ColumnData>(DataType::kInt64);
    out->Reserve(n);
    if (op == BinaryOp::kAnd) {
      for (size_t i = 0; i < n; ++i) out->AppendInt((lt[i] & rt[i]) ? 1 : 0);
    } else {
      for (size_t i = 0; i < n; ++i) out->AppendInt((lt[i] | rt[i]) ? 1 : 0);
    }
    return WrapColumn(std::move(out));
  }

  // Any other operator null-propagates, so a NULL literal operand blanks
  // the whole vector, at the bound type.
  if ((l.constant && l.const_value.is_null()) ||
      (r.constant && r.const_value.is_null())) {
    return AllNullColumn(e.type(), n);
  }

  const Operand lo = Classify(l);
  const Operand ro = Classify(r);

  if (IsComparison(op)) {
    if (IsNumericRep(lo.rep) && IsNumericRep(ro.rep)) {
      return CmpNumeric(op, lo, ro, n);
    }
    if (IsStringRep(lo.rep) && IsStringRep(ro.rep)) {
      return CmpString(op, lo, ro, n);
    }
  } else if (op == BinaryOp::kLike) {
    if (IsStringRep(lo.rep) && IsStringRep(ro.rep)) {
      return LikeVec(lo, ro, n);
    }
  } else if (IsNumericRep(lo.rep) && IsNumericRep(ro.rep)) {
    return ArithNumeric(op, lo, ro, n);
  }
  return OperandTypeError(e);
}

Result<VectorResult> VectorEvaluator::EvalUnaryVec(const BoundExpr& e,
                                                   const ColumnChunk& chunk) {
  FEDCAL_ASSIGN_OR_RETURN(VectorResult v, Eval(*e.operand(), chunk));
  const UnaryOp op = e.unary_op();
  const size_t n = chunk.length;

  if (v.constant) {
    FEDCAL_ASSIGN_OR_RETURN(Value out, EvalUnaryValue(op, v.const_value));
    VectorResult r;
    r.constant = true;
    r.const_value = std::move(out);
    return r;
  }

  const ColumnData& col = *v.col;
  const size_t off = v.offset;

  if (op == UnaryOp::kIsNull || op == UnaryOp::kIsNotNull) {
    auto out = std::make_shared<ColumnData>(DataType::kInt64);
    out->Reserve(n);
    const int64_t hit = op == UnaryOp::kIsNull ? 1 : 0;
    for (size_t i = 0; i < n; ++i) {
      out->AppendInt(col.IsNull(off + i) ? hit : 1 - hit);
    }
    return WrapColumn(std::move(out));
  }

  if (op == UnaryOp::kNeg && col.type() == DataType::kInt64) {
    auto out = std::make_shared<ColumnData>(DataType::kInt64);
    out->Reserve(n);
    const int64_t* p = col.ints() + off;
    const uint8_t* nu = col.has_nulls() ? col.nulls() + off : nullptr;
    for (size_t i = 0; i < n; ++i) {
      if (CellNull(nu, i)) {
        out->AppendNull();
      } else {
        out->AppendInt(-p[i]);
      }
    }
    return WrapColumn(std::move(out));
  }
  if (op == UnaryOp::kNeg && col.type() == DataType::kDouble) {
    auto out = std::make_shared<ColumnData>(DataType::kDouble);
    out->Reserve(n);
    const double* p = col.doubles() + off;
    const uint8_t* nu = col.has_nulls() ? col.nulls() + off : nullptr;
    for (size_t i = 0; i < n; ++i) {
      if (CellNull(nu, i)) {
        out->AppendNull();
      } else {
        out->AppendDouble(-p[i]);
      }
    }
    return WrapColumn(std::move(out));
  }

  if (op == UnaryOp::kNot) {
    uint8_t* t = arena_->Allocate<uint8_t>(n);
    TruthVector(v, n, t);
    auto out = std::make_shared<ColumnData>(DataType::kInt64);
    out->Reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (col.IsNull(off + i)) {
        out->AppendNull();
      } else {
        out->AppendInt(t[i] ? 0 : 1);
      }
    }
    return WrapColumn(std::move(out));
  }

  return OperandTypeError(e);
}

Result<const uint32_t*> VectorEvaluator::EvalSelection(const BoundExpr& e,
                                                       const ColumnChunk& chunk,
                                                       size_t* count) {
  const size_t n = chunk.length;
  if (n == 0) {
    *count = 0;
    return static_cast<const uint32_t*>(nullptr);
  }
  uint32_t* sel = arena_->Allocate<uint32_t>(n);
  VectorResult v;
  if (e.kind() == BoundExpr::Kind::kBinary && IsComparison(e.binary_op())) {
    FEDCAL_ASSIGN_OR_RETURN(VectorResult l, Eval(*e.left(), chunk));
    FEDCAL_ASSIGN_OR_RETURN(VectorResult r, Eval(*e.right(), chunk));
    if (l.constant != r.constant) {
      // A numeric column against a constant, on either side: compared
      // straight into the selection vector, with no result column.
      const Operand col = Classify(l.constant ? r : l);
      const Value& c = (l.constant ? l : r).const_value;
      if (IsNumericRep(col.rep) && (c.is_null() || c.is_numeric())) {
        const BinaryOp op =
            l.constant ? FlipComparison(e.binary_op()) : e.binary_op();
        *count = c.is_null() ? 0 : SelectNumeric(op, col, c, n, sel);
        return static_cast<const uint32_t*>(sel);
      }
    }
    FEDCAL_ASSIGN_OR_RETURN(v, CombineBinary(e, l, r, n));
  } else {
    FEDCAL_ASSIGN_OR_RETURN(v, Eval(e, chunk));
  }
  size_t k = 0;
  if (v.constant) {
    if (IsTruthy(v.const_value)) {
      for (size_t i = 0; i < n; ++i) sel[k++] = static_cast<uint32_t>(i);
    }
    *count = k;
    return static_cast<const uint32_t*>(sel);
  }
  const ColumnData& col = *v.col;
  const size_t off = v.offset;
  const uint8_t* nu = col.has_nulls() ? col.nulls() + off : nullptr;
  auto select = [&](const auto* p) {
    for (size_t i = 0; i < n; ++i) {
      if (!CellNull(nu, i) && p[i] != 0) sel[k++] = static_cast<uint32_t>(i);
    }
  };
  switch (col.type()) {
    case DataType::kInt64:
      select(col.ints() + off);
      break;
    case DataType::kDouble:
      select(col.doubles() + off);
      break;
    case DataType::kString:
      select(col.codes() + off);  // code 0 is the empty string
      break;
  }
  *count = k;
  return static_cast<const uint32_t*>(sel);
}

}  // namespace fedcal
