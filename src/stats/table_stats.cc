#include "stats/table_stats.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"

namespace fedcal {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

double ColumnStats::Selectivity(CompareOp op, const Value& literal) const {
  if (num_values == 0) return 0.0;
  const double uniform_eq =
      num_distinct > 0 ? 1.0 / static_cast<double>(num_distinct) : 1.0;

  if (literal.is_null()) return 0.0;  // comparisons with NULL match nothing

  if (type == DataType::kString || literal.is_string() ||
      histogram.empty()) {
    // No histogram: fall back to the classic System-R uniform estimates.
    switch (op) {
      case CompareOp::kEq:
        return uniform_eq;
      case CompareOp::kNe:
        return 1.0 - uniform_eq;
      default:
        return 1.0 / 3.0;
    }
  }

  const double x = literal.AsDouble();
  switch (op) {
    case CompareOp::kEq:
      return histogram.EstimateEquals(x);
    case CompareOp::kNe:
      return 1.0 - histogram.EstimateEquals(x);
    case CompareOp::kLt:
      return histogram.EstimateLessThan(x);
    case CompareOp::kLe:
      return histogram.EstimateLessThan(x) + histogram.EstimateEquals(x);
    case CompareOp::kGt:
      return std::max(0.0, 1.0 - histogram.EstimateLessThan(x) -
                               histogram.EstimateEquals(x));
    case CompareOp::kGe:
      return std::max(0.0, 1.0 - histogram.EstimateLessThan(x));
  }
  return 1.0 / 3.0;
}

TableStats TableStats::Compute(const Table& table, size_t histogram_buckets) {
  TableStats ts;
  ts.table_name = table.name();
  ts.num_rows = table.num_rows();
  ts.avg_row_bytes = table.avg_row_bytes();
  ts.indexed_columns = table.indexed_columns();

  const Schema& schema = table.schema();
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnStats cs;
    cs.name = schema.column(c).name;
    cs.type = schema.column(c).type;

    std::unordered_set<size_t> distinct_hashes;
    std::vector<double> numeric_values;
    bool first = true;
    for (const ColumnChunk& chunk : table.columnar()->chunks()) {
      for (size_t i = 0; i < chunk.length; ++i) {
        const Value v = chunk.ValueAt(c, i);
        if (v.is_null()) {
          ++cs.null_count;
          continue;
        }
        ++cs.num_values;
        distinct_hashes.insert(v.Hash());
        if (v.is_numeric()) numeric_values.push_back(v.AsDouble());
        if (first) {
          cs.min_value = v;
          cs.max_value = v;
          first = false;
        } else {
          if (v < cs.min_value) cs.min_value = v;
          if (cs.max_value < v) cs.max_value = v;
        }
      }
    }
    cs.num_distinct = distinct_hashes.size();
    if (!numeric_values.empty()) {
      cs.histogram =
          Histogram::Build(std::move(numeric_values), histogram_buckets);
    }
    ts.columns.push_back(std::move(cs));
  }
  return ts;
}

const ColumnStats* TableStats::FindColumn(const std::string& name) const {
  for (const auto& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string TableStats::ToString() const {
  std::string out = StringFormat("TableStats(%s, rows=%zu, avg_bytes=%.1f)",
                                 table_name.c_str(), num_rows, avg_row_bytes);
  for (const auto& c : columns) {
    out += StringFormat("\n  %s: n=%zu nulls=%zu distinct=%zu", c.name.c_str(),
                        c.num_values, c.null_count, c.num_distinct);
  }
  return out;
}

}  // namespace fedcal
