#include "storage/datagen.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace fedcal {

namespace {

Value GenerateCell(const ColumnGenSpec& g, size_t row_index, Rng* rng) {
  using Kind = ColumnGenSpec::Kind;
  if (g.null_fraction > 0.0 && rng->Bernoulli(g.null_fraction)) {
    return Value::Null_();
  }
  switch (g.kind) {
    case Kind::kSerial:
      return Value(static_cast<int64_t>(row_index));
    case Kind::kUniformInt:
      return Value(rng->UniformInt(g.int_lo, g.int_hi));
    case Kind::kZipfInt: {
      const int64_t n = g.int_hi - g.int_lo + 1;
      return Value(g.int_lo + rng->Zipf(n, g.skew) - 1);
    }
    case Kind::kUniformDouble:
      return Value(rng->UniformDouble(g.dbl_lo, g.dbl_hi));
    case Kind::kStringPool: {
      const int64_t i =
          rng->UniformInt(0, static_cast<int64_t>(g.pool.size()) - 1);
      return Value(g.pool[static_cast<size_t>(i)]);
    }
    case Kind::kStringTag:
      return Value(g.prefix + std::to_string(rng->UniformInt(g.int_lo, g.int_hi)));
  }
  return Value::Null_();
}

}  // namespace

ScaleRows PresetRows(ScalePreset preset) {
  switch (preset) {
    case ScalePreset::kSmall:
      return {100'000, 1'000};
    case ScalePreset::kMedium:
      return {1'000'000, 10'000};
    case ScalePreset::kLarge:
      return {10'000'000, 100'000};
  }
  return {100'000, 1'000};
}

const char* ScalePresetName(ScalePreset preset) {
  switch (preset) {
    case ScalePreset::kSmall:
      return "small";
    case ScalePreset::kMedium:
      return "medium";
    case ScalePreset::kLarge:
      return "large";
  }
  return "?";
}

Result<std::vector<Row>> GenerateRows(const TableGenSpec& spec, Rng* rng) {
  if (spec.columns.size() != spec.generators.size()) {
    return Status::InvalidArgument(StringFormat(
        "table %s: %zu columns but %zu generators", spec.name.c_str(),
        spec.columns.size(), spec.generators.size()));
  }
  for (size_t i = 0; i < spec.generators.size(); ++i) {
    const auto& g = spec.generators[i];
    if (g.kind == ColumnGenSpec::Kind::kStringPool && g.pool.empty()) {
      return Status::InvalidArgument(
          "empty string pool for column " + spec.columns[i].name);
    }
    if ((g.kind == ColumnGenSpec::Kind::kUniformInt ||
         g.kind == ColumnGenSpec::Kind::kZipfInt) &&
        g.int_hi < g.int_lo) {
      return Status::InvalidArgument(
          "empty integer range for column " + spec.columns[i].name);
    }
  }

  std::vector<Row> rows;
  rows.reserve(spec.num_rows);
  for (size_t r = 0; r < spec.num_rows; ++r) {
    Row row;
    row.reserve(spec.columns.size());
    for (size_t c = 0; c < spec.columns.size(); ++c) {
      row.push_back(GenerateCell(spec.generators[c], r, rng));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

Result<TablePtr> GenerateTable(const TableGenSpec& spec, Rng* rng,
                               size_t chunk_rows) {
  FEDCAL_ASSIGN_OR_RETURN(std::vector<Row> rows, GenerateRows(spec, rng));
  return Table::FromRows(spec.name, Schema(spec.columns), rows, chunk_rows);
}

}  // namespace fedcal
