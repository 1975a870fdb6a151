#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "storage/table.h"

namespace fedcal {

/// \brief Per-column value-generation recipe.
///
/// The experiment scenario (§5 of the paper) populates tables with randomly
/// generated data; these specs describe each column's distribution.
struct ColumnGenSpec {
  enum class Kind {
    kSerial,        ///< 0, 1, 2, ... (primary keys)
    kUniformInt,    ///< uniform in [int_lo, int_hi]
    kZipfInt,       ///< int_lo + Zipf(int_hi - int_lo + 1, skew) - 1
    kUniformDouble, ///< uniform in [dbl_lo, dbl_hi)
    kStringPool,    ///< uniform pick from `pool`
    kStringTag,     ///< prefix + uniform int in [int_lo, int_hi]
  };

  Kind kind = Kind::kUniformInt;
  int64_t int_lo = 0;
  int64_t int_hi = 0;
  double dbl_lo = 0.0;
  double dbl_hi = 1.0;
  double skew = 1.1;                 ///< zipf skew
  double null_fraction = 0.0;        ///< probability a cell is NULL
  std::vector<std::string> pool;     ///< for kStringPool
  std::string prefix;                ///< for kStringTag

  static ColumnGenSpec Serial() {
    ColumnGenSpec s;
    s.kind = Kind::kSerial;
    return s;
  }
  static ColumnGenSpec UniformInt(int64_t lo, int64_t hi) {
    ColumnGenSpec s;
    s.kind = Kind::kUniformInt;
    s.int_lo = lo;
    s.int_hi = hi;
    return s;
  }
  static ColumnGenSpec ZipfInt(int64_t lo, int64_t hi, double skew) {
    ColumnGenSpec s;
    s.kind = Kind::kZipfInt;
    s.int_lo = lo;
    s.int_hi = hi;
    s.skew = skew;
    return s;
  }
  static ColumnGenSpec UniformDouble(double lo, double hi) {
    ColumnGenSpec s;
    s.kind = Kind::kUniformDouble;
    s.dbl_lo = lo;
    s.dbl_hi = hi;
    return s;
  }
  static ColumnGenSpec StringPool(std::vector<std::string> pool) {
    ColumnGenSpec s;
    s.kind = Kind::kStringPool;
    s.pool = std::move(pool);
    return s;
  }
  static ColumnGenSpec StringTag(std::string prefix, int64_t lo, int64_t hi) {
    ColumnGenSpec s;
    s.kind = Kind::kStringTag;
    s.prefix = std::move(prefix);
    s.int_lo = lo;
    s.int_hi = hi;
    return s;
  }
};

/// \brief Named cardinality tiers for generated testbeds.
///
/// The seed fixtures and unit tests stay on kSmall (the paper's §5 sizes);
/// the columnar-engine benchmarks and scaling experiments pick kMedium or
/// kLarge without touching any fixture. Generation is deterministic for a
/// given (preset, seed) pair.
enum class ScalePreset {
  kSmall,   ///< 100k-row large tables, 1k-row small tables (paper §5)
  kMedium,  ///< 1M / 10k
  kLarge,   ///< 10M / 100k
};

/// \brief Row counts for one scale preset.
struct ScaleRows {
  size_t large_rows = 0;
  size_t small_rows = 0;
};

ScaleRows PresetRows(ScalePreset preset);
const char* ScalePresetName(ScalePreset preset);

/// \brief Full recipe for one generated table.
struct TableGenSpec {
  std::string name;
  size_t num_rows = 0;
  std::vector<ColumnDef> columns;
  std::vector<ColumnGenSpec> generators;  ///< parallel to `columns`
};

/// \brief Generates the spec's rows. Deterministic given the Rng state.
Result<std::vector<Row>> GenerateRows(const TableGenSpec& spec, Rng* rng);

/// \brief Generates a table per the spec, its payload cut into chunks of
/// `chunk_rows` rows. Deterministic given the Rng state.
Result<TablePtr> GenerateTable(const TableGenSpec& spec, Rng* rng,
                               size_t chunk_rows = Table::kDefaultChunkRows);

}  // namespace fedcal
