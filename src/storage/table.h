#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column_chunk.h"
#include "storage/index.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace fedcal {

/// \brief An in-memory relational table: a name, a schema, optional hash
/// indexes and one immutable columnar payload.
///
/// Tables are owned by simulated remote servers; the execution engine scans
/// their payload (`columnar()`). A base table's payload is sealed chunks of
/// `chunk_rows` rows plus a shorter tail chunk, with one StringDict per
/// string column. An append publishes a new payload that shares every
/// sealed chunk and re-encodes only the tail plus the new rows; a payload
/// already handed out never changes (ColumnarTable::Append). The table
/// itself follows the engine's single-writer discipline: a server appends
/// under its writer lock, which keeps readers of `columnar()` out.
class Table {
 public:
  static constexpr size_t kDefaultChunkRows = 4096;

  /// An empty table whose payload is cut into chunks of `chunk_rows` rows.
  Table(std::string name, Schema schema,
        size_t chunk_rows = kDefaultChunkRows);

  /// Builds a table from `rows` in one pass (generator, parser and
  /// test-fixture output), after the check AppendRows makes; on a bad row
  /// it builds nothing and returns the error.
  static Result<std::shared_ptr<Table>> FromRows(
      std::string name, Schema schema, const std::vector<Row>& rows,
      size_t chunk_rows = kDefaultChunkRows);
  /// Wraps a columnar result; `byte_size` and `num_rows` come from it.
  static std::shared_ptr<Table> FromColumnar(std::string name,
                                             ColumnarTablePtr data);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t num_rows() const { return data_->num_rows(); }
  /// Approximate total payload bytes (drives network-transfer costs).
  size_t byte_size() const { return data_->byte_size(); }
  double avg_row_bytes() const {
    const size_t n = num_rows();
    return n == 0 ? 0.0 : static_cast<double>(byte_size()) / n;
  }

  /// The current payload. A copy of this pointer keeps reading the same
  /// rows after later appends, which replace the table's pointer.
  const ColumnarTablePtr& columnar() const { return data_; }

  /// Row `i` and all rows, decoded from the payload on every call.
  Row row(size_t i) const { return data_->MaterializeRow(i); }
  std::vector<Row> rows() const { return data_->MaterializeRows(); }

  /// Checks every row's arity and per-column types (nulls are accepted in
  /// any column; a DOUBLE column takes int64 values too and stores them as
  /// doubles), then appends them all; on a bad row nothing is appended.
  Status AppendRows(const std::vector<Row>& rows);

  /// A table with a new name over the same payload (replica creation);
  /// the two diverge only when one is written. Indexes are copied.
  std::shared_ptr<Table> CloneAs(const std::string& new_name) const;

  // -- Indexes ---------------------------------------------------------------

  /// Builds (or rebuilds) a hash index on the named column.
  Status CreateIndex(const std::string& column_name);
  /// The index on `column_name`, or nullptr.
  const HashIndex* GetIndex(const std::string& column_name) const;
  /// Names of indexed columns (sorted).
  std::vector<std::string> indexed_columns() const;

 private:
  Table(std::string name, ColumnarTablePtr data, size_t chunk_rows);

  /// The check FromRows and AppendRows make of every row.
  Status Validate(const Row& row) const;

  std::string name_;
  Schema schema_;
  size_t chunk_rows_;
  ColumnarTablePtr data_;
  std::map<std::string, HashIndex> indexes_;
};

using TablePtr = std::shared_ptr<Table>;

}  // namespace fedcal
