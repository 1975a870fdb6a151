#include "storage/table.h"

#include "common/macros.h"
#include "common/string_util.h"

namespace fedcal {

Table::Table(std::string name, Schema schema, size_t chunk_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      chunk_rows_(chunk_rows),
      data_(std::make_shared<ColumnarTable>(schema_)) {}

Table::Table(std::string name, ColumnarTablePtr data, size_t chunk_rows)
    : name_(std::move(name)),
      schema_(data->schema()),
      chunk_rows_(chunk_rows),
      data_(std::move(data)) {}

Result<std::shared_ptr<Table>> Table::FromRows(std::string name,
                                               Schema schema,
                                               const std::vector<Row>& rows,
                                               size_t chunk_rows) {
  auto t = std::make_shared<Table>(std::move(name), std::move(schema),
                                   chunk_rows);
  for (const Row& row : rows) FEDCAL_RETURN_NOT_OK(t->Validate(row));
  t->data_ = t->data_->Append(rows, t->chunk_rows_);
  return t;
}

std::shared_ptr<Table> Table::FromColumnar(std::string name,
                                           ColumnarTablePtr data) {
  return std::shared_ptr<Table>(
      new Table(std::move(name), std::move(data), kDefaultChunkRows));
}

Status Table::Validate(const Row& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(StringFormat(
        "table %s: row arity %zu != schema arity %zu", name_.c_str(),
        row.size(), schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    if (v.is_null()) continue;
    const DataType t = schema_.column(i).type;
    const bool ok = (t == DataType::kInt64 && v.is_int64()) ||
                    (t == DataType::kDouble && v.is_numeric()) ||
                    (t == DataType::kString && v.is_string());
    if (!ok) {
      return Status::InvalidArgument(StringFormat(
          "table %s column %s: value %s does not match declared type %s",
          name_.c_str(), schema_.column(i).name.c_str(),
          v.ToString().c_str(), DataTypeName(t)));
    }
  }
  return Status::OK();
}

Status Table::AppendRows(const std::vector<Row>& rows) {
  for (const Row& row : rows) FEDCAL_RETURN_NOT_OK(Validate(row));
  if (rows.empty()) return Status::OK();
  const size_t base = data_->num_rows();
  data_ = data_->Append(rows, chunk_rows_);
  for (auto& [name, index] : indexes_) {
    for (size_t i = 0; i < rows.size(); ++i) {
      index.Insert(rows[i][index.column_index()], base + i);
    }
  }
  return Status::OK();
}

std::shared_ptr<Table> Table::CloneAs(const std::string& new_name) const {
  auto copy = std::shared_ptr<Table>(new Table(new_name, data_, chunk_rows_));
  copy->indexes_ = indexes_;
  return copy;
}

Status Table::CreateIndex(const std::string& column_name) {
  const auto col = schema_.IndexOf(column_name);
  if (!col.has_value()) {
    return Status::NotFound("table " + name_ + " has no column " +
                            column_name);
  }
  HashIndex index(column_name, *col);
  size_t row_id = 0;
  for (const ColumnChunk& chunk : data_->chunks()) {
    for (size_t i = 0; i < chunk.length; ++i) {
      index.Insert(chunk.ValueAt(*col, i), row_id++);
    }
  }
  indexes_.insert_or_assign(column_name, std::move(index));
  return Status::OK();
}

const HashIndex* Table::GetIndex(const std::string& column_name) const {
  auto it = indexes_.find(column_name);
  return it == indexes_.end() ? nullptr : &it->second;
}

std::vector<std::string> Table::indexed_columns() const {
  std::vector<std::string> out;
  out.reserve(indexes_.size());
  for (const auto& [name, index] : indexes_) out.push_back(name);
  return out;
}

}  // namespace fedcal
