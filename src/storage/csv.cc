#include "storage/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/macros.h"
#include "common/string_util.h"

namespace fedcal {

namespace {

/// Splits CSV text into records of raw cells, honoring quotes. Tracks
/// whether each cell was quoted (quoted empty strings are not NULL).
struct Cell {
  std::string text;
  bool quoted = false;
};

Result<std::vector<std::vector<Cell>>> SplitRecords(
    const std::string& text, char delimiter) {
  std::vector<std::vector<Cell>> records;
  std::vector<Cell> current;
  Cell cell;
  bool in_quotes = false;
  bool cell_started = false;

  auto end_cell = [&] {
    current.push_back(std::move(cell));
    cell = Cell{};
    cell_started = false;
  };
  auto end_record = [&] {
    end_cell();
    records.push_back(std::move(current));
    current.clear();
  };

  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          cell.text.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cell.text.push_back(c);
      }
      continue;
    }
    if (c == '"' && !cell_started) {
      in_quotes = true;
      cell.quoted = true;
      cell_started = true;
    } else if (c == delimiter) {
      end_cell();
    } else if (c == '\n') {
      // Tolerate \r\n line endings.
      if (!cell.text.empty() && cell.text.back() == '\r') {
        cell.text.pop_back();
      }
      end_record();
    } else {
      cell.text.push_back(c);
      cell_started = true;
    }
  }
  if (in_quotes) {
    return Status::ParseError("unterminated quote in CSV input");
  }
  // Trailing record without a final newline.
  if (cell_started || cell.quoted || !current.empty()) {
    if (!cell.text.empty() && cell.text.back() == '\r') {
      cell.text.pop_back();
    }
    end_record();
  }
  return records;
}

/// Parses one cell of a `type` column into `*out`. It returns a Status
/// and writes the Value through a pointer because GCC 12 reports the
/// string alternative of a Result<Value> built from a number here as
/// maybe-uninitialized.
Status ParseCell(const Cell& cell, DataType type, const CsvOptions& options,
                 Value* out) {
  if (!cell.quoted && cell.text == options.null_token) {
    *out = Value::Null_();
    return Status::OK();
  }
  if (type == DataType::kString) {
    *out = Value(cell.text);
    return Status::OK();
  }
  const bool is_int = type == DataType::kInt64;
  size_t used = 0;
  try {
    if (is_int) {
      *out = Value(static_cast<int64_t>(std::stoll(cell.text, &used)));
    } else {
      *out = Value(std::stod(cell.text, &used));
    }
  } catch (const std::exception&) {
    used = std::string::npos;
  }
  if (used != cell.text.size()) {
    return Status::ParseError(StringFormat(
        "bad %s cell '%s'", is_int ? "integer" : "double", cell.text.c_str()));
  }
  return Status::OK();
}

std::string QuoteCell(const std::string& text, char delimiter) {
  const bool needs_quotes =
      text.find(delimiter) != std::string::npos ||
      text.find('"') != std::string::npos ||
      text.find('\n') != std::string::npos || text.empty();
  if (!needs_quotes) return text;
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

}  // namespace

Result<TablePtr> ReadCsv(const std::string& csv_text,
                         const std::string& table_name, Schema schema,
                         CsvOptions options) {
  FEDCAL_ASSIGN_OR_RETURN(auto records,
                          SplitRecords(csv_text, options.delimiter));
  size_t start = 0;
  if (options.header) {
    if (records.empty()) {
      return Status::ParseError("CSV has no header record");
    }
    const auto& header = records[0];
    if (header.size() != schema.num_columns()) {
      return Status::ParseError(StringFormat(
          "CSV header has %zu columns, schema has %zu", header.size(),
          schema.num_columns()));
    }
    for (size_t c = 0; c < header.size(); ++c) {
      if (header[c].text != schema.column(c).name) {
        return Status::ParseError("CSV header column '" + header[c].text +
                                  "' does not match schema column '" +
                                  schema.column(c).name + "'");
      }
    }
    start = 1;
  }
  std::vector<Row> rows;
  rows.reserve(records.size() - start);
  for (size_t r = start; r < records.size(); ++r) {
    const auto& record = records[r];
    // Skip completely blank trailing records.
    if (record.size() == 1 && record[0].text.empty() && !record[0].quoted) {
      continue;
    }
    if (record.size() != schema.num_columns()) {
      return Status::ParseError(StringFormat(
          "CSV record %zu has %zu cells, expected %zu", r, record.size(),
          schema.num_columns()));
    }
    Row row;
    row.reserve(record.size());
    for (size_t c = 0; c < record.size(); ++c) {
      Value v;
      FEDCAL_RETURN_NOT_OK(
          ParseCell(record[c], schema.column(c).type, options, &v));
      row.push_back(std::move(v));
    }
    rows.push_back(std::move(row));
  }
  return Table::FromRows(table_name, std::move(schema), rows);
}

Result<TablePtr> ReadCsvFile(const std::string& path,
                             const std::string& table_name, Schema schema,
                             CsvOptions options) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ReadCsv(buffer.str(), table_name, std::move(schema), options);
}

std::string WriteCsv(const Table& table, CsvOptions options) {
  std::string out;
  const Schema& schema = table.schema();
  if (options.header) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (c) out.push_back(options.delimiter);
      out += QuoteCell(schema.column(c).name, options.delimiter);
    }
    out.push_back('\n');
  }
  for (const Row& row : table.rows()) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) out.push_back(options.delimiter);
      const Value& v = row[c];
      if (v.is_null()) {
        out += options.null_token;
      } else if (v.is_string()) {
        out += QuoteCell(v.AsString(), options.delimiter);
      } else if (v.is_int64()) {
        out += std::to_string(v.AsInt64());
      } else {
        out += StringFormat("%.17g", v.AsDouble());
      }
    }
    out.push_back('\n');
  }
  return out;
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    CsvOptions options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot write " + path);
  out << WriteCsv(table, options);
  return out.good() ? Status::OK()
                    : Status::Internal("write failed for " + path);
}

}  // namespace fedcal
