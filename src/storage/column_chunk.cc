#include "storage/column_chunk.h"

#include <algorithm>

namespace fedcal {

void ColumnData::Reserve(size_t n) {
  switch (kind_) {
    case Kind::kInt64:
      ints_.reserve(n);
      break;
    case Kind::kDouble:
      dbls_.reserve(n);
      break;
    case Kind::kString:
      strs_.reserve(n);
      break;
    case Kind::kMixed:
      vals_.reserve(n);
      break;
  }
}

void ColumnData::Demote() {
  std::vector<Value> vals;
  vals.reserve(size_);
  for (size_t i = 0; i < size_; ++i) vals.push_back(GetValue(i));
  vals_ = std::move(vals);
  ints_.clear();
  ints_.shrink_to_fit();
  dbls_.clear();
  dbls_.shrink_to_fit();
  strs_.clear();
  strs_.shrink_to_fit();
  nulls_.clear();
  nulls_.shrink_to_fit();
  kind_ = Kind::kMixed;
}

void ColumnData::AppendNull() {
  if (kind_ == Kind::kMixed) {
    vals_.push_back(Value::Null_());
    ++size_;
    return;
  }
  if (nulls_.empty()) nulls_.assign(size_, 0);
  nulls_.push_back(1);
  switch (kind_) {
    case Kind::kInt64:
      ints_.push_back(0);
      break;
    case Kind::kDouble:
      dbls_.push_back(0.0);
      break;
    case Kind::kString:
      strs_.emplace_back();
      break;
    case Kind::kMixed:
      break;
  }
  ++size_;
}

void ColumnData::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (kind_) {
    case Kind::kInt64:
      if (v.is_int64()) {
        AppendInt(v.AsInt64());
        return;
      }
      break;
    case Kind::kDouble:
      if (v.is_double()) {
        AppendDouble(v.AsDouble());
        return;
      }
      break;
    case Kind::kString:
      if (v.is_string()) {
        AppendString(v.AsString());
        return;
      }
      break;
    case Kind::kMixed:
      vals_.push_back(v);
      ++size_;
      return;
  }
  // Variant does not match the typed representation (e.g. an int64 cell
  // in a DOUBLE column): fall back to exact-variant storage.
  Demote();
  vals_.push_back(v);
  ++size_;
}

void ColumnData::AppendFrom(const ColumnData& src, size_t i) {
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  if (kind_ == src.kind_ && kind_ != Kind::kMixed) {
    switch (kind_) {
      case Kind::kInt64:
        AppendInt(src.ints_[i]);
        return;
      case Kind::kDouble:
        AppendDouble(src.dbls_[i]);
        return;
      case Kind::kString:
        AppendString(src.strs_[i]);
        return;
      case Kind::kMixed:
        break;
    }
  }
  AppendValue(src.GetValue(i));
}

namespace {

/// Appends base[rows[i]] for i < n to `dst`.
template <typename T>
void GatherValues(const T* base, const uint32_t* rows, size_t n,
                  std::vector<T>* dst) {
  const size_t old = dst->size();
  dst->resize(old + n);
  T* out = dst->data() + old;
  for (size_t i = 0; i < n; ++i) out[i] = base[rows[i]];
}

}  // namespace

void ColumnData::AppendGather(const ColumnSlice& src, const uint32_t* rows,
                              size_t n) {
  const ColumnData& s = *src.col;
  if (s.kind_ != kind_ || kind_ == Kind::kMixed || s.has_nulls()) {
    for (size_t i = 0; i < n; ++i) AppendFrom(s, src.offset + rows[i]);
    return;
  }
  switch (kind_) {
    case Kind::kInt64:
      GatherValues(s.ints_.data() + src.offset, rows, n, &ints_);
      break;
    case Kind::kDouble:
      GatherValues(s.dbls_.data() + src.offset, rows, n, &dbls_);
      break;
    case Kind::kString:
      GatherValues(s.strs_.data() + src.offset, rows, n, &strs_);
      break;
    case Kind::kMixed:
      break;
  }
  size_ += n;
  if (!nulls_.empty()) nulls_.resize(size_, 0);
}

template <typename T>
size_t ColumnData::GatherTypedPrefix(std::vector<T> ColumnData::*store,
                                     const ColumnSlice* srcs,
                                     const RowRef* refs, size_t n) {
  std::vector<T>& dst = this->*store;
  const size_t old = dst.size();
  dst.resize(old + n);
  // Consecutive cells mostly share a chunk: check each source once per run.
  uint32_t chunk = UINT32_MAX;
  const T* base = nullptr;
  size_t i = 0;
  for (; i < n; ++i) {
    if (refs[i].chunk != chunk) {
      const ColumnSlice& s = srcs[refs[i].chunk];
      if (s.col->kind_ != kind_ || s.col->has_nulls()) break;
      chunk = refs[i].chunk;
      base = (s.col.get()->*store).data() + s.offset;
    }
    dst[old + i] = base[refs[i].row];
  }
  dst.resize(old + i);
  size_ += i;
  if (!nulls_.empty()) nulls_.resize(size_, 0);
  return i;
}

void ColumnData::AppendGather(const ColumnSlice* srcs, const RowRef* refs,
                              size_t n) {
  size_t i = 0;
  switch (kind_) {
    case Kind::kInt64:
      i = GatherTypedPrefix(&ColumnData::ints_, srcs, refs, n);
      break;
    case Kind::kDouble:
      i = GatherTypedPrefix(&ColumnData::dbls_, srcs, refs, n);
      break;
    case Kind::kString:
      i = GatherTypedPrefix(&ColumnData::strs_, srcs, refs, n);
      break;
    case Kind::kMixed:
      break;
  }
  for (; i < n; ++i) {
    const ColumnSlice& s = srcs[refs[i].chunk];
    AppendFrom(*s.col, s.offset + refs[i].row);
  }
}

Value ColumnData::GetValue(size_t i) const {
  if (kind_ == Kind::kMixed) return vals_[i];
  if (IsNull(i)) return Value::Null_();
  switch (kind_) {
    case Kind::kInt64:
      return Value(ints_[i]);
    case Kind::kDouble:
      return Value(dbls_[i]);
    case Kind::kString:
      return Value(strs_[i]);
    case Kind::kMixed:
      break;
  }
  return Value::Null_();
}

size_t ColumnData::CellBytes(size_t i) const {
  switch (kind_) {
    case Kind::kInt64:
    case Kind::kDouble:
      return IsNull(i) ? 1 : 8;
    case Kind::kString:
      return IsNull(i) ? 1 : strs_[i].size() + 8;
    case Kind::kMixed:
      return vals_[i].ByteSize();
  }
  return 0;
}

size_t ColumnData::RangeBytes(size_t from, size_t n) const {
  if (kind_ == Kind::kMixed) {
    size_t bytes = 0;
    for (size_t i = from; i < from + n; ++i) bytes += vals_[i].ByteSize();
    return bytes;
  }
  // A null cell is 1 byte, a non-null one 8 plus its string length.
  size_t nulls = 0;
  if (!nulls_.empty()) {
    for (size_t i = from; i < from + n; ++i) nulls += nulls_[i];
  }
  size_t bytes = 8 * (n - nulls) + nulls;
  if (kind_ == Kind::kString) {
    // Null cells hold empty strings, so they add no length.
    for (size_t i = from; i < from + n; ++i) bytes += strs_[i].size();
  }
  return bytes;
}

void ColumnarTable::AppendChunk(ColumnChunk chunk, size_t bytes) {
  if (chunk.length == 0) return;
  if (bytes == SIZE_MAX) {
    bytes = 0;
    for (const ColumnSlice& c : chunk.columns) {
      bytes += c.col->RangeBytes(c.offset, chunk.length);
    }
  }
  num_rows_ += chunk.length;
  byte_size_ += bytes;
  chunks_.push_back(std::move(chunk));
}

void ColumnarTable::AppendTableZeroCopy(const ColumnarTable& other) {
  for (const ColumnChunk& chunk : other.chunks()) {
    chunks_.push_back(chunk);
    num_rows_ += chunk.length;
  }
  byte_size_ += other.byte_size();
}

Row ColumnarTable::MaterializeRow(size_t r) const {
  for (const ColumnChunk& chunk : chunks_) {
    if (r < chunk.length) {
      Row row;
      row.reserve(chunk.columns.size());
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        row.push_back(chunk.ValueAt(c, r));
      }
      return row;
    }
    r -= chunk.length;
  }
  return {};
}

std::vector<Row> ColumnarTable::MaterializeRows() const {
  std::vector<Row> rows;
  rows.reserve(num_rows_);
  for (const ColumnChunk& chunk : chunks_) {
    for (size_t i = 0; i < chunk.length; ++i) {
      Row row;
      row.reserve(chunk.columns.size());
      for (size_t c = 0; c < chunk.columns.size(); ++c) {
        row.push_back(chunk.ValueAt(c, i));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

ColumnarTablePtr ColumnarFromRows(const Schema& schema,
                                  const std::vector<Row>& rows,
                                  size_t batch_rows) {
  if (batch_rows == 0) batch_rows = 1;
  auto out = std::make_shared<ColumnarTable>(schema);
  const size_t n = rows.size();
  const size_t ncols = schema.num_columns();
  for (size_t start = 0; start < n; start += batch_rows) {
    const size_t len = std::min(batch_rows, n - start);
    ColumnChunk chunk;
    chunk.length = len;
    chunk.columns.reserve(ncols);
    size_t bytes = 0;
    for (size_t c = 0; c < ncols; ++c) {
      auto col = std::make_shared<ColumnData>(schema.column(c).type);
      col->Reserve(len);
      for (size_t r = start; r < start + len; ++r) {
        col->AppendValue(rows[r][c]);
        bytes += rows[r][c].ByteSize();
      }
      chunk.columns.push_back(ColumnSlice{std::move(col), 0});
    }
    out->AppendChunk(std::move(chunk), bytes);
  }
  return out;
}

}  // namespace fedcal
