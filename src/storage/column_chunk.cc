#include "storage/column_chunk.h"

#include <algorithm>
#include <cassert>

namespace fedcal {

namespace {

/// The dictionary every new kString column starts from: just the empty
/// string. No column made it, so a column's first new string copies it.
const StringDictPtr& EmptyDict() {
  static const StringDictPtr dict = std::make_shared<StringDict>();
  return dict;
}

}  // namespace

StringDict::StringDict(const StringDict& other) {
  views_.reserve(other.size());
  index_.reserve(other.size());
  for (std::string_view s : other.views_) Add(s);
}

uint32_t StringDict::Add(std::string_view s) {
  const auto code = static_cast<uint32_t>(views_.size());
  views_.push_back(storage_.emplace_back(s));
  index_.emplace(views_.back(), code);
  return code;
}

ColumnData::ColumnData(DataType type) : type_(type) {
  if (type == DataType::kString) dict_ = EmptyDict();
}

void ColumnData::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      dbls_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

void ColumnData::AppendNull() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
  nulls_.push_back(1);
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      dbls_.push_back(0.0);
      break;
    case DataType::kString:
      codes_.push_back(0);  // the empty string
      break;
  }
  ++size_;
}

void ColumnData::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      assert(v.is_int64());
      AppendInt(v.AsInt64());
      return;
    case DataType::kDouble:
      // SQL assignment: an int64 becomes the nearest double.
      assert(v.is_numeric());
      AppendDouble(v.AsDouble());
      return;
    case DataType::kString:
      assert(v.is_string());
      AppendString(v.AsString());
      return;
  }
}

void ColumnData::AppendString(std::string_view v) {
  uint32_t code = dict_->Find(v);
  if (code == StringDict::kAbsent) {
    // Copy before adding: a dictionary this column did not make may be
    // read by other columns, concurrently too.
    if (!owns_dict_) {
      dict_ = std::make_shared<StringDict>(*dict_);
      owns_dict_ = true;
    }
    code = dict_->Intern(v);
  }
  AppendCode(code);
}

void ColumnData::AppendFrom(const ColumnData& src, size_t i) {
  assert(src.type_ == type_);
  if (src.IsNull(i)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt(src.ints_[i]);
      return;
    case DataType::kDouble:
      AppendDouble(src.dbls_[i]);
      return;
    case DataType::kString:
      if (src.dict_ == dict_) {
        AppendCode(src.codes_[i]);
      } else {
        AppendString(src.dict_->at(src.codes_[i]));
      }
      return;
  }
}

void ColumnData::AppendRange(const ColumnData& src, size_t from, size_t n) {
  assert(src.type_ == type_);
  auto copy = [from, n](const auto& in, auto* out) {
    out->insert(out->end(), in.begin() + from, in.begin() + from + n);
  };
  switch (type_) {
    case DataType::kInt64:
      copy(src.ints_, &ints_);
      break;
    case DataType::kDouble:
      copy(src.dbls_, &dbls_);
      break;
    case DataType::kString:
      copy(src.codes_, &codes_);
      break;
  }
  // Null cells already hold the default value AppendNull writes; the
  // bitmap is made, as by AppendNull, only once a null arrives.
  const bool nulls =
      src.has_nulls() &&
      std::any_of(src.nulls_.begin() + from, src.nulls_.begin() + from + n,
                  [](uint8_t b) { return b != 0; });
  if (nulls) {
    if (nulls_.empty()) nulls_.assign(size_, 0);
    copy(src.nulls_, &nulls_);
  } else if (!nulls_.empty()) {
    nulls_.resize(size_ + n, 0);
  }
  size_ += n;
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

void ColumnData::AdoptDict(const StringDictPtr& dict) {
  if (dict_ == dict || dict_->size() != 1) return;
  dict_ = dict;
  owns_dict_ = false;
}

bool ColumnData::TakesTyped(const ColumnData& src) const {
  assert(src.type_ == type_);
  return !src.has_nulls() &&
         (type_ != DataType::kString || src.dict_ == dict_);
}

void ColumnData::AppendGather(const ColumnSlice& src, const uint32_t* rows,
                              size_t n) {
  const ColumnData& s = *src.col;
  if (type_ == DataType::kString) AdoptDict(s.dict_);
  if (!TakesTyped(s)) {
    for (size_t i = 0; i < n; ++i) AppendFrom(s, src.offset + rows[i]);
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      GatherValues(s.ints_.data() + src.offset, rows, n, &ints_);
      break;
    case DataType::kDouble:
      GatherValues(s.dbls_.data() + src.offset, rows, n, &dbls_);
      break;
    case DataType::kString:
      GatherValues(s.codes_.data() + src.offset, rows, n, &codes_);
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
      if (!TakesTyped(*s.col)) break;
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

void ColumnData::AppendGather(const std::vector<ColumnSlice>& srcs,
                              const RowRef* refs, size_t n) {
  size_t i = 0;
  switch (type_) {
    case DataType::kInt64:
      i = GatherTypedPrefix(&ColumnData::ints_, srcs.data(), refs, n);
      break;
    case DataType::kDouble:
      i = GatherTypedPrefix(&ColumnData::dbls_, srcs.data(), refs, n);
      break;
    case DataType::kString: {
      // Taking over one source's dictionary when another codes in a
      // second would copy the whole first one at the second's first new
      // string; interning into this column's own dictionary costs a hash
      // per cell instead.
      const bool one_dict =
          !srcs.empty() &&
          std::all_of(srcs.begin(), srcs.end(), [&](const ColumnSlice& s) {
            return s.col->dict_ == srcs[0].col->dict_;
          });
      if (one_dict) AdoptDict(srcs[0].col->dict_);
      i = GatherTypedPrefix(&ColumnData::codes_, srcs.data(), refs, n);
      break;
    }
  }
  for (; i < n; ++i) {
    const ColumnSlice& s = srcs[refs[i].chunk];
    AppendFrom(*s.col, s.offset + refs[i].row);
  }
}

void ColumnData::AppendScattered(const ColumnarTable& src, size_t column,
                                 const uint32_t* to, size_t n) {
  const std::vector<ColumnChunk>& chunks = src.chunks();
  if (type_ == DataType::kString) {
    const StringDictPtr* one = nullptr;
    bool one_dict = true;
    for (const ColumnChunk& chunk : chunks) {
      if (chunk.length == 0) continue;
      const StringDictPtr& d = chunk.columns[column].col->dict_;
      if (one == nullptr) one = &d;
      one_dict = one_dict && d == *one;
    }
    if (one != nullptr && one_dict) AdoptDict(*one);
    if (one != nullptr && (!one_dict || dict_ != *one)) {
      // Codes of several dictionaries: cell by cell through the gather.
      std::vector<ColumnSlice> srcs;
      std::vector<RowRef> refs(n);
      const uint32_t* t = to;
      for (const ColumnChunk& chunk : chunks) {
        if (chunk.length == 0) continue;
        const auto c = static_cast<uint32_t>(srcs.size());
        for (size_t i = 0; i < chunk.length; ++i) {
          if (t[i] < n) refs[t[i]] = RowRef{c, static_cast<uint32_t>(i)};
        }
        srcs.push_back(chunk.columns[column]);
        t += chunk.length;
      }
      AppendGather(srcs, refs.data(), n);
      return;
    }
  }
  // Null cells hold the default value AppendNull writes, so values copy
  // as they are; the bitmap is made only once a null arrives.
  auto scatter = [&](auto store) {
    auto& dst = this->*store;
    const size_t old = dst.size();
    dst.resize(old + n);
    auto* out = dst.data() + old;
    const uint32_t* t = to;
    for (const ColumnChunk& chunk : chunks) {
      if (chunk.length == 0) continue;
      const ColumnSlice& s = chunk.columns[column];
      const auto* in = (s.col.get()->*store).data() + s.offset;
      for (size_t i = 0; i < chunk.length; ++i) {
        if (t[i] < n) out[t[i]] = in[i];
      }
      t += chunk.length;
    }
  };
  switch (type_) {
    case DataType::kInt64:
      scatter(&ColumnData::ints_);
      break;
    case DataType::kDouble:
      scatter(&ColumnData::dbls_);
      break;
    case DataType::kString:
      scatter(&ColumnData::codes_);
      break;
  }
  bool nulls = false;
  const uint32_t* t = to;
  for (const ColumnChunk& chunk : chunks) {
    const ColumnData* col = chunk.columns[column].col.get();
    if (chunk.length > 0 && col->has_nulls()) {
      const uint8_t* in = col->nulls_.data() + chunk.columns[column].offset;
      for (size_t i = 0; i < chunk.length && !nulls; ++i) {
        nulls = t[i] < n && in[i] != 0;
      }
    }
    t += chunk.length;
  }
  if (nulls || !nulls_.empty()) {
    if (nulls_.empty()) nulls_.assign(size_, 0);
    nulls_.resize(size_ + n, 0);
  }
  if (nulls) {
    uint8_t* out = nulls_.data() + size_;
    t = to;
    for (const ColumnChunk& chunk : chunks) {
      const ColumnData* col = chunk.columns[column].col.get();
      if (chunk.length > 0 && col->has_nulls()) {
        const uint8_t* in = col->nulls_.data() + chunk.columns[column].offset;
        for (size_t i = 0; i < chunk.length; ++i) {
          if (t[i] < n) out[t[i]] = in[i];
        }
      }
      t += chunk.length;
    }
  }
  size_ += n;
}

Value ColumnData::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null_();
  switch (type_) {
    case DataType::kInt64:
      return Value(ints_[i]);
    case DataType::kDouble:
      return Value(dbls_[i]);
    case DataType::kString:
      return Value(std::string(dict_->at(codes_[i])));
  }
  return Value::Null_();
}

size_t ColumnData::CellBytes(size_t i) const {
  if (IsNull(i)) return 1;
  return type_ == DataType::kString ? dict_->at(codes_[i]).size() + 8 : 8;
}

size_t ColumnData::RangeBytes(size_t from, size_t n) const {
  // A null cell is 1 byte, a non-null one 8 plus its string length.
  size_t nulls = 0;
  if (!nulls_.empty()) {
    for (size_t i = from; i < from + n; ++i) nulls += nulls_[i];
  }
  size_t bytes = 8 * (n - nulls) + nulls;
  if (type_ == DataType::kString) {
    // Null cells hold code 0, the empty string, so they add no length.
    const StringDict& dict = *dict_;
    for (size_t i = from; i < from + n; ++i) {
      bytes += dict.at(codes_[i]).size();
    }
  }
  return bytes;
}

bool ColumnarTable::Typed(const ColumnChunk& chunk) const {
  if (chunk.columns.size() != schema_.num_columns()) return false;
  for (size_t c = 0; c < chunk.columns.size(); ++c) {
    const ColumnSlice& s = chunk.columns[c];
    if (s.present() && s.col->type() != schema_.column(c).type) return false;
  }
  return true;
}

void ColumnarTable::AppendChunk(ColumnChunk chunk, size_t bytes) {
  if (chunk.length == 0) return;
  assert(Typed(chunk));
  if (bytes == SIZE_MAX) {
    bytes = 0;
    for (const ColumnSlice& c : chunk.columns) {
      if (c.present()) bytes += c.col->RangeBytes(c.offset, chunk.length);
    }
  }
  num_rows_ += chunk.length;
  byte_size_ += bytes;
  chunks_.push_back(std::move(chunk));
}

void ColumnarTable::AppendTableZeroCopy(const ColumnarTable& other) {
  for (const ColumnChunk& chunk : other.chunks()) {
    assert(chunk.length == 0 || Typed(chunk));
    chunks_.push_back(chunk);
    num_rows_ += chunk.length;
  }
  byte_size_ += other.byte_size();
}

RowRef ColumnarTable::Locate(size_t r) const {
  uint32_t chunk = 0;
  while (r >= chunks_[chunk].length) r -= chunks_[chunk++].length;
  return RowRef{chunk, static_cast<uint32_t>(r)};
}

Row ColumnarTable::MaterializeRow(size_t r) const {
  const RowRef ref = Locate(r);
  const ColumnChunk& chunk = chunks_[ref.chunk];
  Row row;
  row.reserve(chunk.columns.size());
  for (size_t c = 0; c < chunk.columns.size(); ++c) {
    row.push_back(chunk.ValueAt(c, ref.row));
  }
  return row;
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

ColumnarTablePtr ColumnarTable::Append(const std::vector<Row>& rows,
                                       size_t chunk_rows) const {
  if (chunk_rows == 0) chunk_rows = 1;
  auto out = std::make_shared<ColumnarTable>(schema_);
  const bool has_tail =
      !chunks_.empty() && chunks_.back().length < chunk_rows;
  const ColumnChunk* tail = has_tail ? &chunks_.back() : nullptr;
  const size_t tail_len = has_tail ? tail->length : 0;
  out->chunks_.assign(chunks_.begin(), chunks_.end() - (has_tail ? 1 : 0));
  out->num_rows_ = num_rows_ - tail_len;
  // Still counts the tail, whose cells move into the first new chunk as
  // they are.
  out->byte_size_ = byte_size_;

  // One dictionary per string column: the last chunk's, or a copy of it
  // once `rows` bring a string it lacks. Interning up front lets every
  // new chunk share the dictionary the codes were made in.
  const size_t ncols = schema_.num_columns();
  std::vector<StringDictPtr> dicts(ncols);
  std::vector<std::vector<uint32_t>> codes(ncols);
  for (size_t c = 0; c < ncols; ++c) {
    if (schema_.column(c).type != DataType::kString) continue;
    StringDictPtr dict;
    if (!chunks_.empty() && chunks_.back().columns[c].present()) {
      dict = chunks_.back().columns[c].col->shared_dict();
    }
    bool own = dict == nullptr;
    if (own) dict = std::make_shared<StringDict>();
    codes[c].resize(rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      const Value& v = rows[r][c];
      if (!v.is_string()) continue;
      uint32_t code = dict->Find(v.AsString());
      if (code == StringDict::kAbsent) {
        // Readers of this table may hold its dictionary.
        if (!own) {
          dict = std::make_shared<StringDict>(*dict);
          own = true;
        }
        code = dict->Intern(v.AsString());
      }
      codes[c][r] = code;
    }
    dicts[c] = std::move(dict);
  }

  const size_t n = tail_len + rows.size();
  for (size_t start = 0; start < n; start += chunk_rows) {
    const size_t len = std::min(chunk_rows, n - start);
    ColumnChunk chunk;
    chunk.length = len;
    chunk.columns.reserve(ncols);
    for (size_t c = 0; c < ncols; ++c) {
      auto col = dicts[c] != nullptr
                     ? std::make_shared<ColumnData>(dicts[c])
                     : std::make_shared<ColumnData>(schema_.column(c).type);
      col->Reserve(len);
      size_t i = start;
      if (i < tail_len) {
        // The tail is shorter than a chunk, so it fits in the first one.
        // Its string codes hold: `dicts[c]` is its dictionary or a copy.
        const ColumnSlice& s = tail->columns[c];
        col->AppendRange(*s.col, s.offset, tail_len);
        i = tail_len;
      }
      for (; i < start + len; ++i) {
        const size_t r = i - tail_len;
        const Value& v = rows[r][c];
        if (v.is_string() && dicts[c] != nullptr) {
          col->AppendCode(codes[c][r]);
        } else {
          col->AppendValue(v);
        }
      }
      chunk.columns.push_back(ColumnSlice{std::move(col), 0});
    }
    // Only the cells after the tail add bytes.
    size_t bytes = 0;
    const size_t from = start < tail_len ? tail_len - start : 0;
    for (const ColumnSlice& c : chunk.columns) {
      bytes += c.col->RangeBytes(from, len - from);
    }
    out->AppendChunk(std::move(chunk), bytes);
  }
  return out;
}

ColumnarTablePtr ColumnarFromRows(const Schema& schema,
                                  const std::vector<Row>& rows,
                                  size_t batch_rows) {
  return ColumnarTable(schema).Append(rows, batch_rows);
}

}  // namespace fedcal
