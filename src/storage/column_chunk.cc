#include "storage/column_chunk.h"

#include <algorithm>

namespace fedcal {

namespace {

ColumnData::Kind KindOf(DataType declared) {
  switch (declared) {
    case DataType::kInt64:
      return ColumnData::Kind::kInt64;
    case DataType::kDouble:
      return ColumnData::Kind::kDouble;
    case DataType::kString:
      return ColumnData::Kind::kString;
  }
  return ColumnData::Kind::kMixed;
}

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

ColumnData::ColumnData(Kind k) : kind_(k) {
  if (k == Kind::kString) dict_ = EmptyDict();
}

ColumnData::ColumnData(DataType declared) : ColumnData(KindOf(declared)) {}

void ColumnData::Reserve(size_t n) {
  switch (kind_) {
    case Kind::kInt64:
      ints_.reserve(n);
      break;
    case Kind::kDouble:
      dbls_.reserve(n);
      break;
    case Kind::kString:
      codes_.reserve(n);
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
  codes_.clear();
  codes_.shrink_to_fit();
  dict_.reset();
  owns_dict_ = false;
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
      codes_.push_back(0);  // the empty string
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
        if (src.dict_ == dict_) {
          AppendCode(src.codes_[i]);
        } else {
          AppendString(src.dict_->at(src.codes_[i]));
        }
        return;
      case Kind::kMixed:
        break;
    }
  }
  AppendValue(src.GetValue(i));
}

void ColumnData::AppendRange(const ColumnData& src, size_t from, size_t n) {
  if (src.kind_ != kind_ || kind_ == Kind::kMixed) {
    for (size_t i = from; i < from + n; ++i) AppendFrom(src, i);
    return;
  }
  auto copy = [from, n](const auto& in, auto* out) {
    out->insert(out->end(), in.begin() + from, in.begin() + from + n);
  };
  switch (kind_) {
    case Kind::kInt64:
      copy(src.ints_, &ints_);
      break;
    case Kind::kDouble:
      copy(src.dbls_, &dbls_);
      break;
    case Kind::kString:
      copy(src.codes_, &codes_);
      break;
    case Kind::kMixed:
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
  if (kind_ != Kind::kString || dict_ == dict || dict_->size() != 1) return;
  dict_ = dict;
  owns_dict_ = false;
}

bool ColumnData::TakesTyped(const ColumnData& src) const {
  if (src.kind_ != kind_ || kind_ == Kind::kMixed || src.has_nulls()) {
    return false;
  }
  return kind_ != Kind::kString || src.dict_ == dict_;
}

void ColumnData::AppendGather(const ColumnSlice& src, const uint32_t* rows,
                              size_t n) {
  const ColumnData& s = *src.col;
  if (s.kind_ == Kind::kString) AdoptDict(s.dict_);
  if (!TakesTyped(s)) {
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
      GatherValues(s.codes_.data() + src.offset, rows, n, &codes_);
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
  switch (kind_) {
    case Kind::kInt64:
      i = GatherTypedPrefix(&ColumnData::ints_, srcs.data(), refs, n);
      break;
    case Kind::kDouble:
      i = GatherTypedPrefix(&ColumnData::dbls_, srcs.data(), refs, n);
      break;
    case Kind::kString: {
      // Taking over one source's dictionary when another codes in a
      // second would copy the whole first one at the second's first new
      // string; interning into this column's own dictionary costs a hash
      // per cell instead.
      const bool one_dict =
          !srcs.empty() &&
          std::all_of(srcs.begin(), srcs.end(), [&](const ColumnSlice& s) {
            return s.col->kind_ == Kind::kString &&
                   s.col->dict_ == srcs[0].col->dict_;
          });
      if (one_dict) AdoptDict(srcs[0].col->dict_);
      i = GatherTypedPrefix(&ColumnData::codes_, srcs.data(), refs, n);
      break;
    }
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
      return Value(std::string(dict_->at(codes_[i])));
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
      return IsNull(i) ? 1 : dict_->at(codes_[i]).size() + 8;
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
    // Null cells hold code 0, the empty string, so they add no length.
    const StringDict& dict = *dict_;
    for (size_t i = from; i < from + n; ++i) {
      bytes += dict.at(codes_[i]).size();
    }
  }
  return bytes;
}

void ColumnarTable::AppendChunk(ColumnChunk chunk, size_t bytes) {
  if (chunk.length == 0) return;
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
    if (!chunks_.empty()) {
      const ColumnSlice& last = chunks_.back().columns[c];
      if (last.present() && last.col->kind() == ColumnData::Kind::kString) {
        dict = last.col->shared_dict();
      }
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
        if (v.is_string() && col->kind() == ColumnData::Kind::kString) {
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
