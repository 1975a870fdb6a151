#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace fedcal {

struct ColumnSlice;
class ColumnarTable;

/// \brief The distinct strings behind one or more kString columns, each
/// stored once and named by a dense uint32 code.
///
/// Code 0 is always the empty string, and null cells hold it too, so a
/// cell's length and truthiness need no null check. A base table's payload
/// codes each string column in one dictionary that its chunks, and every
/// column gathered from them, share, so gathers copy codes. An append
/// that brings a string the dictionary lacks codes the new chunks in a
/// copy (ColumnarTable::Append). A column adds strings in place only to a
/// dictionary it made itself; it copies any other (a payload's, or one
/// taken over from a gather source) first (ColumnData::AppendString).
/// Other columns reach a column's own dictionary only by gathering from
/// that column, and a column is complete before anything reads it, so
/// readers of a dictionary never race with a writer.
class StringDict {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  StringDict() { Add(""); }
  /// Copies the strings; the codes stay the same.
  StringDict(const StringDict& other);
  StringDict& operator=(const StringDict&) = delete;

  size_t size() const { return views_.size(); }
  std::string_view at(uint32_t code) const { return views_[code]; }
  /// Code of `s`, or kAbsent.
  uint32_t Find(std::string_view s) const {
    auto it = index_.find(s);
    return it == index_.end() ? kAbsent : it->second;
  }
  /// Code of `s`, added if absent.
  uint32_t Intern(std::string_view s) {
    const uint32_t code = Find(s);
    return code != kAbsent ? code : Add(s);
  }

 private:
  uint32_t Add(std::string_view s);

  std::deque<std::string> storage_;  ///< stable addresses for the views
  std::vector<std::string_view> views_;
  std::unordered_map<std::string_view, uint32_t> index_;
};

using StringDictPtr = std::shared_ptr<StringDict>;

/// \brief Where one row of a chunked table lives: the chunk's index and
/// the row within that chunk (relative to each column slice's offset).
/// Gathers over several chunks name their cells with it.
struct RowRef {
  uint32_t chunk;
  uint32_t row;
};

/// \brief One column of values of one type in columnar layout.
///
/// Values live in a typed vector (int64/double, or uint32 codes into a
/// StringDict for strings) with an optional null bitmap that is allocated
/// only when the first null arrives — the null-free fast path is a plain
/// contiguous array. A column holds exactly its declared type: an int64
/// appended to a DOUBLE column is stored as a double, as SQL assignment
/// converts it, and no other mismatch reaches a column (Table::FromRows
/// and AppendRows reject it, the binder types every computed column).
class ColumnData {
 public:
  explicit ColumnData(DataType type);
  /// A kString column coding its cells into `dict` (see AppendCode).
  explicit ColumnData(StringDictPtr dict)
      : type_(DataType::kString), dict_(std::move(dict)) {}
  /// Not copyable: a copy would share a dictionary that both columns
  /// count as their own and change in place.
  ColumnData(const ColumnData&) = delete;
  ColumnData& operator=(const ColumnData&) = delete;
  ColumnData(ColumnData&&) = default;
  ColumnData& operator=(ColumnData&&) = default;

  DataType type() const { return type_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return !nulls_.empty(); }
  bool IsNull(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  /// Raw typed storage (valid for the matching type only). Cells that are
  /// null hold a default value (code 0, the empty string, for strings);
  /// consult the null bitmap.
  const int64_t* ints() const { return ints_.data(); }
  const double* doubles() const { return dbls_.data(); }
  const uint32_t* codes() const { return codes_.data(); }
  const StringDict& dict() const { return *dict_; }
  const StringDictPtr& shared_dict() const { return dict_; }
  const uint8_t* nulls() const { return nulls_.data(); }

  void Reserve(size_t n);

  /// Appends one cell: a null, a value of this column's type, or an int64
  /// for a DOUBLE column, which is stored as a double.
  void AppendValue(const Value& v);
  void AppendNull();
  /// Typed appends for engine kernels (column must be of matching type).
  void AppendInt(int64_t v) {
    ints_.push_back(v);
    if (!nulls_.empty()) nulls_.push_back(0);
    ++size_;
  }
  void AppendDouble(double v) {
    dbls_.push_back(v);
    if (!nulls_.empty()) nulls_.push_back(0);
    ++size_;
  }
  /// Appends `v`, adding it to the dictionary if it is new there. A
  /// dictionary this column did not make is copied first.
  void AppendString(std::string_view v);
  /// Appends a code of this column's dictionary.
  void AppendCode(uint32_t code) {
    codes_.push_back(code);
    if (!nulls_.empty()) nulls_.push_back(0);
    ++size_;
  }
  /// Appends cell `i` of `src`, a column of this column's type.
  void AppendFrom(const ColumnData& src, size_t i);
  /// Appends cells [from, from + n) of `src`, a column of this column's
  /// type, copying its values (codes) and null flags in one pass: equal to
  /// n AppendFrom calls when a kString `src` codes as this column's
  /// dictionary does (`src`'s own, or a copy of it, which keeps the codes).
  void AppendRange(const ColumnData& src, size_t from, size_t n);

  /// Appends the cells of `src` (a column of this column's type) at rows
  /// `rows[0..n)` (relative to `src.offset`); `src` must not be this
  /// column. The result equals n AppendFrom calls. A string column that
  /// holds only empty strings first takes over the source's dictionary. A
  /// null-free source (for strings: coded in this column's dictionary)
  /// copies through one typed loop; other sources fall back to per-cell
  /// AppendFrom.
  void AppendGather(const ColumnSlice& src, const uint32_t* rows, size_t n);
  /// Multi-chunk form: cell i is row `refs[i].row` of `srcs[refs[i].chunk]`.
  /// A string column takes over the sources' dictionary only when every
  /// source codes in that one dictionary; otherwise its cells are interned
  /// into its own, which then holds only the strings gathered. Cells copy
  /// in one typed loop up to the first cell whose source the typed loop
  /// cannot take; the rest go through AppendFrom.
  void AppendGather(const std::vector<ColumnSlice>& srcs, const RowRef* refs,
                    size_t n);
  /// The scatter form, reading the sources in order: appends `n` cells,
  /// the cell at position to[r] being row r of column `column` of `src`
  /// (its chunks' rows counted in order); rows with to[r] >= n are
  /// skipped, and every position must be some row's. The result equals
  /// the multi-chunk AppendGather of each position's row, whose reads jump
  /// between chunks where these are sequential. A string column copies
  /// codes, taking over the sources' dictionary as AppendGather does,
  /// when every chunk codes in it; otherwise it runs that AppendGather.
  void AppendScattered(const ColumnarTable& src, size_t column,
                       const uint32_t* to, size_t n);

  /// Cell `i` as a Value of this column's type (or null).
  Value GetValue(size_t i) const;

  /// Byte accounting identical to Value::ByteSize so columnar tables
  /// report the same byte_size (and thus shipping costs) as row tables.
  size_t CellBytes(size_t i) const;
  /// CellBytes summed over cells [from, from + n), without a per-cell
  /// type switch (null-free numeric columns cost O(1)).
  size_t RangeBytes(size_t from, size_t n) const;

 private:
  /// Switches a kString column to `dict` while it holds only empty strings
  /// and nulls (code 0 is the empty string in every dictionary).
  void AdoptDict(const StringDictPtr& dict);
  /// True when the typed gather may copy `src`'s cells: a null-free
  /// column, for strings one coded in this column's dictionary.
  bool TakesTyped(const ColumnData& src) const;
  /// Typed prefix of the multi-chunk AppendGather over `store` (the
  /// vector of this column's type); returns the number of cells copied.
  template <typename T>
  size_t GatherTypedPrefix(std::vector<T> ColumnData::*store,
                           const ColumnSlice* srcs, const RowRef* refs,
                           size_t n);

  DataType type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> dbls_;
  std::vector<uint32_t> codes_;  ///< kString: codes into dict_
  StringDictPtr dict_;           ///< kString only
  bool owns_dict_ = false;       ///< dict_ was made by this column
  std::vector<uint8_t> nulls_;   ///< empty = no nulls yet (fast path)
};

using ColumnPtr = std::shared_ptr<ColumnData>;

/// \brief A view of one column starting at `offset`: the unit of zero-copy
/// sharing. Slicing and column pass-through adjust the offset instead of
/// copying cells. An absent slice (null `col`) is a column the consumer of
/// an intermediate result never reads (see ColumnarExecutor); no result
/// leaves the engine with one.
struct ColumnSlice {
  ColumnPtr col;
  size_t offset = 0;

  bool present() const { return col != nullptr; }
  bool IsNull(size_t i) const { return col->IsNull(offset + i); }
  Value ValueAt(size_t i) const { return col->GetValue(offset + i); }
};

/// \brief A batch of rows in columnar layout: one column slice per schema
/// column, each covering `length` rows. Offsets are per column, so a
/// projected chunk can mix pass-through slices of its input (zero-copy)
/// with freshly computed columns.
struct ColumnChunk {
  std::vector<ColumnSlice> columns;
  size_t length = 0;

  bool IsNull(size_t col, size_t i) const { return columns[col].IsNull(i); }
  Value ValueAt(size_t col, size_t i) const {
    return columns[col].ValueAt(i);
  }
  /// Zero-copy sub-range [from, from+n) of this chunk.
  ColumnChunk Slice(size_t from, size_t n) const {
    ColumnChunk out;
    out.columns.reserve(columns.size());
    for (const ColumnSlice& c : columns) {
      out.columns.push_back(ColumnSlice{c.col, c.offset + from});
    }
    out.length = n;
    return out;
  }
};

/// \brief An immutable columnar table: a schema plus a list of column
/// chunks whose lengths sum to num_rows.
class ColumnarTable {
 public:
  explicit ColumnarTable(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t byte_size() const { return byte_size_; }
  const std::vector<ColumnChunk>& chunks() const { return chunks_; }

  /// A new table holding this one's rows followed by `rows`, which must
  /// fit the schema: its arity, and in each cell a null, a value of the
  /// column's type or an int64 for a DOUBLE column, stored as a double
  /// (Table::FromRows and AppendRows check this). Every chunk but the
  /// tail, a last chunk shorter than `chunk_rows`, is shared as it is; the
  /// tail's rows and `rows` are encoded into new chunks of `chunk_rows`
  /// rows, the last of which may be shorter. String columns code into the last chunk's
  /// dictionary, or into a copy of it when `rows` bring a string it lacks,
  /// so no chunk or dictionary this table holds changes.
  std::shared_ptr<const ColumnarTable> Append(const std::vector<Row>& rows,
                                              size_t chunk_rows) const;

  /// Where global row `r` (< num_rows) lives.
  RowRef Locate(size_t r) const;

  /// Appends a chunk, taking ownership of its (possibly shared) columns;
  /// a non-empty chunk must be Typed for the schema (asserted).
  /// `bytes` is the chunk's payload per the row-engine accounting; pass
  /// SIZE_MAX to have it recomputed from each present column's RangeBytes.
  void AppendChunk(ColumnChunk chunk, size_t bytes = SIZE_MAX);

  /// Appends every chunk of `other` without copying column data — the
  /// zero-copy fragment-merge primitive. Its non-empty chunks must be
  /// Typed for this table's schema (asserted).
  void AppendTableZeroCopy(const ColumnarTable& other);

  /// True when `chunk` has a slice per schema column and each present
  /// slice's column is of its schema column's type.
  bool Typed(const ColumnChunk& chunk) const;

  /// Row `r` (global index) as a row-engine Row. Every column must be
  /// present.
  Row MaterializeRow(size_t r) const;
  /// All rows, in order. Every column must be present.
  std::vector<Row> MaterializeRows() const;

 private:
  Schema schema_;
  std::vector<ColumnChunk> chunks_;
  size_t num_rows_ = 0;
  size_t byte_size_ = 0;
};

using ColumnarTablePtr = std::shared_ptr<const ColumnarTable>;

/// Encodes `rows`, which must fit `schema` (see ColumnarTable::Append),
/// into columnar chunks of at most `batch_rows` rows.
ColumnarTablePtr ColumnarFromRows(const Schema& schema,
                                  const std::vector<Row>& rows,
                                  size_t batch_rows);

}  // namespace fedcal
