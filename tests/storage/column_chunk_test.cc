#include "storage/column_chunk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "storage/table.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using testing::D;
using testing::I;
using testing::MakeTable;
using testing::N;
using testing::S;

TEST(ColumnDataTest, TypedAppendNullFreeFastPath) {
  ColumnData col(DataType::kInt64);
  col.AppendInt(1);
  col.AppendInt(2);
  col.AppendInt(3);
  EXPECT_EQ(col.size(), 3u);
  EXPECT_FALSE(col.has_nulls());  // bitmap never allocated
  EXPECT_EQ(col.ints()[0], 1);
  EXPECT_EQ(col.GetValue(2), Value(int64_t{3}));
}

TEST(ColumnDataTest, NullBitmapAllocatedOnFirstNull) {
  ColumnData col(DataType::kDouble);
  col.AppendDouble(1.5);
  EXPECT_FALSE(col.has_nulls());
  col.AppendNull();
  EXPECT_TRUE(col.has_nulls());
  col.AppendDouble(2.5);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(2));
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_EQ(col.GetValue(2), Value(2.5));
}

TEST(ColumnDataTest, Int64IntoDoubleColumnIsStoredAsDouble) {
  // SQL assignment: an int64 appended to a DOUBLE column becomes the
  // nearest double, and the column keeps its one type.
  ColumnData col(DataType::kDouble);
  col.AppendValue(Value(1.5));
  col.AppendValue(Value(int64_t{7}));
  col.AppendValue(Value::Null_());
  col.AppendValue(Value(int64_t{(int64_t{1} << 53) + 1}));
  EXPECT_EQ(col.type(), DataType::kDouble);
  EXPECT_EQ(col.doubles()[1], 7.0);
  EXPECT_TRUE(col.GetValue(1).is_double());
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_EQ(col.doubles()[3], 0x1p53);  // rounded to nearest
  EXPECT_EQ(col.CellBytes(1), Value(int64_t{7}).ByteSize());
}

TEST(ColumnDataTest, CellBytesMatchesValueByteSize) {
  ColumnData col(DataType::kString);
  const std::vector<Value> cells = {Value("abc"), Value::Null_(),
                                    Value(std::string(100, 'x'))};
  for (const Value& v : cells) col.AppendValue(v);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(col.CellBytes(i), cells[i].ByteSize()) << "cell " << i;
  }
}

ColumnPtr ColumnOf(DataType declared, const std::vector<Value>& cells) {
  auto col = std::make_shared<ColumnData>(declared);
  for (const Value& v : cells) col->AppendValue(v);
  return col;
}

/// Same type, size, bitmap presence and exact cell variants.
void ExpectSameColumn(const ColumnData& want, const ColumnData& got,
                      const std::string& label) {
  ASSERT_EQ(want.type(), got.type()) << label;
  ASSERT_EQ(want.size(), got.size()) << label;
  EXPECT_EQ(want.has_nulls(), got.has_nulls()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    const Value a = want.GetValue(i);
    const Value b = got.GetValue(i);
    EXPECT_EQ(a, b) << label << " cell " << i;
    EXPECT_EQ(a.is_null(), b.is_null()) << label << " cell " << i;
    EXPECT_EQ(a.is_int64(), b.is_int64()) << label << " cell " << i;
    EXPECT_EQ(a.is_double(), b.is_double()) << label << " cell " << i;
  }
}

TEST(ColumnDataTest, AppendFromPreservesVariantAcrossKinds) {
  // For each column type AppendFrom copies the exact cell: an integral
  // double stays a double, an int64 stays an int64, a null stays null and
  // a string coded in another column's dictionary keeps its text.
  const std::vector<std::pair<DataType, std::vector<Value>>> columns = {
      {DataType::kInt64, {I(2), N(), I(-7)}},
      {DataType::kDouble, {D(1.0), N(), D(2.5)}},
      {DataType::kString, {S("x"), N(), S("")}},
  };
  for (const auto& [type, cells] : columns) {
    ColumnPtr src = ColumnOf(type, cells);
    ColumnData dst(type);
    for (size_t i = 0; i < cells.size(); ++i) dst.AppendFrom(*src, i);
    ExpectSameColumn(*src, dst, DataTypeName(type));
  }
  // An int64 stored into a DOUBLE column copies out as that double.
  ColumnPtr src = ColumnOf(DataType::kDouble, {D(1.0), I(2)});
  ColumnData dst(DataType::kDouble);
  dst.AppendFrom(*src, 0);
  dst.AppendFrom(*src, 1);
  EXPECT_EQ(dst.GetValue(0), Value(1.0));
  EXPECT_EQ(dst.GetValue(1), Value(2.0));
  EXPECT_TRUE(dst.GetValue(1).is_double());
}

TEST(ColumnDataTest, BulkGatherEqualsPerCellAppendFrom) {
  struct Case {
    std::string label;
    DataType declared;
    std::vector<Value> cells;
  };
  const std::vector<Case> cases = {
      {"int64", DataType::kInt64, {I(5), I(-1), I(7), I(0), I(9), I(3)}},
      {"double", DataType::kDouble, {D(0.5), D(1.5), D(-2), D(8), D(3), D(1)}},
      {"string", DataType::kString,
       {S("a"), Value(std::string(40, 'x')), S(""), S("dd"), S("e"), S("f")}},
      {"int64 with nulls", DataType::kInt64,
       {I(1), N(), I(3), I(4), N(), I(6)}},
      {"string with nulls", DataType::kString,
       {N(), S("b"), S("c"), N(), S("e"), S("f")}},
      {"double with nulls", DataType::kDouble,
       {D(1.5), D(2), N(), D(4), D(5), D(6)}},
  };
  const std::vector<uint32_t> rows = {4, 0, 2, 2, 1};
  for (const Case& c : cases) {
    ColumnPtr src = ColumnOf(c.declared, c.cells);
    for (size_t offset : {0u, 1u}) {
      const ColumnSlice slice{src, offset};
      // Into an empty column of the source's kind, and into one that
      // already holds a null (its bitmap is allocated).
      for (bool prefilled : {false, true}) {
        ColumnData want(src->type());
        ColumnData got(src->type());
        if (prefilled) {
          want.AppendNull();
          got.AppendNull();
        }
        for (uint32_t r : rows) want.AppendFrom(*src, offset + r);
        got.AppendGather(slice, rows.data(), rows.size());
        ExpectSameColumn(want, got,
                         c.label + " offset " + std::to_string(offset) +
                             (prefilled ? " prefilled" : ""));
      }
    }
  }
}

TEST(ColumnDataTest, MultiChunkGatherEqualsPerCellAppendFrom) {
  // Null-free chunks first, then a null-bearing one: the typed prefix
  // stops at the first cell from it and the rest goes through AppendFrom.
  const std::vector<ColumnSlice> srcs = {
      {ColumnOf(DataType::kDouble, {D(1), D(2), D(3), D(4)}), 1},
      {ColumnOf(DataType::kDouble, {D(10), D(20), D(30)}), 0},
      {ColumnOf(DataType::kDouble, {D(7), N(), D(9)}), 0},
      {ColumnOf(DataType::kDouble, {D(0.5), I(6)}), 0},
  };
  const std::vector<RowRef> typed = {{1, 2}, {0, 0}, {0, 2}, {1, 0}};
  const std::vector<RowRef> nulls = {{1, 1}, {0, 1}, {2, 1}, {1, 2},
                                     {3, 1}, {2, 0}, {0, 0}};
  for (const auto& [label, refs] :
       {std::pair{"typed", typed}, std::pair{"nulls", nulls}}) {
    ColumnData want(DataType::kDouble);
    ColumnData got(DataType::kDouble);
    for (const RowRef& r : refs) {
      want.AppendFrom(*srcs[r.chunk].col, srcs[r.chunk].offset + r.row);
    }
    got.AppendGather(srcs, refs.data(), refs.size());
    ExpectSameColumn(want, got, label);
  }
}

TEST(ColumnDataTest, RangeBytesEqualsCellBytesSum) {
  const std::vector<std::pair<DataType, std::vector<Value>>> columns = {
      {DataType::kInt64, {I(1), I(2), I(3), I(4)}},
      {DataType::kDouble, {D(1), N(), D(3), N()}},
      {DataType::kString, {S("abc"), N(), Value(std::string(30, 'y')), S("")}},
      {DataType::kDouble, {I(1), D(2.5), N(), I(-4)}},  // int64s stored
  };
  for (const auto& [declared, cells] : columns) {
    ColumnPtr col = ColumnOf(declared, cells);
    for (size_t from = 0; from <= cells.size(); ++from) {
      for (size_t n = 0; from + n <= cells.size(); ++n) {
        size_t want = 0;
        for (size_t i = from; i < from + n; ++i) want += col->CellBytes(i);
        EXPECT_EQ(col->RangeBytes(from, n), want)
            << DataTypeName(declared) << " [" << from << ", " << from + n
            << ")";
      }
    }
  }
}

/// Column 0 of chunk `c` of `t`.
const ColumnSlice& SliceOf(const ColumnarTablePtr& t, size_t c) {
  return t->chunks()[c].columns[0];
}

TEST(StringDictTest, GathersWithinAndAcrossDictionariesEqualAppendFrom) {
  const Schema schema({{"s", DataType::kString}});
  // One dictionary for both chunks of `a`; `b` codes "y" and "x" the other
  // way round and holds "w", which `a` lacks.
  const ColumnarTablePtr a = ColumnarFromRows(
      schema, {{S("x")}, {S("y")}, {S("x")}, {S("zz")}, {S("")}, {S("y")}},
      /*batch_rows=*/3);
  const ColumnarTablePtr b =
      ColumnarFromRows(schema, {{S("y")}, {S("w")}, {S("x")}}, 3);
  ASSERT_EQ(a->chunks().size(), 2u);
  EXPECT_EQ(&SliceOf(a, 0).col->dict(), &SliceOf(a, 1).col->dict());
  EXPECT_NE(&SliceOf(a, 0).col->dict(), &SliceOf(b, 0).col->dict());
  const std::vector<ColumnSlice> srcs = {SliceOf(a, 0), SliceOf(a, 1),
                                         SliceOf(b, 0)};

  const std::vector<RowRef> within = {{1, 0}, {0, 2}, {1, 2}, {0, 0}, {1, 1}};
  const std::vector<RowRef> across = {{0, 1}, {2, 1}, {1, 0}, {2, 0},
                                      {0, 0}, {2, 2}};
  for (const auto& [label, refs] :
       {std::pair{"within", within}, std::pair{"across", across}}) {
    ColumnData want(DataType::kString);
    ColumnData got(DataType::kString);
    for (const RowRef& r : refs) {
      want.AppendFrom(*srcs[r.chunk].col, srcs[r.chunk].offset + r.row);
    }
    got.AppendGather(srcs, refs.data(), refs.size());
    ExpectSameColumn(want, got, label);
  }
  // Sources that all code in one dictionary hand it to the gather, which
  // then copies codes; sources in two leave the column its own.
  const std::vector<ColumnSlice> srcs_a = {SliceOf(a, 0), SliceOf(a, 1)};
  ColumnData shared(DataType::kString);
  shared.AppendGather(srcs_a, within.data(), within.size());
  EXPECT_EQ(&shared.dict(), &SliceOf(a, 0).col->dict());
  ColumnData own(DataType::kString);
  own.AppendGather(srcs, within.data(), within.size());
  EXPECT_NE(&own.dict(), &SliceOf(a, 0).col->dict());
  EXPECT_EQ(own.dict().size(), 4u);  // "", "zz", "x", "y"

  // Single-slice gathers from another dictionary into a column that
  // already holds strings of its own.
  const std::vector<uint32_t> rows = {2, 0, 1, 0};
  for (bool prefilled : {false, true}) {
    ColumnData want(DataType::kString);
    ColumnData got(DataType::kString);
    if (prefilled) {
      want.AppendValue(S("q"));
      got.AppendValue(S("q"));
    }
    for (uint32_t r : rows) want.AppendFrom(*SliceOf(b, 0).col, r);
    got.AppendGather(SliceOf(b, 0), rows.data(), rows.size());
    ExpectSameColumn(want, got, prefilled ? "prefilled" : "empty");
  }
}

TEST(ColumnDataTest, ScatterEqualsGatherOfEachPositionsRow) {
  // Three chunks of int64, double and string columns with NULLs, one
  // dictionary per string column; and a merge of two tables whose string
  // columns code in two dictionaries. Every fourth row is skipped, the
  // rest land in a shuffled order, into an empty column and into one
  // that already holds a NULL.
  const Schema schema({{"i", DataType::kInt64},
                       {"d", DataType::kDouble},
                       {"s", DataType::kString}});
  std::vector<Row> rows;
  for (int64_t r = 0; r < 10; ++r) {
    rows.push_back({r % 5 == 3 ? N() : I(r * 7 - 20),
                    r % 4 == 1 ? N() : D(0.5 * static_cast<double>(r)),
                    r % 6 == 2 ? N() : S(r % 2 == 0 ? "even" : "odd")});
  }
  const ColumnarTablePtr one = ColumnarFromRows(schema, rows, 4);
  auto two = std::make_shared<ColumnarTable>(schema);
  two->AppendTableZeroCopy(*ColumnarFromRows(schema, rows, 4));
  two->AppendTableZeroCopy(*ColumnarFromRows(
      schema, {{I(1), D(2), S("third")}, {N(), N(), S("odd")}}, 4));
  for (const auto& [label, t] : {std::pair{"one dictionary", one},
                                 std::pair{"two dictionaries",
                                           ColumnarTablePtr(two)}}) {
    const size_t total = t->num_rows();
    std::vector<uint32_t> to(total, UINT32_MAX);
    std::vector<RowRef> refs;
    for (size_t r = 0; r < total; ++r) {
      if (r % 4 == 2) continue;
      refs.push_back(t->Locate(r));
    }
    // Position p takes the row listed at (5p + 1) mod n (5 is prime to
    // both tables' n).
    const size_t n = refs.size();
    std::vector<RowRef> by_position(n);
    size_t listed = 0;
    for (size_t r = 0; r < total; ++r) {
      if (r % 4 == 2) continue;
      for (size_t p = 0; p < n; ++p) {
        if ((5 * p + 1) % n == listed) {
          to[r] = static_cast<uint32_t>(p);
          by_position[p] = refs[listed];
        }
      }
      ++listed;
    }
    ASSERT_EQ(static_cast<size_t>(std::count_if(
                  to.begin(), to.end(), [n](uint32_t p) { return p < n; })),
              n)
        << label;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      std::vector<ColumnSlice> srcs;
      for (const ColumnChunk& chunk : t->chunks()) {
        srcs.push_back(chunk.columns[c]);
      }
      for (bool prefilled : {false, true}) {
        ColumnData want(schema.column(c).type);
        ColumnData got(schema.column(c).type);
        if (prefilled) {
          want.AppendNull();
          got.AppendNull();
        }
        want.AppendGather(srcs, by_position.data(), n);
        got.AppendScattered(*t, c, to.data(), n);
        ExpectSameColumn(want, got,
                         std::string(label) + " column " + std::to_string(c) +
                             (prefilled ? " prefilled" : ""));
      }
    }
  }
}

TEST(StringDictTest, AppendCopiesASharedDictionaryFirst) {
  // A column adds strings in place only to a dictionary it made itself.
  // One it took over from a gather source is copied first, so the
  // source's cells and dictionary keep their values.
  ColumnPtr owner = std::make_shared<ColumnData>(DataType::kString);
  owner->AppendValue(S("a"));
  const StringDict* made = &owner->dict();
  owner->AppendValue(S("b"));
  EXPECT_EQ(&owner->dict(), made);  // its own: no second copy
  ColumnData borrower(DataType::kString);
  const std::vector<uint32_t> rows = {1, 0, 1};
  borrower.AppendGather(ColumnSlice{owner, 0}, rows.data(), rows.size());
  ASSERT_EQ(&borrower.dict(), &owner->dict());

  borrower.AppendValue(S("d"));
  EXPECT_NE(&borrower.dict(), &owner->dict());
  const std::vector<Value> owner_cells = {S("a"), S("b")};
  for (size_t i = 0; i < owner_cells.size(); ++i) {
    EXPECT_EQ(owner->GetValue(i), owner_cells[i]) << "owner cell " << i;
  }
  EXPECT_EQ(owner->dict().size(), 3u);  // "", "a", "b"
  EXPECT_EQ(owner->dict().Find("d"), StringDict::kAbsent);
  const std::vector<Value> borrower_cells = {S("b"), S("a"), S("b"), S("d")};
  for (size_t i = 0; i < borrower_cells.size(); ++i) {
    EXPECT_EQ(borrower.GetValue(i), borrower_cells[i]) << "borrower cell " << i;
  }

  // A dictionary handed to columns at construction, as a mirror's is,
  // belongs to none of them: the first to add a string copies it.
  auto dict = std::make_shared<StringDict>();
  const uint32_t code_a = dict->Intern("a");
  ColumnData first(dict);
  ColumnData second(dict);
  first.AppendCode(code_a);
  second.AppendCode(code_a);
  first.AppendValue(S("e"));
  EXPECT_NE(&first.dict(), dict.get());
  EXPECT_EQ(dict->Find("e"), StringDict::kAbsent);
  EXPECT_EQ(second.GetValue(0), S("a"));
  EXPECT_EQ(first.GetValue(0), S("a"));
  EXPECT_EQ(first.GetValue(1), S("e"));

  // A string the shared dictionary already holds copies nothing.
  const ColumnarTablePtr t =
      ColumnarFromRows(Schema({{"s", DataType::kString}}),
                       {{S("a")}, {S("b")}}, 8);
  ColumnData again(DataType::kString);
  again.AppendGather(SliceOf(t, 0), rows.data(), 2);
  again.AppendValue(S("a"));
  EXPECT_EQ(&again.dict(), &SliceOf(t, 0).col->dict());
  EXPECT_EQ(again.GetValue(2), S("a"));
}

TEST(StringDictTest, GatherOverTwoLargeDictionariesHoldsOnlyItsStrings) {
  // Two merged tables with 1,000 distinct strings each, gathered a few
  // cells per output chunk as Sort, Distinct and the join's flush do:
  // each output column's dictionary holds only the strings it gathered,
  // never a copy of either source's.
  const Schema schema({{"s", DataType::kString}});
  std::vector<Row> rows_a;
  std::vector<Row> rows_b;
  for (int i = 0; i < 1000; ++i) {
    const std::string n = std::to_string(i);
    rows_a.push_back({Value(std::string("a").append(n))});
    rows_b.push_back({Value(std::string("b").append(n))});
  }
  const ColumnarTablePtr a = ColumnarFromRows(schema, rows_a, 250);
  const ColumnarTablePtr b = ColumnarFromRows(schema, rows_b, 250);
  std::vector<ColumnSlice> srcs;
  for (const ColumnarTablePtr& t : {a, b}) {
    for (const ColumnChunk& chunk : t->chunks()) {
      srcs.push_back(chunk.columns[0]);
    }
  }
  ASSERT_EQ(srcs.size(), 8u);
  ASSERT_EQ(srcs[0].col->dict().size(), 1001u);

  // Output chunk 1 starts in a's dictionary, chunk 2 in b's, chunk 3
  // repeats a string.
  const std::vector<std::vector<RowRef>> outputs = {
      {{0, 3}, {5, 7}, {2, 100}, {7, 249}},
      {{4, 0}, {1, 1}, {6, 2}},
      {{3, 9}, {3, 9}, {4, 9}},
  };
  const std::vector<size_t> distinct = {4, 3, 2};
  for (size_t o = 0; o < outputs.size(); ++o) {
    const std::vector<RowRef>& refs = outputs[o];
    ColumnData want(DataType::kString);
    ColumnData got(DataType::kString);
    for (const RowRef& r : refs) {
      want.AppendFrom(*srcs[r.chunk].col, srcs[r.chunk].offset + r.row);
    }
    got.AppendGather(srcs, refs.data(), refs.size());
    const std::string label = "output " + std::to_string(o);
    ExpectSameColumn(want, got, label);
    EXPECT_EQ(got.dict().size(), 1 + distinct[o]) << label;
    EXPECT_EQ(want.dict().size(), 1 + distinct[o]) << label;
  }
}

TEST(StringDictTest, BytesMatchValueByteSize) {
  const std::vector<Row> rows = {{S("abc")}, {N()},  {S("")},
                                 {Value(std::string(40, 'z'))},
                                 {S("abc")}, {N()}};
  const ColumnarTablePtr t =
      ColumnarFromRows(Schema({{"s", DataType::kString}}), rows, 4);
  // Mirror chunks, a typed gather of codes, and a per-cell copy.
  std::vector<ColumnPtr> cols;
  size_t base = 0;
  std::vector<std::vector<Value>> cells;
  for (const ColumnChunk& chunk : t->chunks()) {
    cols.push_back(chunk.columns[0].col);
    cells.emplace_back();
    for (size_t i = 0; i < chunk.length; ++i) {
      cells.back().push_back(rows[base + i][0]);
    }
    base += chunk.length;
  }
  auto gathered = std::make_shared<ColumnData>(DataType::kString);
  const std::vector<uint32_t> picks = {3, 0, 2, 0};
  gathered->AppendGather(SliceOf(t, 0), picks.data(), picks.size());
  cols.push_back(gathered);
  cells.push_back({rows[3][0], rows[0][0], rows[2][0], rows[0][0]});
  cols.push_back(ColumnOf(DataType::kString,
                          {rows[1][0], rows[3][0], rows[4][0], rows[2][0]}));
  cells.push_back({rows[1][0], rows[3][0], rows[4][0], rows[2][0]});

  for (size_t c = 0; c < cols.size(); ++c) {
    const ColumnData& col = *cols[c];
    for (size_t i = 0; i < cells[c].size(); ++i) {
      EXPECT_EQ(col.CellBytes(i), cells[c][i].ByteSize())
          << "column " << c << " cell " << i;
    }
    for (size_t from = 0; from <= cells[c].size(); ++from) {
      for (size_t n = 0; from + n <= cells[c].size(); ++n) {
        size_t want = 0;
        for (size_t i = from; i < from + n; ++i) {
          want += cells[c][i].ByteSize();
        }
        EXPECT_EQ(col.RangeBytes(from, n), want)
            << "column " << c << " [" << from << ", " << from + n << ")";
      }
    }
  }
}

TEST(StringDictTest, NullCellsRoundTripAndGather) {
  // A string column with nulls in both chunks: they stay null through
  // the round trip and through a gather over both chunks, which equals
  // per-cell AppendFrom.
  const std::vector<Row> rows = {{S("a")}, {N()},  {S("b")},
                                 {N()},    {S("c")}, {S("a")}};
  const ColumnarTablePtr t =
      ColumnarFromRows(Schema({{"s", DataType::kString}}), rows, 3);
  EXPECT_EQ(SliceOf(t, 0).col->type(), DataType::kString);
  EXPECT_EQ(SliceOf(t, 1).col->type(), DataType::kString);
  const std::vector<Row> back = t->MaterializeRows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(back[r][0], rows[r][0]) << "row " << r;
    EXPECT_EQ(back[r][0].is_null(), rows[r][0].is_null()) << "row " << r;
  }

  const std::vector<ColumnSlice> srcs = {SliceOf(t, 0), SliceOf(t, 1)};
  const std::vector<RowRef> refs = {{0, 2}, {0, 1}, {1, 1}, {1, 0}, {0, 0}};
  ColumnData want(DataType::kString);
  ColumnData got(DataType::kString);
  for (const RowRef& r : refs) want.AppendFrom(*srcs[r.chunk].col, r.row);
  got.AppendGather(srcs, refs.data(), refs.size());
  ExpectSameColumn(want, got, "gather over nulls");
  EXPECT_TRUE(got.GetValue(1).is_null());
  EXPECT_TRUE(got.GetValue(3).is_null());
  EXPECT_EQ(got.GetValue(0), S("b"));
  EXPECT_EQ(got.GetValue(2), S("c"));
}

TEST(ColumnChunkTest, SliceIsZeroCopy) {
  auto col = std::make_shared<ColumnData>(DataType::kInt64);
  for (int64_t i = 0; i < 10; ++i) col->AppendInt(i);
  ColumnChunk chunk;
  chunk.columns.push_back(ColumnSlice{col, 0});
  chunk.length = 10;

  ColumnChunk sub = chunk.Slice(3, 4);
  EXPECT_EQ(sub.length, 4u);
  // Same underlying ColumnData object, shifted offset.
  EXPECT_EQ(sub.columns[0].col.get(), col.get());
  EXPECT_EQ(sub.columns[0].offset, 3u);
  EXPECT_EQ(sub.ValueAt(0, 0), Value(int64_t{3}));
  EXPECT_EQ(sub.ValueAt(0, 3), Value(int64_t{6}));
}

TEST(ColumnarTableTest, AppendTableZeroCopySharesColumns) {
  Schema schema({{"a", DataType::kInt64}});
  auto col = std::make_shared<ColumnData>(DataType::kInt64);
  col->AppendInt(1);
  col->AppendInt(2);
  ColumnChunk chunk;
  chunk.columns.push_back(ColumnSlice{col, 0});
  chunk.length = 2;

  ColumnarTable a(schema);
  a.AppendChunk(chunk);
  ColumnarTable b(schema);
  b.AppendTableZeroCopy(a);
  ASSERT_EQ(b.num_rows(), 2u);
  EXPECT_EQ(b.byte_size(), a.byte_size());
  // The merged table references the same column storage.
  EXPECT_EQ(b.chunks()[0].columns[0].col.get(), col.get());
}

TEST(ColumnarTableTest, TypedChecksEverySliceAgainstTheSchema) {
  const ColumnarTable t(
      Schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}}));
  auto ints = std::make_shared<ColumnData>(DataType::kInt64);
  auto doubles = std::make_shared<ColumnData>(DataType::kDouble);
  ColumnChunk chunk;
  chunk.length = 0;
  chunk.columns = {ColumnSlice{ints, 0}, ColumnSlice{doubles, 0}};
  EXPECT_TRUE(t.Typed(chunk));
  chunk.columns[0] = ColumnSlice{};  // an absent slice has no type
  EXPECT_TRUE(t.Typed(chunk));
  chunk.columns[1] = ColumnSlice{ints, 0};
  EXPECT_FALSE(t.Typed(chunk));
  chunk.columns.pop_back();
  EXPECT_FALSE(t.Typed(chunk));
}

TEST(ColumnarTableTest, RoundTripFromRows) {
  const std::vector<Row> rows = {
      {I(1), D(1.5), S("a")},
      {I(2), N(), S("bb")},
      {N(), D(3.5), N()},
      {I(4), D(9), S("d")},
  };
  Schema schema({{"x", DataType::kInt64},
                 {"y", DataType::kDouble},
                 {"z", DataType::kString}});
  ColumnarTablePtr ct = ColumnarFromRows(schema, rows, /*batch_rows=*/3);
  ASSERT_EQ(ct->num_rows(), 4u);
  EXPECT_EQ(ct->chunks().size(), 2u);  // 3 + 1

  size_t expect_bytes = 0;
  for (const Row& r : rows) {
    for (const Value& v : r) expect_bytes += v.ByteSize();
  }
  EXPECT_EQ(ct->byte_size(), expect_bytes);

  const std::vector<Row> back = ct->MaterializeRows();
  ASSERT_EQ(back.size(), rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    ASSERT_EQ(back[r].size(), rows[r].size());
    for (size_t c = 0; c < rows[r].size(); ++c) {
      EXPECT_EQ(back[r][c], rows[r][c]) << "cell " << r << "," << c;
      // Exact variant, not just equality.
      EXPECT_EQ(back[r][c].is_int64(), rows[r][c].is_int64())
          << "cell " << r << "," << c;
      EXPECT_EQ(back[r][c].is_double(), rows[r][c].is_double())
          << "cell " << r << "," << c;
    }
  }
}

TEST(TableColumnarTest, AppendPublishesANewPayload) {
  TablePtr t = MakeTable("t", {{"a", DataType::kInt64}}, {{I(1)}, {I(2)}});
  ColumnarTablePtr c1 = t->columnar();
  EXPECT_EQ(t->columnar().get(), c1.get());  // reads share the payload
  EXPECT_EQ(c1->num_rows(), 2u);

  ASSERT_OK(t->AppendRows({{I(3)}}));
  ColumnarTablePtr c2 = t->columnar();
  EXPECT_NE(c1.get(), c2.get());
  EXPECT_EQ(c1->num_rows(), 2u);  // the old payload is unchanged
  EXPECT_EQ(c2->num_rows(), 3u);
}

TEST(TableColumnarTest, FromColumnarMaterializesRowsLazily) {
  const std::vector<Row> rows = {{I(1), S("a")}, {I(2), S("b")}};
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  ColumnarTablePtr ct = ColumnarFromRows(schema, rows, 1024);
  TablePtr t = Table::FromColumnar("res", ct);

  // Metadata comes straight from the columnar payload.
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->byte_size(), ct->byte_size());
  // The columnar view is the payload itself.
  EXPECT_EQ(t->columnar().get(), ct.get());

  // Rows are decoded only when asked for, and match.
  EXPECT_EQ(t->rows(), rows);
  EXPECT_EQ(t->row(1), rows[1]);
}

TEST(TableColumnarTest, ByteSizeMatchesRowAccounting) {
  const std::vector<Row> rows = {
      {I(1), S("hello")}, {N(), S("")}, {I(3), N()}};
  const std::vector<Row> more = {{I(4), S("hi")}, {N(), N()}};
  auto row_bytes = [](const std::vector<Row>& rs) {
    size_t bytes = 0;
    for (const Row& r : rs) {
      for (const Value& v : r) bytes += v.ByteSize();
    }
    return bytes;
  };
  TablePtr t = MakeTable("t",
                         {{"a", DataType::kInt64},
                          {"s", DataType::kString}},
                         rows, /*chunk_rows=*/2);
  EXPECT_EQ(t->byte_size(), row_bytes(rows));
  // An append re-encodes the tail chunk: its bytes leave and return.
  ASSERT_OK(t->AppendRows(more));
  EXPECT_EQ(t->byte_size(), row_bytes(rows) + row_bytes(more));
}

}  // namespace
}  // namespace fedcal
