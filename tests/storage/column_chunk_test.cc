#include "storage/column_chunk.h"

#include <gtest/gtest.h>

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
  ColumnData col(ColumnData::Kind::kInt64);
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

TEST(ColumnDataTest, MixedDemotionPreservesExactVariants) {
  // An int64 Value appended to a DOUBLE column demotes to kMixed; the
  // original variants must survive the round trip (the differential
  // oracle compares representations, not numeric equality).
  ColumnData col(DataType::kDouble);
  col.AppendValue(Value(1.5));
  col.AppendValue(Value(int64_t{7}));  // variant mismatch -> demote
  EXPECT_EQ(col.kind(), ColumnData::Kind::kMixed);
  col.AppendValue(Value::Null_());
  EXPECT_EQ(col.GetValue(0), Value(1.5));
  EXPECT_EQ(col.GetValue(1), Value(int64_t{7}));
  EXPECT_FALSE(col.GetValue(1).is_double());
  EXPECT_TRUE(col.IsNull(2));
}

TEST(ColumnDataTest, DemotionAfterNullsKeepsNullCells) {
  ColumnData col(DataType::kInt64);
  col.AppendValue(Value(int64_t{1}));
  col.AppendNull();
  col.AppendValue(Value("oops"));  // string in INT column -> demote
  EXPECT_EQ(col.kind(), ColumnData::Kind::kMixed);
  EXPECT_FALSE(col.IsNull(0));
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_EQ(col.GetValue(2), Value("oops"));
}

TEST(ColumnDataTest, CellBytesMatchesValueByteSize) {
  ColumnData col(DataType::kString);
  const std::vector<Value> cells = {Value("abc"), Value::Null_(),
                                    Value(std::string(100, 'x'))};
  for (const Value& v : cells) col.AppendValue(v);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(col.CellBytes(i), cells[i].ByteSize()) << "cell " << i;
  }
  // Mixed column too.
  ColumnData mixed(DataType::kInt64);
  mixed.AppendValue(Value(int64_t{1}));
  mixed.AppendValue(Value(2.5));
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(mixed.CellBytes(i), mixed.GetValue(i).ByteSize());
  }
}

TEST(ColumnDataTest, AppendFromPreservesVariantAcrossKinds) {
  ColumnData src(DataType::kDouble);
  src.AppendValue(Value(1.0));
  src.AppendValue(Value(int64_t{2}));  // demotes src
  ColumnData dst(DataType::kDouble);
  dst.AppendFrom(src, 0);
  dst.AppendFrom(src, 1);
  EXPECT_EQ(dst.GetValue(0), Value(1.0));
  EXPECT_EQ(dst.GetValue(1), Value(int64_t{2}));
  EXPECT_FALSE(dst.GetValue(1).is_double());
}

ColumnPtr ColumnOf(DataType declared, const std::vector<Value>& cells) {
  auto col = std::make_shared<ColumnData>(declared);
  for (const Value& v : cells) col->AppendValue(v);
  return col;
}

/// Same kind, size, bitmap presence and exact cell variants.
void ExpectSameColumn(const ColumnData& want, const ColumnData& got,
                      const std::string& label) {
  ASSERT_EQ(want.kind(), got.kind()) << label;
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
      {"mixed", DataType::kDouble, {D(1.5), I(2), N(), D(4), I(5), D(6)}},
  };
  const std::vector<uint32_t> rows = {4, 0, 2, 2, 1};
  for (const Case& c : cases) {
    ColumnPtr src = ColumnOf(c.declared, c.cells);
    for (size_t offset : {0u, 1u}) {
      const ColumnSlice slice{src, offset};
      // Into an empty column of the source's kind, and into one that
      // already holds a null (its bitmap is allocated).
      for (bool prefilled : {false, true}) {
        ColumnData want(src->kind());
        ColumnData got(src->kind());
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
  // A kind mismatch (int64 cells into a DOUBLE column) demotes exactly
  // as AppendFrom does.
  ColumnPtr ints = ColumnOf(DataType::kInt64, {I(1), I(2), I(3)});
  ColumnData want(DataType::kDouble);
  ColumnData got(DataType::kDouble);
  const std::vector<uint32_t> all = {0, 1, 2};
  for (uint32_t r : all) want.AppendFrom(*ints, r);
  got.AppendGather(ColumnSlice{ints, 0}, all.data(), all.size());
  ExpectSameColumn(want, got, "int64 into double");
  EXPECT_EQ(got.kind(), ColumnData::Kind::kMixed);
}

TEST(ColumnDataTest, MultiChunkGatherEqualsPerCellAppendFrom) {
  // Typed chunks first, then a null-bearing and a demoted chunk: the
  // typed prefix stops at the first cell from either and the rest goes
  // through AppendFrom.
  const std::vector<ColumnSlice> srcs = {
      {ColumnOf(DataType::kDouble, {D(1), D(2), D(3), D(4)}), 1},
      {ColumnOf(DataType::kDouble, {D(10), D(20), D(30)}), 0},
      {ColumnOf(DataType::kDouble, {D(7), N(), D(9)}), 0},
      {ColumnOf(DataType::kDouble, {D(0.5), I(6)}), 0},
  };
  const std::vector<RowRef> typed = {{1, 2}, {0, 0}, {0, 2}, {1, 0}};
  const std::vector<RowRef> mixed = {{1, 1}, {0, 1}, {2, 1}, {1, 2},
                                     {3, 1}, {2, 0}, {0, 0}};
  for (const auto& [label, refs] :
       {std::pair{"typed", typed}, std::pair{"mixed", mixed}}) {
    ColumnData want(DataType::kDouble);
    ColumnData got(DataType::kDouble);
    for (const RowRef& r : refs) {
      want.AppendFrom(*srcs[r.chunk].col, srcs[r.chunk].offset + r.row);
    }
    got.AppendGather(srcs.data(), refs.data(), refs.size());
    ExpectSameColumn(want, got, label);
  }
}

TEST(ColumnDataTest, RangeBytesEqualsCellBytesSum) {
  const std::vector<std::pair<DataType, std::vector<Value>>> columns = {
      {DataType::kInt64, {I(1), I(2), I(3), I(4)}},
      {DataType::kDouble, {D(1), N(), D(3), N()}},
      {DataType::kString, {S("abc"), N(), Value(std::string(30, 'y')), S("")}},
      {DataType::kInt64, {I(1), D(2.5), N(), S("s")}},  // demoted
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

TEST(ColumnChunkTest, SliceIsZeroCopy) {
  auto col = std::make_shared<ColumnData>(ColumnData::Kind::kInt64);
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
  auto col = std::make_shared<ColumnData>(ColumnData::Kind::kInt64);
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

TEST(ColumnarTableTest, RoundTripFromRows) {
  const std::vector<Row> rows = {
      {I(1), D(1.5), S("a")},
      {I(2), N(), S("bb")},
      {N(), D(3.5), N()},
      {I(4), I(9), S("d")},  // int64 in DOUBLE column: mixed cell
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

TEST(TableColumnarTest, MirrorIsCachedAndInvalidatedByAppend) {
  TablePtr t = MakeTable("t", {{"a", DataType::kInt64}},
                         {{I(1)}, {I(2)}});
  ColumnarTablePtr c1 = t->columnar(1024);
  ColumnarTablePtr c2 = t->columnar(1024);
  EXPECT_EQ(c1.get(), c2.get());  // cached
  EXPECT_EQ(c1->num_rows(), 2u);

  t->AppendRowUnchecked({I(3)});
  ColumnarTablePtr c3 = t->columnar(1024);
  EXPECT_NE(c1.get(), c3.get());  // invalidated
  EXPECT_EQ(c3->num_rows(), 3u);
}

TEST(TableColumnarTest, FromColumnarMaterializesRowsLazily) {
  const std::vector<Row> rows = {{I(1), S("a")}, {I(2), S("b")}};
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
  ColumnarTablePtr ct = ColumnarFromRows(schema, rows, 1024);
  TablePtr t = Table::FromColumnar("res", ct);

  // Metadata comes straight from the columnar payload.
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->byte_size(), ct->byte_size());
  // The columnar view is the payload itself, not a rebuilt mirror.
  EXPECT_EQ(t->columnar(7).get(), ct.get());

  // Row access materializes on demand and matches.
  EXPECT_EQ(t->rows(), rows);
}

TEST(TableColumnarTest, ByteSizeMatchesRowAccounting) {
  TablePtr t = MakeTable("t",
                         {{"a", DataType::kInt64},
                          {"s", DataType::kString}},
                         {{I(1), S("hello")}, {N(), S("")}, {I(3), N()}});
  ColumnarTablePtr ct = t->columnar(2);
  EXPECT_EQ(ct->byte_size(), t->byte_size());
}

}  // namespace
}  // namespace fedcal
