#include "storage/table.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "storage/datagen.h"
#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

Schema TwoColSchema() {
  return Schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
}

TEST(SchemaTest, IndexOf) {
  Schema s = TwoColSchema();
  EXPECT_EQ(s.IndexOf("id"), 0u);
  EXPECT_EQ(s.IndexOf("name"), 1u);
  EXPECT_FALSE(s.IndexOf("missing").has_value());
}

TEST(SchemaTest, Concat) {
  Schema joined = Schema::Concat(TwoColSchema(), TwoColSchema());
  EXPECT_EQ(joined.num_columns(), 4u);
  EXPECT_EQ(joined.column(2).name, "id");
}

TEST(SchemaTest, ToString) {
  EXPECT_EQ(TwoColSchema().ToString(), "id:INT, name:VARCHAR");
}

TEST(TableTest, AppendRowValidatesArity) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.AppendRows({{I(1)}}).ok());
  EXPECT_TRUE(t.AppendRows({{I(1), S("a")}}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, AppendRowValidatesTypes) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.AppendRows({{S("oops"), S("a")}}).ok());
  EXPECT_FALSE(t.AppendRows({{I(1), I(2)}}).ok());
  // A double, even an integral one, is not an INT.
  EXPECT_FALSE(t.AppendRows({{D(1.0), S("a")}}).ok());
  // Nulls are allowed in any column.
  EXPECT_TRUE(t.AppendRows({{N(), N()}}).ok());
}

TEST(TableTest, DoubleColumnAcceptsIntValues) {
  // As SQL assignment does, an int64 for a DOUBLE column is stored as a
  // double, by AppendRows and FromRows alike.
  Table t("t", Schema({{"v", DataType::kDouble}}));
  EXPECT_TRUE(t.AppendRows({{I(5)}}).ok());
  EXPECT_TRUE(t.AppendRows({{D(5.5)}}).ok());
  ASSERT_TRUE(t.row(0)[0].is_double());
  EXPECT_EQ(t.row(0)[0].AsDouble(), 5.0);
  ASSERT_OK_AND_ASSIGN(
      TablePtr built,
      Table::FromRows("b", Schema({{"v", DataType::kDouble}}),
                      {{I(-3)}, {N()}, {I(int64_t{1} << 60)}}));
  for (const ColumnChunk& chunk : built->columnar()->chunks()) {
    EXPECT_EQ(chunk.columns[0].col->type(), DataType::kDouble);
  }
  EXPECT_TRUE(built->row(0)[0].is_double());
  EXPECT_EQ(built->row(0)[0].AsDouble(), -3.0);
  EXPECT_TRUE(built->row(1)[0].is_null());
  EXPECT_EQ(built->row(2)[0].AsDouble(), 0x1p60);
}

TEST(TableTest, FromRowsBuildsNothingOnABadRow) {
  // The check AppendRows makes, over the whole batch before anything is
  // built: a double in an INT column, a string in a DOUBLE one, a short
  // row.
  const Schema schema({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  const std::vector<Row> good = {{I(1), D(0.5)}, {I(2), I(3)}, {N(), N()}};
  ASSERT_OK_AND_ASSIGN(TablePtr t, Table::FromRows("t", schema, good, 2));
  EXPECT_EQ(t->num_rows(), 3u);
  for (const Row& bad : std::vector<Row>{
           {D(3.0), D(0.5)}, {I(3), S("x")}, {I(3)}}) {
    std::vector<Row> rows = good;
    rows.insert(rows.begin() + 1, bad);
    const auto built = Table::FromRows("t", schema, rows, 2);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TableTest, ByteSizeTracksAppends) {
  Table t("t", TwoColSchema());
  EXPECT_EQ(t.byte_size(), 0u);
  ASSERT_OK(t.AppendRows({{I(1), S("abcd")}}));
  EXPECT_GT(t.byte_size(), 8u);
  const size_t after_one = t.byte_size();
  ASSERT_OK(t.AppendRows({{I(2), S("abcd")}}));
  EXPECT_EQ(t.byte_size(), 2 * after_one);
  EXPECT_DOUBLE_EQ(t.avg_row_bytes(), static_cast<double>(after_one));
}

/// Rows from, ..., from + n - 1 of TwoColSchema; row i names "s<i % 5>".
std::vector<Row> NumberedRows(int64_t from, int64_t n) {
  std::vector<Row> rows;
  for (int64_t i = from; i < from + n; ++i) {
    rows.push_back({I(i), Value(StringFormat("s%d", static_cast<int>(i % 5)))});
  }
  return rows;
}

/// TwoColSchema's table `name` of NumberedRows(0, n), in chunks of 4.
TablePtr NumberedTable(const std::string& name, int64_t n) {
  return Table::FromRows(name, TwoColSchema(), NumberedRows(0, n), 4)
      .MoveValue();
}

TEST(TableTest, AppendSharesEverySealedChunk) {
  // 10 rows in chunks of 4: two sealed chunks and a tail of 2.
  TablePtr t = NumberedTable("t", 10);
  const ColumnarTablePtr before = t->columnar();
  ASSERT_EQ(before->chunks().size(), 3u);
  ASSERT_OK(t->AppendRows(NumberedRows(10, 5)));
  const ColumnarTablePtr after = t->columnar();
  ASSERT_NE(after.get(), before.get());
  // The tail's 2 rows and the 5 new ones make one more sealed chunk and a
  // tail of 3.
  ASSERT_EQ(after->chunks().size(), 4u);
  EXPECT_EQ(after->chunks()[2].length, 4u);
  EXPECT_EQ(after->chunks()[3].length, 3u);
  for (size_t k = 0; k < 2; ++k) {
    for (size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(after->chunks()[k].columns[c].col.get(),
                before->chunks()[k].columns[c].col.get())
          << "chunk " << k << " column " << c;
    }
  }
  EXPECT_EQ(t->rows(), NumberedRows(0, 15));
}

TEST(TableTest, PayloadTakenBeforeAnAppendKeepsItsRows) {
  TablePtr t = NumberedTable("t", 6);
  const ColumnarTablePtr before = t->columnar();
  const size_t bytes = before->byte_size();
  ASSERT_OK(t->AppendRows(NumberedRows(6, 7)));
  EXPECT_EQ(before->num_rows(), 6u);
  EXPECT_EQ(before->byte_size(), bytes);
  EXPECT_EQ(before->MaterializeRows(), NumberedRows(0, 6));
  EXPECT_EQ(t->num_rows(), 13u);
}

TEST(TableTest, NewStringGoesIntoACopyOfTheDictionary) {
  TablePtr t = NumberedTable("t", 6);
  const ColumnarTablePtr before = t->columnar();
  const ColumnData& old_tail = *before->chunks().back().columns[1].col;
  const StringDict* old_dict = &old_tail.dict();
  const size_t old_size = old_dict->size();
  ASSERT_OK(t->AppendRows({{I(6), S("brand new")}}));
  // The dictionary the old payload codes in is unchanged...
  EXPECT_EQ(&old_tail.dict(), old_dict);
  EXPECT_EQ(old_dict->size(), old_size);
  EXPECT_EQ(old_dict->Find("brand new"), StringDict::kAbsent);
  // ...and the new tail codes in a copy that holds the new string.
  const ColumnData& new_tail = *t->columnar()->chunks().back().columns[1].col;
  EXPECT_NE(&new_tail.dict(), old_dict);
  EXPECT_NE(new_tail.dict().Find("brand new"), StringDict::kAbsent);
  EXPECT_EQ(t->row(6)[1].AsString(), "brand new");
  EXPECT_EQ(t->row(5)[1].AsString(), "s0");
}

TEST(TableTest, AppendOfKnownStringsKeepsOneDictionary) {
  TablePtr t = NumberedTable("t", 6);
  ASSERT_OK(t->AppendRows(NumberedRows(6, 9)));
  const ColumnarTablePtr data = t->columnar();
  for (const ColumnChunk& chunk : data->chunks()) {
    EXPECT_EQ(&chunk.columns[1].col->dict(),
              &data->chunks()[0].columns[1].col->dict());
  }
}

/// Cell-by-cell equality that also tells an int64 cell from a double one.
void ExpectSameCells(const std::vector<Row>& got,
                     const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "row " << r;
    for (size_t c = 0; c < got[r].size(); ++c) {
      const Value& a = got[r][c];
      const Value& b = want[r][c];
      EXPECT_TRUE(a.is_null() == b.is_null() && a.is_int64() == b.is_int64() &&
                  a.is_double() == b.is_double() && a == b)
          << "cell " << r << "," << c << " is " << a.ToString() << ", want "
          << b.ToString();
    }
  }
}

TEST(TableTest, AppendCopiesTheTailByKind) {
  const Schema schema({{"id", DataType::kInt64},
                       {"name", DataType::kString},
                       {"v", DataType::kDouble},
                       {"n", DataType::kInt64}});
  // Chunks of 8: rows 8-12 are the tail. It holds a NULL in each column
  // and an int64 cell for the DOUBLE column `v` (row 11), stored as a
  // double.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 13; ++i) {
    rows.push_back({I(i), i == 9 ? N() : Value("s" + std::to_string(i % 3)),
                    i == 10 ? N() : (i == 11 ? I(i) : D(0.5 * i)),
                    i == 12 ? N() : I(-i)});
  }
  for (const bool new_string : {false, true}) {
    ASSERT_OK_AND_ASSIGN(TablePtr t, Table::FromRows("t", schema, rows, 8));
    const ColumnarTablePtr before = t->columnar();
    ASSERT_EQ(before->chunks().size(), 2u);
    ASSERT_EQ(before->chunks()[1].columns[2].col->type(), DataType::kDouble);
    ASSERT_TRUE(t->row(11)[2].is_double());
    std::vector<Row> batch;
    for (int64_t i = 13; i < 19; ++i) {
      batch.push_back({I(i),
                       Value(new_string && i == 15 ? "fresh"
                                                   : "s" + std::to_string(i % 3)),
                       D(0.5 * i), i == 17 ? N() : I(-i)});
    }
    ASSERT_OK(t->AppendRows(batch));
    std::vector<Row> all = rows;
    all.insert(all.end(), batch.begin(), batch.end());
    ASSERT_OK_AND_ASSIGN(const TablePtr rebuilt,
                         Table::FromRows("t", schema, all, 8));
    SCOPED_TRACE(new_string ? "with a new string" : "known strings");
    ExpectSameCells(t->rows(), rebuilt->rows());
    const ColumnarTablePtr after = t->columnar();
    EXPECT_EQ(after->byte_size(), rebuilt->byte_size());
    size_t bytes = 0;
    for (const ColumnChunk& chunk : after->chunks()) {
      for (const ColumnSlice& s : chunk.columns) {
        bytes += s.col->RangeBytes(s.offset, chunk.length);
      }
    }
    EXPECT_EQ(after->byte_size(), bytes);
    // The old tail's strings are read through the new chunk's dictionary.
    const ColumnData& names = *after->chunks()[1].columns[1].col;
    EXPECT_EQ(&names.dict() == &before->chunks()[1].columns[1].col->dict(),
              !new_string);
  }
}

TEST(TableTest, BadRowAppendsNothing) {
  TablePtr t = NumberedTable("t", 6);
  ASSERT_OK(t->CreateIndex("id"));
  const ColumnarTablePtr before = t->columnar();
  std::vector<Row> batch = NumberedRows(6, 3);
  batch.push_back({S("not an id"), S("x")});
  EXPECT_FALSE(t->AppendRows(batch).ok());
  EXPECT_EQ(t->columnar().get(), before.get());
  EXPECT_EQ(t->num_rows(), 6u);
  EXPECT_TRUE(t->GetIndex("id")->Probe(I(6)).empty());
}

TEST(TableTest, CloneAsSharesPayload) {
  TablePtr t = NumberedTable("orig", 6);
  auto copy = t->CloneAs("copy");
  EXPECT_EQ(copy->name(), "copy");
  EXPECT_EQ(copy->columnar().get(), t->columnar().get());
  ASSERT_OK(copy->AppendRows(NumberedRows(6, 3)));
  EXPECT_EQ(copy->num_rows(), 9u);
  EXPECT_EQ(t->num_rows(), 6u);  // unaffected by the clone's append
  EXPECT_EQ(t->rows(), NumberedRows(0, 6));
}

TEST(DatagenTest, GeneratesRequestedShape) {
  Rng rng(1);
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 500;
  spec.columns = {{"id", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"tag", DataType::kString}};
  spec.generators = {ColumnGenSpec::Serial(),
                     ColumnGenSpec::UniformDouble(0, 1),
                     ColumnGenSpec::StringTag("item", 1, 9)};
  ASSERT_OK_AND_ASSIGN(TablePtr t, GenerateTable(spec, &rng));
  EXPECT_EQ(t->num_rows(), 500u);
  EXPECT_EQ(t->row(0)[0].AsInt64(), 0);
  EXPECT_EQ(t->row(499)[0].AsInt64(), 499);
  EXPECT_TRUE(t->row(7)[2].AsString().starts_with("item"));
}

TEST(DatagenTest, UniformIntWithinRange) {
  Rng rng(2);
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 1000;
  spec.columns = {{"k", DataType::kInt64}};
  spec.generators = {ColumnGenSpec::UniformInt(10, 20)};
  ASSERT_OK_AND_ASSIGN(TablePtr t, GenerateTable(spec, &rng));
  for (const Row& r : t->rows()) {
    ASSERT_GE(r[0].AsInt64(), 10);
    ASSERT_LE(r[0].AsInt64(), 20);
  }
}

TEST(DatagenTest, NullFractionProducesNulls) {
  Rng rng(3);
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 2000;
  spec.columns = {{"k", DataType::kInt64}};
  auto gen = ColumnGenSpec::UniformInt(0, 9);
  gen.null_fraction = 0.25;
  spec.generators = {gen};
  ASSERT_OK_AND_ASSIGN(TablePtr t, GenerateTable(spec, &rng));
  size_t nulls = 0;
  for (const Row& r : t->rows()) nulls += r[0].is_null() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(nulls), 500.0, 90.0);
}

TEST(DatagenTest, MismatchedGeneratorsRejected) {
  Rng rng(4);
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 10;
  spec.columns = {{"a", DataType::kInt64}, {"b", DataType::kInt64}};
  spec.generators = {ColumnGenSpec::Serial()};
  EXPECT_FALSE(GenerateTable(spec, &rng).ok());
}

TEST(DatagenTest, EmptyPoolRejected) {
  Rng rng(4);
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 10;
  spec.columns = {{"a", DataType::kString}};
  spec.generators = {ColumnGenSpec::StringPool({})};
  EXPECT_FALSE(GenerateTable(spec, &rng).ok());
}

TEST(DatagenTest, DeterministicForSameSeed) {
  TableGenSpec spec;
  spec.name = "g";
  spec.num_rows = 50;
  spec.columns = {{"v", DataType::kDouble}};
  spec.generators = {ColumnGenSpec::UniformDouble(0, 100)};
  Rng r1(9), r2(9);
  auto t1 = GenerateTable(spec, &r1).MoveValue();
  auto t2 = GenerateTable(spec, &r2).MoveValue();
  for (size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(t1->row(i)[0], t2->row(i)[0]);
  }
}

}  // namespace
}  // namespace fedcal
