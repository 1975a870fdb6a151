#include "sql/lexer.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace fedcal {
namespace {

using namespace fedcal::testing;  // NOLINT

TEST(LexerTest, KeywordsAreCaseInsensitiveAndUppercased) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("select From WHERE"));
  ASSERT_EQ(tokens.size(), 4u);  // + end
  EXPECT_TRUE(tokens[0].IsKeyword("SELECT"));
  EXPECT_TRUE(tokens[1].IsKeyword("FROM"));
  EXPECT_TRUE(tokens[2].IsKeyword("WHERE"));
  EXPECT_EQ(tokens[3].type, TokenType::kEnd);
}

TEST(LexerTest, IdentifiersKeepSpelling) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("MyTable my_col2"));
  EXPECT_EQ(tokens[0].type, TokenType::kIdentifier);
  EXPECT_EQ(tokens[0].text, "MyTable");
  EXPECT_EQ(tokens[1].text, "my_col2");
}

TEST(LexerTest, IntegerLiterals) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("0 42 123456789012"));
  EXPECT_EQ(tokens[0].int_value, 0);
  EXPECT_EQ(tokens[1].int_value, 42);
  EXPECT_EQ(tokens[2].int_value, 123456789012LL);
}

TEST(LexerTest, DoubleLiterals) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("1.5 .25 2e3 1.5e-2"));
  EXPECT_EQ(tokens[0].type, TokenType::kDoubleLiteral);
  EXPECT_DOUBLE_EQ(tokens[0].double_value, 1.5);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 0.25);
  EXPECT_DOUBLE_EQ(tokens[2].double_value, 2000.0);
  EXPECT_DOUBLE_EQ(tokens[3].double_value, 0.015);
  // Out of the double or int64 range: a parse error, not an exception.
  for (const char* sql : {"1e999", "1e-400", "9223372036854775808"}) {
    const auto bad = Tokenize(sql);
    ASSERT_FALSE(bad.ok()) << sql;
    EXPECT_EQ(bad.status().code(), StatusCode::kParseError) << sql;
  }
}

TEST(LexerTest, StringLiteralsWithEscapes) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("'abc' 'it''s'"));
  EXPECT_EQ(tokens[0].type, TokenType::kStringLiteral);
  EXPECT_EQ(tokens[0].text, "abc");
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'oops").ok());
}

TEST(LexerTest, TwoCharOperators) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("<= >= <> != < >"));
  EXPECT_TRUE(tokens[0].IsOperator("<="));
  EXPECT_TRUE(tokens[1].IsOperator(">="));
  EXPECT_TRUE(tokens[2].IsOperator("<>"));
  EXPECT_TRUE(tokens[3].IsOperator("<>"));  // != normalizes
  EXPECT_TRUE(tokens[4].IsOperator("<"));
  EXPECT_TRUE(tokens[5].IsOperator(">"));
}

TEST(LexerTest, PunctuationAndArithmetic) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("( ) , . + - * /"));
  const char* expected[] = {"(", ")", ",", ".", "+", "-", "*", "/"};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(tokens[i].IsOperator(expected[i]));
  }
}

TEST(LexerTest, UnknownCharacterFails) {
  EXPECT_FALSE(Tokenize("select @x").ok());
  EXPECT_FALSE(Tokenize("a ; b").ok());
}

TEST(LexerTest, PositionsRecorded) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("ab  cd"));
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 4u);
}

TEST(LexerTest, EmptyInputYieldsEndOnly) {
  ASSERT_OK_AND_ASSIGN(auto tokens, Tokenize("   "));
  ASSERT_EQ(tokens.size(), 1u);
  EXPECT_EQ(tokens[0].type, TokenType::kEnd);
}

}  // namespace
}  // namespace fedcal
