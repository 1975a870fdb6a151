#include "sql/lexer.h"

#include <cctype>
#include <stdexcept>
#include <unordered_set>

#include "common/string_util.h"

namespace fedcal {

namespace {

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kw = {
      "SELECT", "FROM",  "WHERE", "GROUP",  "BY",    "HAVING", "ORDER",
      "LIMIT",  "JOIN",  "INNER", "ON",     "AS",    "AND",    "OR",
      "NOT",    "COUNT", "SUM",   "AVG",    "MIN",   "MAX",    "ASC",
      "DESC",   "NULL",  "IS",    "DISTINCT", "BETWEEN", "IN", "LIKE"};
  return kw;
}

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& sql) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = sql.size();
  while (i < n) {
    const char c = sql[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    const size_t start = i;
    if (IsIdentStart(c)) {
      size_t j = i + 1;
      while (j < n && IsIdentChar(sql[j])) ++j;
      std::string word = sql.substr(i, j - i);
      std::string upper = ToUpper(word);
      Token t;
      t.position = start;
      if (Keywords().count(upper)) {
        t.type = TokenType::kKeyword;
        t.text = upper;
      } else {
        t.type = TokenType::kIdentifier;
        t.text = word;
      }
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
      size_t j = i;
      bool is_double = false;
      while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      if (j < n && sql[j] == '.') {
        is_double = true;
        ++j;
        while (j < n && std::isdigit(static_cast<unsigned char>(sql[j]))) ++j;
      }
      if (j < n && (sql[j] == 'e' || sql[j] == 'E')) {
        size_t k = j + 1;
        if (k < n && (sql[k] == '+' || sql[k] == '-')) ++k;
        if (k < n && std::isdigit(static_cast<unsigned char>(sql[k]))) {
          is_double = true;
          j = k;
          while (j < n && std::isdigit(static_cast<unsigned char>(sql[j])))
            ++j;
        }
      }
      Token t;
      t.position = start;
      t.text = sql.substr(i, j - i);
      try {
        if (is_double) {
          t.type = TokenType::kDoubleLiteral;
          t.double_value = std::stod(t.text);
        } else {
          t.type = TokenType::kIntLiteral;
          t.int_value = std::stoll(t.text);
        }
      } catch (const std::out_of_range&) {
        // Past the int64 range, or a double that overflows or underflows.
        return Status::ParseError("numeric literal out of range: " + t.text);
      }
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    if (c == '\'') {
      std::string text;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (sql[j] == '\'') {
          if (j + 1 < n && sql[j + 1] == '\'') {
            text.push_back('\'');
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        text.push_back(sql[j]);
        ++j;
      }
      if (!closed) {
        return Status::ParseError(StringFormat(
            "unterminated string literal at offset %zu", start));
      }
      Token t;
      t.position = start;
      t.type = TokenType::kStringLiteral;
      t.text = std::move(text);
      tokens.push_back(std::move(t));
      i = j;
      continue;
    }
    // Operators and punctuation (two-char first).
    auto push_op = [&](const std::string& op) {
      Token t;
      t.position = start;
      t.type = TokenType::kOperator;
      t.text = op;
      tokens.push_back(std::move(t));
      i += op.size();
    };
    if (i + 1 < n) {
      const std::string two = sql.substr(i, 2);
      if (two == "<=" || two == ">=" || two == "<>" || two == "!=") {
        push_op(two == "!=" ? "<>" : two);
        continue;
      }
    }
    switch (c) {
      case '=':
      case '<':
      case '>':
      case '+':
      case '-':
      case '*':
      case '/':
      case '(':
      case ')':
      case ',':
      case '.':
        push_op(std::string(1, c));
        continue;
      default:
        return Status::ParseError(StringFormat(
            "unexpected character '%c' at offset %zu", c, start));
    }
  }
  Token end;
  end.type = TokenType::kEnd;
  end.position = n;
  tokens.push_back(end);
  return tokens;
}

}  // namespace fedcal
