// Seeded mutation loop over the SQL front end: byte and token mutations of
// the QT1-QT4 workload instances and of the engine differential test's
// queries go through the lexer, the parser and the binder. Each input must
// come back as a bound query or a Status; a crash, a hang or a sanitizer
// report fails the test (the sanitizer CI job runs it too).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace fedcal {
namespace {

/// The tables of columnar_differential_test, by name.
std::map<std::string, Schema> FixtureSchemas() {
  const DataType kI = DataType::kInt64;
  const DataType kD = DataType::kDouble;
  const DataType kS = DataType::kString;
  return {
      {"emp", Schema({{"id", kI}, {"dept", kI}, {"salary", kD}, {"tag", kS}})},
      {"dept", Schema({{"deptid", kI}, {"budget", kD}, {"city", kS}})},
      {"sales", Schema({{"sid", kI}, {"emp_id", kI}, {"amount", kD}})},
      {"odd", Schema({{"k", kI}, {"v", kD}, {"g", kS}})},
      {"ev", Schema({{"id", kI},
                     {"key", kS},
                     {"n", kI},
                     {"x", kD},
                     {"m", kD},
                     {"q", kI}})},
      {"evd", Schema({{"did", kI}, {"label", kS}, {"w", kD}})},
      {"ik", Schema({{"k", kI}, {"g", kI}, {"v", kD}, {"sp", kI}})},
      {"ik2", Schema({{"k", kI}, {"w", kI}, {"sp", kI}})},
      {"two_dicts", Schema({{"k", kS}, {"v", kI}})},
  };
}

/// The SQL columnar_differential_test runs over FixtureSchemas.
const std::vector<std::string>& FixtureSql() {
  static const std::vector<std::string> sql = {
      "SELECT * FROM emp",
      "SELECT id, salary FROM emp WHERE salary > 50000",
      "SELECT id, salary * 1.1 FROM emp WHERE dept = 3",
      "SELECT id FROM emp WHERE tag LIKE 't1%'",
      "SELECT id FROM emp WHERE salary > 40000 AND dept < 10",
      "SELECT id FROM emp WHERE dept = 1 OR dept = 20",
      "SELECT id + 1, salary / 2, dept * 10 FROM emp WHERE id < 500",
      "SELECT salary / 0 FROM emp WHERE id < 10",
      "SELECT -salary, -id FROM emp WHERE id < 100",
      "SELECT emp.id, dept.city FROM emp, dept "
      "WHERE emp.dept = dept.deptid AND emp.id < 200",
      "SELECT emp.id, dept.city, sales.amount FROM emp, dept, sales "
      "WHERE emp.dept = dept.deptid AND emp.id = sales.emp_id "
      "AND sales.amount > 9500",
      "SELECT COUNT(*) FROM emp WHERE id < 0",
      "SELECT dept, COUNT(*), SUM(salary), AVG(salary), MIN(salary), "
      "MAX(salary) FROM emp GROUP BY dept",
      "SELECT id, salary FROM emp ORDER BY salary DESC LIMIT 50",
      "SELECT DISTINCT city FROM dept ORDER BY city",
      "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept",
      "SELECT k, v + 1 FROM odd",
      "SELECT * FROM odd WHERE k = 2",
      "SELECT key, SUM(n), AVG(n), COUNT(n), MIN(n), MAX(n), SUM(x), "
      "AVG(x), COUNT(x), MIN(x), MAX(x) FROM ev GROUP BY key",
      "SELECT key, SUM(n) FROM ev WHERE id > 150 GROUP BY key",
      "SELECT tag, COUNT(*), SUM(salary), AVG(dept), MIN(tag) FROM emp "
      "GROUP BY tag",
      "SELECT g, SUM(v), AVG(v), COUNT(v), MIN(v), MAX(v) FROM odd "
      "GROUP BY g",
      "SELECT ev.key, ev.m, evd.label, evd.w FROM ev, evd "
      "WHERE ev.n = evd.did AND evd.w > ev.x",
      "SELECT evd.label, COUNT(*) FROM ev, evd "
      "WHERE ev.n = evd.did AND ev.key < evd.label GROUP BY evd.label",
      "SELECT DISTINCT key, m FROM ev ORDER BY key",
      "SELECT ev.id, evd.label FROM ev, evd "
      "WHERE ev.x > evd.w AND ev.id < 40 AND evd.did < 10",
      "SELECT DISTINCT evd.label, ev.key FROM ev, evd "
      "WHERE ev.n = evd.did AND ev.id > 30",
      "SELECT k, COUNT(*), SUM(v), MIN(v) FROM two_dicts GROUP BY k",
      "SELECT k, v FROM two_dicts WHERE v < 5 OR v > 145",
      "SELECT k, COUNT(*), SUM(v), MIN(g) FROM ik GROUP BY k",
      "SELECT ik.g, COUNT(*), SUM(ik2.w), AVG(ik.v) FROM ik, ik2 "
      "WHERE ik.k = ik2.k GROUP BY ik.g",
      "SELECT ik2.w, COUNT(*), SUM(ik.v) FROM ik, ik2 WHERE ik.sp = ik2.sp "
      "GROUP BY ik2.w",
      "SELECT id FROM emp WHERE tag > 5",
  };
  return sql;
}

/// Tokens the token mutations insert: keywords, operators, literals at
/// the edges of their types, and broken quotes.
const std::vector<std::string>& Dictionary() {
  static const std::vector<std::string> words = {
      "SELECT", "FROM", "WHERE", "GROUP BY", "ORDER BY", "HAVING", "LIMIT",
      "JOIN", "ON", "AS", "AND", "OR", "NOT", "NULL", "IS", "IS NOT NULL",
      "DISTINCT", "BETWEEN", "IN", "LIKE", "COUNT(*)", "SUM(", "MIN(",
      "MAX(", "AVG(", "(", ")", ",", ".", "*", "-", "+", "/", "=", "<>",
      "<=", ">", "'", "''", "'a%'", "0", "-1", "0.5", "1e999", "1e-400",
      ".5e", "9223372036854775807", "9223372036854775808", "e.", "s.amount",
      "d.budget", "e.empno", "s.empno", "d.location", "e.salary", "salary",
      "id", "tag", "key", "x", "DESC", ";", "!", "\"", "\n"};
  return words;
}

/// Splits on spaces; a token mutation edits this word list.
std::vector<std::string> Words(const std::string& sql) {
  std::vector<std::string> words;
  std::string cur;
  for (char c : sql) {
    if (c == ' ') {
      if (!cur.empty()) words.push_back(std::move(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) words.push_back(std::move(cur));
  return words;
}

std::string Join(const std::vector<std::string>& words) {
  std::string out;
  for (const std::string& w : words) {
    if (!out.empty()) out.push_back(' ');
    out += w;
  }
  return out;
}

/// One to three seeded byte or token mutations of `sql`, mostly one.
std::string Mutate(const std::string& sql, Rng* rng) {
  static const std::string kAlphabet =
      "abdeilmnorstuwxyz_0123456789 .,()*+-/=<>'%";
  std::string out = sql;
  int edits = 1;
  while (edits < 3 && rng->Bernoulli(0.35)) ++edits;
  for (int e = 0; e < edits; ++e) {
    // A position in [0, n].
    const auto pos = [&](size_t n) {
      return static_cast<size_t>(rng->UniformInt(0, static_cast<int64_t>(n)));
    };
    // Mostly a character SQL uses, else any byte.
    const auto byte = [&] {
      if (rng->Bernoulli(0.3)) {
        return static_cast<char>(rng->UniformInt(0, 255));
      }
      return kAlphabet[pos(kAlphabet.size() - 1)];
    };
    if (rng->Bernoulli(0.5)) {
      std::vector<std::string> words = Words(out);
      if (words.empty()) words.push_back("SELECT");
      const std::string& pick =
          Dictionary()[rng->UniformInt(0, Dictionary().size() - 1)];
      const size_t at = pos(words.size() - 1);
      switch (rng->UniformInt(0, 4)) {
        case 0:
          words.erase(words.begin() + at);
          break;
        case 1:
          words.insert(words.begin() + at, pick);
          break;
        case 2:
          words[at] = pick;
          break;
        case 3: {
          const std::string copy = words[pos(words.size() - 1)];
          words.insert(words.begin() + at, copy);
          break;
        }
        default:
          std::swap(words[at], words[pos(words.size() - 1)]);
          break;
      }
      out = Join(words);
      continue;
    }
    switch (rng->UniformInt(0, 4)) {
      case 0:
        if (!out.empty()) out[pos(out.size() - 1)] = byte();
        break;
      case 1:
        out.insert(out.begin() + pos(out.size()), byte());
        break;
      case 2:
        if (!out.empty()) out.erase(out.begin() + pos(out.size() - 1));
        break;
      case 3:
        out.resize(pos(out.size()));
        break;
      default: {
        const size_t from = pos(out.size());
        const std::string piece = out.substr(from, pos(out.size() - from));
        out.insert(pos(out.size()), piece);
        break;
      }
    }
  }
  return out;
}

/// Parses and binds `sql` against `schemas`; a table it does not know is
/// a NotFound status.
Status ParseAndBind(const std::string& sql,
                    const std::map<std::string, Schema>& schemas) {
  FEDCAL_ASSIGN_OR_RETURN(SelectStmt stmt, ParseSelect(sql));
  std::vector<Schema> from;
  for (const TableRef& t : stmt.from) {
    auto it = schemas.find(t.table);
    if (it == schemas.end()) return Status::NotFound("no table " + t.table);
    from.push_back(it->second);
  }
  return BindQuery(stmt, from).status();
}

/// The queries the loop mutates, each with the schemas it binds against.
struct Corpus {
  std::map<std::string, Schema> catalog;   ///< the scenario's nicknames
  std::map<std::string, Schema> fixtures;  ///< FixtureSchemas
  std::vector<std::pair<std::string, const std::map<std::string, Schema>*>>
      queries;

  Corpus() : fixtures(FixtureSchemas()) {
    ScenarioConfig cfg;
    cfg.large_rows = 100;
    cfg.small_rows = 10;
    Scenario scenario(cfg);
    for (const std::string& name : scenario.catalog().nicknames()) {
      catalog.emplace(name, (*scenario.catalog().Lookup(name))->schema);
    }
    for (QueryType type : {QueryType::kQT1, QueryType::kQT2,
                           QueryType::kQT3, QueryType::kQT4}) {
      for (int instance = 0; instance < 10; ++instance) {
        queries.emplace_back(scenario.MakeQueryInstance(type, instance),
                             &catalog);
      }
    }
    for (const std::string& sql : FixtureSql()) {
      queries.emplace_back(sql, &fixtures);
    }
  }
};

const Corpus& TheCorpus() {
  static const Corpus* corpus = new Corpus();
  return *corpus;
}

TEST(SqlFuzzTest, CorpusBinds) {
  // Every query binds, bar the fixtures' one ill-typed query.
  for (const auto& [sql, schemas] : TheCorpus().queries) {
    const Status st = ParseAndBind(sql, *schemas);
    EXPECT_TRUE(st.ok() || sql == FixtureSql().back())
        << sql << ": " << st.ToString();
  }
}

/// The 20,000 inputs run as five seeded shards of 4,000, so each test
/// stays within a few seconds under ASan in a Debug build.
class SqlFuzzShardTest : public ::testing::TestWithParam<int> {};

TEST_P(SqlFuzzShardTest, MutatedQueriesBindOrFail) {
  const auto& queries = TheCorpus().queries;
  Rng rng(20261019 + GetParam());
  std::map<StatusCode, size_t> outcomes;
  for (int i = 0; i < 4'000; ++i) {
    const auto& [seed_sql, schemas] =
        queries[rng.UniformInt(0, queries.size() - 1)];
    const std::string sql = Mutate(seed_sql, &rng);
    ++outcomes[ParseAndBind(sql, *schemas).code()];
  }
  // The loop reaches the binder's checks as well as the parser's (over
  // the five shards about 1,100 inputs bind, 1,600 fail to bind and
  // 16,700 fail to parse).
  EXPECT_GT(outcomes[StatusCode::kOk], 100u);
  EXPECT_GT(outcomes[StatusCode::kParseError], 2'000u);
  EXPECT_GT(outcomes[StatusCode::kBindError], 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SqlFuzzShardTest, ::testing::Range(0, 5));

}  // namespace
}  // namespace fedcal
