#include "reference.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ValueHash(const fedcal::Value& v) {
  if (v.is_null()) return Mix(1);
  if (v.is_int64()) return Mix(2 ^ Mix(static_cast<uint64_t>(v.AsInt64())));
  if (v.is_double()) {
    const double d = v.AsDouble();
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return Mix(3 ^ Mix(bits));
  }
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : v.AsString()) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return Mix(4 ^ h);
}

uint64_t RowHash(const fedcal::Row& row) {
  uint64_t h = 0x51ed270b27a3f1cdULL;
  for (const fedcal::Value& v : row) h = Mix(h ^ ValueHash(v));
  return h;
}

bool RowLess(const fedcal::Row& a, const fedcal::Row& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

bool ValueClose(const fedcal::Value& a, const fedcal::Value& b) {
  if (a.is_double() || b.is_double()) {
    if (!a.is_numeric() || !b.is_numeric()) return false;
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    const double scale = std::max({std::fabs(x), std::fabs(y), 1.0});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return a.Compare(b) == 0 && a.is_null() == b.is_null();
}

std::vector<fedcal::Row> SortedRows(const fedcal::Table& table) {
  std::vector<fedcal::Row> rows = table.rows();
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

}  // namespace

fedcal::QueryType StatementType(uint32_t stmt) {
  return static_cast<fedcal::QueryType>(1 + stmt / kInstancesPerTemplate);
}

ResultDigest DigestTable(const fedcal::Table& table) {
  ResultDigest d;
  d.rows = table.num_rows();
  for (const fedcal::Row& row : table.rows()) d.checksum += RowHash(row);
  return d;
}

bool ComputeReference(const fedcal::ScenarioConfig& measured, Reference* out,
                      std::string* error) {
  fedcal::ScenarioConfig cfg = measured;
  cfg.exec_mode = fedcal::ExecMode::kSimulation;
  cfg.full_replication = true;
  cfg.profile = false;
  fedcal::Scenario sc(cfg);
  // Every statement compiles from scratch, so measured plan-cache hits
  // (cached plans with this instance's literals substituted) are checked
  // against a cold compile.
  sc.integrator().mutable_config().enable_plan_cache = false;
  out->sql.clear();
  out->answers.clear();
  for (uint32_t stmt = 0; stmt < kStatements; ++stmt) {
    out->sql.push_back(sc.MakeQueryInstance(
        StatementType(stmt), static_cast<int>(stmt % kInstancesPerTemplate)));
    auto outcome = sc.integrator().RunSync(out->sql.back());
    if (!outcome.ok() || outcome->table == nullptr) {
      *error = "reference statement " + std::to_string(stmt) + " failed: " +
               (outcome.ok() ? "no table" : outcome.status().ToString());
      return false;
    }
    ReferenceAnswer answer;
    answer.digest = DigestTable(*outcome->table);
    answer.sorted_rows = SortedRows(*outcome->table);
    out->answers.push_back(std::move(answer));
  }
  return true;
}

bool MatchesReference(const fedcal::Table& result, const ReferenceAnswer& ref,
                      ResultDigest* digest) {
  *digest = DigestTable(result);
  if (digest->rows != ref.digest.rows) return false;
  if (digest->checksum == ref.digest.checksum) return true;
  const std::vector<fedcal::Row> rows = SortedRows(result);
  for (size_t i = 0; i < rows.size(); ++i) {
    const fedcal::Row& a = rows[i];
    const fedcal::Row& b = ref.sorted_rows[i];
    if (a.size() != b.size()) return false;
    for (size_t c = 0; c < a.size(); ++c) {
      if (!ValueClose(a[c], b[c])) return false;
    }
  }
  return true;
}

}  // namespace perfbench
