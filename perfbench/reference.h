#pragma once

// The statement set every workload draws from and the per-statement
// reference answers results are checked against.

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"
#include "workload/scenario.h"

namespace perfbench {

/// The four §5.2 templates times their ten paper instances. Statement i
/// is template QT(1 + i / 10), instance i % 10.
constexpr int kInstancesPerTemplate = 10;
constexpr int kStatements = 4 * kInstancesPerTemplate;

fedcal::QueryType StatementType(uint32_t stmt);

/// Row count plus an order-independent checksum over the exact bits of
/// every value (equal multisets of rows give equal checksums).
struct ResultDigest {
  uint64_t rows = 0;
  uint64_t checksum = 0;
};

ResultDigest DigestTable(const fedcal::Table& table);

struct ReferenceAnswer {
  ResultDigest digest;
  /// Rows in canonical (sorted) order, for the tolerant comparison.
  std::vector<fedcal::Row> sorted_rows;
};

/// SQL text and reference answer of every statement.
struct Reference {
  std::vector<std::string> sql;
  std::vector<ReferenceAnswer> answers;
};

/// Runs every statement once on the deterministic simulator with full
/// replication (every query a single-server fragment, no faults, no
/// writes) and the plan cache off (every statement a cold compile) over
/// the data `measured` generates, and keeps the answers.
/// Fails (returns false) if any statement fails there.
bool ComputeReference(const fedcal::ScenarioConfig& measured, Reference* out,
                      std::string* error);

/// True when `result` holds the reference's rows: same row count, and
/// either the same exact checksum or, row by row in canonical order, equal
/// integers and strings and doubles within 1e-9 relative (aggregates summed
/// in another order differ in the last bits). `digest` receives the
/// result's own digest.
bool MatchesReference(const fedcal::Table& result, const ReferenceAnswer& ref,
                      ResultDigest* digest);

}  // namespace perfbench
