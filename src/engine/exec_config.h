#pragma once

namespace fedcal {

/// \brief Work-unit prices for each physical operation.
///
/// One "work unit" is an abstract unit of CPU effort; a server converts
/// accumulated work units to simulated seconds through its speed and load
/// multiplier. The optimizer's cost model uses the *same* constants over
/// *estimated* cardinalities, so estimated and observed costs agree exactly
/// when (a) cardinality estimates are perfect and (b) the server is idle —
/// precisely the baseline the paper's calibration factors are measured
/// against.
struct WorkCosts {
  double scan_row = 1.0;        ///< per row scanned (I/O)
  double scan_byte = 0.02;      ///< per byte scanned (I/O)
  double filter_row = 0.2;      ///< per row evaluated
  double project_expr = 0.05;   ///< per row per projection expression
  double hash_build_row = 0.3;  ///< per build-side row
  double hash_probe_row = 0.15; ///< per probe-side row
  double join_output_row = 0.1; ///< per emitted joined row
  double nlj_pair = 0.2;        ///< per compared pair (nested loop)
  double agg_update_row = 0.3;  ///< per input row aggregated
  double agg_group = 0.5;       ///< per output group
  double sort_row_log = 0.25;   ///< per row * log2(rows)
  double distinct_row = 0.3;    ///< per row deduplicated
  double index_probe = 4.0;     ///< per index lookup (I/O)
  double index_match_row = 1.2; ///< per matching row fetched (I/O)
};

/// \brief Execution limits and pricing used by the Executor.
struct ExecConfig {
  WorkCosts costs;
  /// Safety valve against runaway cross products; 0 disables the check.
  size_t max_intermediate_rows = 50'000'000;
  /// Rows per column chunk of intermediate results.
  size_t batch_rows = 4096;
  /// Record per-operator runtime profiles (obs::OperatorProfile) for every
  /// execution that asks for one. Off by default; the off path costs one
  /// branch per operator. The engine's results, stats and charges are
  /// identical either way, but a profile does steer QCC's sampling: the
  /// meta-wrapper keeps a fragment whose profile shows an estimate miss
  /// out of the calibration store (ScenarioConfig::profile).
  bool profile = false;
};

/// \brief Counters accumulated while executing one plan.
///
/// `work_units` is the total (CPU + I/O); `io_units` is the I/O share
/// (byte-scan charges). Servers convert the two shares to time through
/// separate effective speeds, so background load that hammers the disk
/// (the paper's "heavy update load") slows scan-heavy query types more
/// than CPU-bound ones.
struct ExecStats {
  double work_units = 0.0;  ///< total work (CPU + I/O)
  double io_units = 0.0;    ///< I/O portion of work_units
  size_t rows_scanned = 0;
  size_t rows_output = 0;     ///< rows in the final result
  size_t bytes_output = 0;    ///< bytes in the final result
  size_t operators_executed = 0;

  double cpu_units() const { return work_units - io_units; }

  void Merge(const ExecStats& other) {
    work_units += other.work_units;
    io_units += other.io_units;
    rows_scanned += other.rows_scanned;
    rows_output += other.rows_output;
    bytes_output += other.bytes_output;
    operators_executed += other.operators_executed;
  }
};

}  // namespace fedcal
