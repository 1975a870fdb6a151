#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace fedcal {

class Table;

/// \brief A hash index over one column of a table: equality lookups
/// return matching row ids without scanning.
///
/// Maintained incrementally as rows are appended. NULL keys are not
/// indexed (SQL equality never matches NULL).
class HashIndex {
 public:
  HashIndex(std::string column_name, size_t column_index)
      : column_name_(std::move(column_name)), column_index_(column_index) {}

  const std::string& column_name() const { return column_name_; }
  size_t column_index() const { return column_index_; }
  size_t num_entries() const { return entries_.size(); }

  /// Indexes row `row_id`, whose cell in the indexed column is `key`
  /// (called by Table on append).
  void Insert(const Value& key, size_t row_id);

  /// Row ids whose key equals `key` (hash probe + exact verification by
  /// the caller via the table; hash collisions are possible here).
  std::vector<size_t> Probe(const Value& key) const;

 private:
  std::string column_name_;
  size_t column_index_;
  std::unordered_multimap<size_t, size_t> entries_;  ///< hash -> row id
};

}  // namespace fedcal
