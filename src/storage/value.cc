#include "storage/value.h"

#include <cmath>
#include <functional>
#include <vector>

#include "common/string_util.h"

namespace fedcal {

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "INT";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "VARCHAR";
  }
  return "?";
}

int Value::Compare(const Value& other) const {
  const bool ln = is_null();
  const bool rn = other.is_null();
  if (ln || rn) {
    if (ln && rn) return 0;
    return ln ? -1 : 1;
  }
  if (is_numeric() && other.is_numeric()) {
    if (is_int64() && other.is_int64()) {
      const int64_t a = AsInt64();
      const int64_t b = other.AsInt64();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    const double a = AsDouble();
    const double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (is_string() && other.is_string()) {
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Mixed string/numeric: deterministic but meaningless ordering.
  const size_t li = v_.index();
  const size_t ri = other.v_.index();
  return li < ri ? -1 : (li > ri ? 1 : 0);
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(AsInt64());
  if (is_double()) return StringFormat("%g", AsDouble());
  return "'" + AsString() + "'";
}

size_t Value::Hash() const {
  if (is_null()) return 0x9e3779b97f4a7c15ull;
  if (is_numeric()) {
    // Hash int-valued doubles identically to the equivalent int64 so that
    // cross-type equality implies equal hashes. Cross-type equality
    // compares as doubles, so an int64 hashes its double too; one that
    // rounds to +-2^63 or beyond cannot be cast back, and hashes as the
    // double an equal double does.
    const double d = AsDouble();
    if (std::floor(d) == d && std::abs(d) < 9.0e18) {
      return std::hash<int64_t>{}(static_cast<int64_t>(d));
    }
    return std::hash<double>{}(d);
  }
  return std::hash<std::string>{}(AsString());
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_int64() || is_double()) return 8;
  return AsString().size() + 8;
}

size_t HashRow(const Row& row) {
  size_t h = 0x51ed270b0a1f2c3dull;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace fedcal
