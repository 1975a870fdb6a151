#include "storage/index.h"

namespace fedcal {

void HashIndex::Insert(const Value& key, size_t row_id) {
  if (key.is_null()) return;
  entries_.emplace(key.Hash(), row_id);
}

std::vector<size_t> HashIndex::Probe(const Value& key) const {
  std::vector<size_t> out;
  if (key.is_null()) return out;
  auto [begin, end] = entries_.equal_range(key.Hash());
  for (auto it = begin; it != end; ++it) out.push_back(it->second);
  return out;
}

}  // namespace fedcal
