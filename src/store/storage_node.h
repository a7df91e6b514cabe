// Per-data-center storage state of the replicated key-value store: a
// last-writer-wins versioned map plus the bookkeeping needed to hand a
// whole object group to a new replica during migration.
#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "store/version.h"

namespace geored::store {

class StorageNode {
 public:
  /// Applies a write if it is newer than what is stored (LWW merge).
  /// Returns true when the write advanced the stored version.
  bool apply_write(ObjectId id, const VersionedValue& value);

  /// Current value (exists() == false when the key is unknown here).
  VersionedValue read(ObjectId id) const;

  /// All objects of one group, for migration transfers, sorted by object id.
  /// `group_of` maps an object to its group id. The sort matters: data_ is
  /// an unordered map, and a migration snapshot in hash-table order would
  /// make transfer event sequences (and anything serialized from them)
  /// depend on the allocator — the determinism lint flags exactly this
  /// pattern (unordered iteration feeding an output path).
  template <typename GroupFn>
  std::vector<std::pair<ObjectId, VersionedValue>> export_group(
      std::uint32_t group, const GroupFn& group_of) const {
    std::vector<std::pair<ObjectId, VersionedValue>> out;
    for (const auto& [id, value] : data_) {  // lint: unordered-iter-ok (sorted below)
      if (group_of(id) == group) out.emplace_back(id, value);
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  /// Drops every object of one group (called when this node stops holding
  /// the group's replica).
  template <typename GroupFn>
  void drop_group(std::uint32_t group, const GroupFn& group_of) {
    for (auto it = data_.begin(); it != data_.end();) {
      it = group_of(it->first) == group ? data_.erase(it) : std::next(it);
    }
  }

  /// Total bytes of stored values in one group (migration transfer size).
  template <typename GroupFn>
  std::size_t group_bytes(std::uint32_t group, const GroupFn& group_of) const {
    std::size_t total = 0;
    // Order-insensitive reduction (a sum), so hash order cannot leak out.
    for (const auto& [id, value] : data_) {  // lint: unordered-iter-ok
      if (group_of(id) == group) {
        total += value.data.size() + sizeof(Version) + sizeof(ObjectId);
      }
    }
    return total;
  }

  std::size_t object_count() const { return data_.size(); }

 private:
  std::unordered_map<ObjectId, VersionedValue> data_;
};

}  // namespace geored::store
