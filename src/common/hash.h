#ifndef SMDB_COMMON_HASH_H_
#define SMDB_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "common/types.h"

namespace smdb {

#ifndef SMDB_HASH_SALT
#define SMDB_HASH_SALT 0
#endif

/// The one hasher behind every unordered container in the simulator.
///
/// No simulated result may depend on the iteration order of a hash
/// container. Building with a different SMDB_HASH_SALT (the CMake cache
/// variable of the same name) reshuffles every bucket layout; a salted
/// build must reproduce the default build's statistics byte for byte.
struct Hasher {
  static constexpr uint64_t kSalt = SMDB_HASH_SALT;

  size_t operator()(uint64_t v) const noexcept {
    // splitmix64's finaliser.
    v ^= kSalt;
    v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
    v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<size_t>(v ^ (v >> 31));
  }
  size_t operator()(const RecordId& r) const noexcept {
    return (*this)((static_cast<uint64_t>(r.page) << 16) | r.slot);
  }
};

template <typename K, typename V>
using HashMap = std::unordered_map<K, V, Hasher>;
template <typename K>
using HashSet = std::unordered_set<K, Hasher>;

}  // namespace smdb

template <>
struct std::hash<smdb::RecordId> : smdb::Hasher {};

#endif  // SMDB_COMMON_HASH_H_
