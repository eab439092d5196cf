#ifndef SMDB_SIM_DIRECTORY_H_
#define SMDB_SIM_DIRECTORY_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "sim/cache.h"

namespace smdb {

/// Directory entry for one cache line: who caches it, whether the home
/// memory copy is current, and the failure-related flags.
struct DirEntry {
  /// Node whose (distributed) main memory is the home of this line.
  NodeId home = kInvalidNode;
  /// Bitmask of nodes holding a valid cached copy.
  uint64_t sharers = 0;
  /// Node holding the line exclusively (kInvalidNode unless exactly one
  /// cached copy exists in Exclusive state).
  NodeId owner = kInvalidNode;
  /// True if the home memory copy matches the most recent write.
  bool mem_valid = false;
  /// Contents of the home memory copy (possibly stale when !mem_valid).
  std::vector<uint8_t> mem_data;
  /// True if no valid copy survived a crash: references return an invalid
  /// flag until software re-materialises the line.
  bool lost = false;
  /// The "active data" bit the paper proposes adding per cache line to
  /// trigger Stable LBM log forces on migration (section 5.2).
  bool active_bit = false;
  /// Last node to write this line; used for the sharing-pattern statistics.
  NodeId last_writer = kInvalidNode;

  bool cached_anywhere() const { return sharers != 0; }
  bool cached_by(NodeId n) const { return (sharers >> n) & 1; }
  int num_sharers() const { return __builtin_popcountll(sharers); }
};

/// The machine-wide cache directory. In hardware this is distributed among
/// the memory controllers; here it is a single map, which is equivalent for
/// a functional + timing simulation. Returned DirEntry references stay
/// valid across inserts (unordered_map never relocates elements).
class Directory {
 public:
  /// Returns the entry for `line`, creating it with the given home node if
  /// absent.
  DirEntry& GetOrCreate(LineAddr line, NodeId home, uint32_t line_size);

  /// Returns the entry for `line` or nullptr.
  DirEntry* Find(LineAddr line);
  const DirEntry* Find(LineAddr line) const;

  /// Iterates over all known lines.
  void ForEach(const std::function<void(LineAddr, DirEntry&)>& fn);

  size_t size() const { return entries_.size(); }

 private:
  std::unordered_map<LineAddr, DirEntry> entries_;
};

}  // namespace smdb

#endif  // SMDB_SIM_DIRECTORY_H_
