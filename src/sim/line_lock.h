#ifndef SMDB_SIM_LINE_LOCK_H_
#define SMDB_SIM_LINE_LOCK_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace smdb {

/// State of the (cache) line locks, the KSR-1 primitive (`gsp`/`rsp`,
/// renamed getline/releaseline by the paper) that holds a line in a
/// mutually-exclusive state in the local cache until released.
///
/// In this deterministic simulator, critical sections protected by line
/// locks execute atomically (they are short by construction — exactly the
/// property the paper exploits), so the lock's job is timing: it serialises
/// holders and charges queueing delay, reproducing the contention behaviour
/// measured on the KSR-1 in section 5.1.
class LineLockTable {
 public:
  struct LockState {
    NodeId holder = kInvalidNode;
    /// Simulated time at which the previous holder released the lock.
    SimTime free_at = 0;
  };

  /// Records an acquisition by `node` whose local clock reads `now`.
  /// Returns the simulated time at which the lock is granted (>= now).
  SimTime Acquire(LineAddr line, NodeId node, SimTime now);

  /// Records a release at simulated time `now`.
  void Release(LineAddr line, NodeId node, SimTime now);

  /// True if `node` currently holds the line lock on `line`.
  bool HeldBy(LineAddr line, NodeId node) const;

  /// Releases every lock held by `node` (hardware does this implicitly when
  /// a node fails and its requests are flushed). Returns the released lines.
  std::vector<LineAddr> ReleaseAllHeldBy(NodeId node, SimTime now);

 private:
  std::unordered_map<LineAddr, LockState> locks_;
};

}  // namespace smdb

#endif  // SMDB_SIM_LINE_LOCK_H_
