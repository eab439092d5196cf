#ifndef SMDB_WAL_CHECKPOINT_H_
#define SMDB_WAL_CHECKPOINT_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace smdb {

class Machine;
class LogManager;
class BufferManager;

/// Checkpoint-layer counters, summed over every checkpoint taken.
struct CheckpointStats {
  uint64_t count = 0;
  uint64_t pages_flushed = 0;
  /// Global time from each checkpoint's start to the end of its barrier.
  SimTime barrier_ns = 0;

  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    fn("count", count);
    fn("pages_flushed", pages_flushed);
    fn("barrier_ns", barrier_ns);
  }
};

/// Takes a machine-wide checkpoint, spreading its work over the live nodes:
///  1. each live node forces its own log (satisfying every WAL requirement),
///  2. every dirty page is flushed to the stable database, in ascending
///     page order, each on the live node that is free first
///     (Machine::EarliestOf, the rule restart recovery uses),
///  3. each live node appends and forces its own checkpoint record, listing
///     its active transactions, and advances its replay start position,
///  4. the clocks meet at a barrier (SyncClocks).
///
/// `active_per_node[n]` lists the active transactions of node n. After a
/// checkpoint, restart recovery replays each node's log only from its
/// checkpoint record. Fails with NodeFailed when no node is alive.
Status TakeCheckpoint(Machine* machine, LogManager* log,
                      BufferManager* buffers,
                      const std::vector<std::vector<TxnId>>& active_per_node,
                      CheckpointStats* stats);

}  // namespace smdb

#endif  // SMDB_WAL_CHECKPOINT_H_
