#ifndef SMDB_CORE_DEPENDENCY_TRACKER_H_
#define SMDB_CORE_DEPENDENCY_TRACKER_H_

#include <set>

#include "common/hash.h"
#include "common/types.h"
#include "sim/events.h"
#include "txn/transaction.h"

namespace smdb {

class Machine;
class RecordStore;

/// Tracks which active transactions have become "dependent on the memory of
/// a remote node" — the condition under which the overkill baseline of
/// section 3.3 aborts a transaction when any node crashes.
///
/// A transaction becomes dependent when:
///  * a cache line containing one of its uncommitted updates is invalidated
///    or downgraded away from its node (the update now lives, possibly
///    solely, on another node), or
///  * it updates a cache line that already contains another active
///    transaction's uncommitted update (its own update now cohabits a line
///    whose fate is tied to other nodes).
///
/// This is bookkeeping a real system would not need for the IFA protocols;
/// it exists to implement and quantify the AbortDependents baseline. It
/// observes the transaction manager: an update marks the record's line, a
/// commit or abort ends the transaction.
class DependencyTracker : public TxnObserver {
 public:
  DependencyTracker(Machine* machine, const RecordStore* records);

  /// Transaction `txn` (on TxnNode(txn)) wrote uncommitted data in `rid`'s
  /// line.
  void OnUpdate(TxnId txn, RecordId rid,
                const std::vector<uint8_t>& value) override;
  void OnCommit(TxnId txn) override { End(txn); }
  void OnAbort(TxnId txn) override { End(txn); }

  /// Currently-dependent active transactions.
  std::set<TxnId> Dependent() const { return dependent_; }

  bool IsDependent(TxnId txn) const {
    return dependent_.contains(txn);
  }

 private:
  /// The transaction finished; forget its state.
  void End(TxnId txn);
  void OnCoherence(const CoherenceEvent& ev);

  const RecordStore* records_;

  /// line -> active transactions with uncommitted updates in it.
  HashMap<LineAddr, std::set<TxnId>> line_txns_;
  /// txn -> lines it updated (for cleanup).
  HashMap<TxnId, std::set<LineAddr>> txn_lines_;
  std::set<TxnId> dependent_;
};

}  // namespace smdb

#endif  // SMDB_CORE_DEPENDENCY_TRACKER_H_
