#ifndef SMDB_CORE_STABLE_STATE_H_
#define SMDB_CORE_STABLE_STATE_H_

#include <functional>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "db/record_store.h"
#include "wal/log_manager.h"

namespace smdb {

class Machine;

/// Reconstructs the *last committed value* of a record from stable store —
/// the primitive Selective Redo's tag-based undo relies on: "Given our
/// assumption of the WAL protocol, the last committed value of these
/// records will necessarily be in stable store — either in the stable log,
/// or in the stable database" (section 4.1.2).
///
/// Algorithm: start from the stable database image of the record's page,
/// then replay, in USN order, all update records for the record from every
/// node's reachable log (full logs of surviving nodes, stable logs of
/// crashed ones), skipping the updates of transactions named in
/// `uncommitted` (active transactions, whether crashed or surviving) except
/// their redo-only CLRs. Strict 2PL guarantees at most one active
/// transaction per record, so the skipped updates are always a suffix and
/// the result is exactly the last committed value.
class StableStateReconstructor {
 public:
  /// The stable-database image of `page`, read on `performer` (who pays
  /// the I/O) unless already at hand; nullptr when unreadable. A restart
  /// passes its read-once image cache (RecoveryManager::StableImage).
  using PageSource =
      std::function<const std::vector<uint8_t>*(NodeId performer, PageId)>;

  StableStateReconstructor(Machine* machine, LogManager* log,
                           RecordStore* records, std::set<TxnId> uncommitted,
                           PageSource pages);

  /// Last committed value (and its USN) of `rid`. `performer` pays for any
  /// stable-database page read `pages` issues.
  Result<SlotImage> CommittedValue(NodeId performer, RecordId rid);

 private:
  Machine* machine_;
  LogManager* log_;
  RecordStore* records_;
  std::set<TxnId> uncommitted_;
  PageSource pages_;
  /// rid -> update records for it, lazily indexed on first use.
  bool indexed_ = false;
  HashMap<RecordId, std::vector<LogRecord>> by_record_;

  void BuildIndex();
};

}  // namespace smdb

#endif  // SMDB_CORE_STABLE_STATE_H_
