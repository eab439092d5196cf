#ifndef SMDB_TXN_TRANSACTION_H_
#define SMDB_TXN_TRANSACTION_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/types.h"

namespace smdb {

/// Lifecycle of a transaction.
enum class TxnState : uint8_t {
  kActive,
  kCommitted,
  kAborted,
};

/// Control state of one transaction. In the paper's model this state
/// (registers, stack, transaction table entry) lives on the executing node
/// and is destroyed by that node's crash; the TxnManager emulates that by
/// treating entries for crashed nodes as unreachable control state whose
/// fate is decided by restart recovery.
///
/// Transactions execute entirely on a single node (section 2's workload
/// focus). The node is recoverable from the id: TxnNode(id).
struct Transaction {
  TxnId id = kInvalidTxn;
  TxnState state = TxnState::kActive;
  /// Head of this transaction's log-record chain (in its node's log).
  Lsn last_lsn = kInvalidLsn;
  /// LSN of the Begin record: the log-truncation safe point must not pass
  /// the oldest active transaction's first record.
  Lsn first_lsn = kInvalidLsn;
  /// Monotonic begin stamp; smaller = older (deadlock victim selection).
  uint64_t begin_seq = 0;
  /// Node-clock sim-time at Begin (latency observatory's commit/abort
  /// latency baseline).
  SimTime begin_ts = 0;

  /// Lock names this transaction holds (granted). Strict 2PL: released only
  /// at commit/abort.
  std::set<uint64_t> granted_locks;
  /// Lock names with a queued (waiting) request.
  std::set<uint64_t> queued_locks;

  /// Records updated (for commit-time tag clearing), in first-update order.
  std::vector<RecordId> updated_records;
  /// Index keys touched by insert/delete (tree_id, key), for tag clearing.
  std::vector<std::pair<uint32_t, uint64_t>> index_keys;

  NodeId node() const { return TxnNode(id); }
};

/// Observer of transaction effects; the IFA checker implements this to
/// maintain its ground-truth oracle.
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;
  virtual void OnBegin(TxnId) {}
  virtual void OnUpdate(TxnId, RecordId, const std::vector<uint8_t>&) {}
  virtual void OnIndexInsert(TxnId, uint32_t /*tree*/, uint64_t /*key*/,
                             RecordId) {}
  virtual void OnIndexDelete(TxnId, uint32_t /*tree*/, uint64_t /*key*/) {}
  virtual void OnCommit(TxnId) {}
  /// Covers voluntary aborts, deadlock aborts, baseline-forced aborts and
  /// crash annulment alike: the transaction's effects are gone.
  virtual void OnAbort(TxnId) {}
};

}  // namespace smdb

#endif  // SMDB_TXN_TRANSACTION_H_
