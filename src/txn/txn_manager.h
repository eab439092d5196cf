#ifndef SMDB_TXN_TXN_MANAGER_H_
#define SMDB_TXN_TXN_MANAGER_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"
#include "common/types.h"
#include "core/lbm_policy.h"
#include "core/protocol.h"
#include "db/buffer_manager.h"
#include "db/record_store.h"
#include "lockmgr/lock_table.h"
#include "txn/transaction.h"
#include "wal/log_manager.h"

namespace smdb {

class Machine;
class GroupCommitPipeline;

struct TxnManagerStats {
  uint64_t begins = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t deadlock_aborts = 0;
  uint64_t updates = 0;
  uint64_t reads = 0;
  uint64_t undo_tag_writes = 0;  // Table 1 row 3 accounting

  void Reset() { *this = TxnManagerStats(); }

  /// Visits every field as ("name", value) — the metrics registry's
  /// source of truth for this struct.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    fn("begins", begins);
    fn("commits", commits);
    fn("aborts", aborts);
    fn("deadlock_aborts", deadlock_aborts);
    fn("updates", updates);
    fn("reads", reads);
    fn("undo_tag_writes", undo_tag_writes);
  }
};

/// Transaction manager: begin/commit/abort plus the record and index
/// operations, orchestrating locking (strict 2PL), the line-lock update
/// protocol, logging (via the configured LBM policy), undo tagging, the
/// ordered-update-logging rule and WAL bookkeeping (sections 2, 4, 5, 6).
class TxnManager {
 public:
  TxnManager(Machine* machine, LogManager* log, LockTable* locks,
             RecordStore* records, BTree* index, WalTable* wal_table,
             BufferManager* buffers, LbmPolicy* lbm, UsnSource* usn,
             RecoveryConfig config, Instruments* inst = nullptr);

  // ----------------------------------------------------------------------
  // Lifecycle.

  Transaction* Begin(NodeId node);

  /// Commits: forces the commit record, clears undo tags, releases locks.
  /// With the group-commit pipeline attached, the commit record is
  /// enqueued instead of forced; Busy means the transaction is *pending* —
  /// appended but not yet durable — and the caller must PollCommit until
  /// Ok (acknowledged) or the transaction is annulled by a crash.
  Status Commit(Transaction* txn);

  /// Polls a pending group commit: forces when the coalescing window has
  /// expired, acknowledges (tags, locks, state, observers) once a covering
  /// force has landed. Ok = committed; Busy = still pending.
  Status PollCommit(Transaction* txn);

  /// Attaches the group-commit pipeline (Database wiring; null = classic
  /// synchronous commit forces).
  void SetGroupCommit(GroupCommitPipeline* gc) { gc_ = gc; }

  /// Crash-time resolution of the pipeline, run after the crash hooks and
  /// before restart recovery classifies transactions: every pending commit
  /// whose covering force landed (by the size bound, the WAL flush gate, a
  /// checkpoint, or an LBM force) is durably committed even though no one
  /// acknowledged it yet. Each gets a lightweight completion (state +
  /// observers; no machine operations — the machine is mid-crash), with
  /// locks dropped by RecoverLockTable via resolved_commit_ids() and
  /// leftover undo tags cleared by the tag scan's stale-committed path.
  Status ResolvePendingCommits();

  /// If `txn` has a pending commit whose record became durable (e.g. a
  /// recovery-pass force covered it mid-recovery), completes the commit
  /// and returns true: the transaction can no longer be aborted.
  bool TryFinishDurablePendingCommit(Transaction* txn);

  /// Transactions completed posthumously by the last ResolvePendingCommits
  /// (dead-node lightweight completions whose surviving LCB entries the
  /// next RecoverLockTable pass must drop).
  const std::set<TxnId>& resolved_commit_ids() const {
    return resolved_commit_ids_;
  }

  /// Rolls back using this node's (intact) log, writing CLRs; releases
  /// locks.
  Status Abort(Transaction* txn);

  // ----------------------------------------------------------------------
  // Operations. Lock conflicts return Busy (caller polls PollLock);
  // deadlocks return Deadlock (caller must Abort the transaction).

  /// Locked read: the S lock is held to commit (strict 2PL).
  Result<std::vector<uint8_t>> Read(Transaction* txn, RecordId rid);
  Status Update(Transaction* txn, RecordId rid,
                const std::vector<uint8_t>& value);

  /// Unlocked read (browse/chaos isolation, section 3.2): may observe
  /// uncommitted data and replicate the line (history H_wr).
  Result<std::vector<uint8_t>> DirtyRead(NodeId node, RecordId rid);

  Status IndexInsert(Transaction* txn, uint64_t key, RecordId value);
  Status IndexDelete(Transaction* txn, uint64_t key);
  Result<std::optional<RecordId>> IndexLookup(Transaction* txn, uint64_t key);

  /// Polls a queued lock; kGranted when the wait is over.
  Result<LockResult> PollLock(Transaction* txn, uint64_t name, LockMode mode);

  // ----------------------------------------------------------------------
  // Tables and recovery interface.

  Transaction* Find(TxnId id);
  std::vector<Transaction*> ActiveOn(NodeId node);
  std::vector<Transaction*> ActiveAll();

  /// Iterates every transaction ever begun, in id order (state digests and
  /// verification oracles; no machine cost).
  void ForEachTxn(const std::function<void(const Transaction&)>& fn) const {
    for (const auto& [id, t] : txns_) fn(*t);
  }

  /// Marks a crash-annulled transaction aborted after recovery has undone
  /// its effects (notifies the observer).
  void MarkCrashAnnulled(Transaction* txn);

  /// Tracks which undo chains are engaged during one undo pass. Records
  /// (and index keys) are undone in reverse USN order; a chain engages when
  /// the current version is exactly the one a record's log entry produced
  /// (nothing later exists), and stays engaged for lower-USN entries of the
  /// same transaction (our own CLRs raise the version as we unwind). An
  /// entry that neither matches nor is engaged is skipped: either the
  /// update never reached the surviving copy, or a later transaction
  /// legitimately overwrote it (the victim had already finished).
  struct UndoEngagement {
    std::map<RecordId, TxnId> records;
    std::map<std::pair<uint32_t, uint64_t>, TxnId> keys;
  };

  /// Applies the undo of one update log record (install the before image,
  /// write a CLR on `performer`'s log). Used by Abort and by restart
  /// recovery.
  Status ApplyUndoUpdate(NodeId performer, const LogRecord& rec,
                         UndoEngagement* eng);

  /// Applies the undo of one index-op log record.
  Status ApplyUndoIndexOp(NodeId performer, const LogRecord& rec,
                          UndoEngagement* eng);

  void AddObserver(TxnObserver* obs) { observers_.push_back(obs); }

  /// On-demand recovery's first-touch hooks (Database wiring; unset = no
  /// hooks, zero overhead). When set, every transactional access to a
  /// record / index key calls the hook *before* touching the object, so
  /// lazy recovery can discharge the object's pending obligations first.
  using TouchRecordFn = std::function<Status(NodeId, RecordId)>;
  using TouchKeyFn = std::function<Status(NodeId, uint32_t, uint64_t)>;
  void SetRecoveryTouch(TouchRecordFn rec, TouchKeyFn key) {
    touch_record_ = std::move(rec);
    touch_key_ = std::move(key);
  }

  TxnManagerStats& stats() { return stats_; }
  const RecoveryConfig& config() const { return config_; }

  /// See LockTable::release_epoch.
  uint64_t lock_release_epoch() const { return locks_->release_epoch(); }
  /// Simulated time before which polling `txn`'s pending group commit
  /// cannot succeed: its node's batch deadline while the commit record is
  /// still volatile, else 0 (a covering force already landed).
  SimTime CommitWakeTime(const Transaction* txn) const;

  BTree* index() { return index_; }

 private:
  /// Acquires `name` in `mode` for `txn`. Busy when queued, Deadlock when
  /// queueing would close a waits-for cycle.
  Status AcquireLock(Transaction* txn, uint64_t name, LockMode mode);

  /// True if txn waiting for `name` would deadlock.
  bool WouldDeadlock(Transaction* txn, uint64_t name);

  /// Acknowledgement half of a commit whose record is already durable:
  /// clears undo tags, releases locks, transitions state, notifies.
  Status FinishCommit(Transaction* txn);

  /// The in-place update protocol of sections 5.1/6: RecordStore's
  /// line-locked install with the update's log append and LBM hook inside.
  Status DoUpdate(Transaction* txn, RecordId rid,
                  const std::vector<uint8_t>& value);

  /// How a transaction ends. A commit and an abort release their locks
  /// through the lock table; a resolved commit (crash-time, see
  /// ResolvePendingCommits) and a crash annulment only drop the
  /// bookkeeping, and an annulment counts no abort.
  enum class End { kCommit, kResolvedCommit, kAbort, kAnnulled };
  /// The one transaction end: lock release or drop, state, counter, trace
  /// event (labelled "resolved" / "annulled"), observers.
  Status Complete(Transaction* txn, End end);

  Machine* machine_;
  LogManager* log_;
  LockTable* locks_;
  RecordStore* records_;
  BTree* index_;
  WalTable* wal_table_;
  BufferManager* buffers_;
  LbmPolicy* lbm_;
  UsnSource* usn_;
  GroupCommitPipeline* gc_ = nullptr;  // may be null (group commit off)
  /// May be null. Receives the lifecycle events; slot reads and the
  /// update protocol attribute to the apply phase, index traversals
  /// (including commit-time tag clears) to index_descent.
  Instruments* inst_;
  RecoveryConfig config_;
  std::set<TxnId> resolved_commit_ids_;
  TouchRecordFn touch_record_;  // unset when on-demand recovery is off
  TouchKeyFn touch_key_;

  std::map<TxnId, std::unique_ptr<Transaction>> txns_;
  std::map<TxnId, uint64_t> waiting_for_;  // txn -> lock name being awaited
  std::vector<uint64_t> next_seq_;         // per-node txn sequence numbers
  uint64_t begin_counter_ = 0;
  std::vector<TxnObserver*> observers_;
  TxnManagerStats stats_;
};

}  // namespace smdb

#endif  // SMDB_TXN_TXN_MANAGER_H_
