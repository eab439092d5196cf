#ifndef SMDB_LOCKMGR_LOCK_TABLE_H_
#define SMDB_LOCKMGR_LOCK_TABLE_H_

#include <functional>
#include <set>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "lockmgr/lcb.h"
#include "obs/instruments.h"
#include "wal/log_manager.h"

namespace smdb {

class Machine;

/// Canonical lock names. Records and index keys share one name space.
constexpr uint64_t RecordLockName(RecordId rid) {
  return (1ULL << 62) | (static_cast<uint64_t>(rid.page) << 16) | rid.slot;
}
constexpr uint64_t KeyLockName(uint32_t tree_id, uint64_t key) {
  return (2ULL << 62) | (static_cast<uint64_t>(tree_id) << 48) |
         (key & 0xFFFFFFFFFFFFULL);
}

struct LockTableConfig {
  uint32_t buckets = 1024;
  /// Store each LCB across two cache lines (holders / waiters split) to
  /// model the partial-loss scenario of section 4.2.2.
  bool two_line_lcb = false;
};

struct LockTableStats {
  uint64_t acquires = 0;
  uint64_t queued = 0;
  uint64_t releases = 0;
  uint64_t lock_log_records = 0;
  uint64_t capacity_rejections = 0;

  void Reset() { *this = LockTableStats(); }

  /// Visits every field as ("name", value) — the metrics registry's
  /// source of truth for this struct.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    fn("acquires", acquires);
    fn("queued", queued);
    fn("releases", releases);
    fn("lock_log_records", lock_log_records);
    fn("capacity_rejections", capacity_rejections);
  }
};

/// Outcome of an Acquire call.
enum class LockResult : uint8_t { kGranted, kQueued };

/// Shared-memory lock manager ("SM locking", section 4.2.2).
///
/// LCBs live in a hash table in simulated shared memory: a lock request
/// hashes its name to a bucket, probes linearly for a matching or empty LCB
/// slot, and manipulates the LCB inside a critical section implemented with
/// the hardware line lock (section 5.1; this is the authors' prototype
/// design from their KSR-1 lock manager study). Because LCB cache lines
/// migrate between the nodes that touch them, a node crash can destroy lock
/// state belonging to *surviving* transactions — which is why lock
/// operations are logged and the restart procedure rebuilds lost LCBs.
class LockTable {
 public:
  /// `log_lock_ops`: log lock operations — including *read* locks and
  /// queued requests — as logical log records (required for IFA; one of
  /// the Table 1 overheads; RecoveryConfig::log_lock_ops picks it). `inst`
  /// (may be null) receives acquire/queue/release events and attributes
  /// Acquire/PollGrant sim time to the lock_wait phase.
  LockTable(Machine* machine, LogManager* log, LockTableConfig config,
            bool log_lock_ops = true, Instruments* inst = nullptr);

  /// Attempts to acquire `name` in `mode` for `txn` running on `node`.
  /// Returns kGranted or kQueued; logs the operation first (when enabled),
  /// chaining via *chain_prev when non-null.
  Result<LockResult> Acquire(NodeId node, TxnId txn, uint64_t name,
                             LockMode mode, Lsn* chain_prev);

  /// Releases `txn`'s hold on `name` and promotes compatible waiters.
  Status Release(NodeId node, TxnId txn, uint64_t name, Lsn* chain_prev);

  /// Polls whether a previously queued request has been granted; when first
  /// observed granted, logs the acquisition. kGranted/kQueued.
  Result<LockResult> PollGrant(NodeId node, TxnId txn, uint64_t name,
                               LockMode mode, Lsn* chain_prev);

  /// Mode `txn` currently holds on `name` (kNone if none).
  Result<LockMode> HeldMode(NodeId node, TxnId txn, uint64_t name);

  /// Current holders of `name` (used by deadlock detection).
  Result<std::vector<LockEntry>> Holders(NodeId node, uint64_t name);

  /// Full LCB for `name` (empty Lcb if none exists). Coherent read.
  Result<Lcb> GetLcb(NodeId node, uint64_t name);

  // ----------------------------------------------------------------------
  // Restart recovery support (section 4.2.2).

  /// Removes every hold/wait of the given transactions from all surviving
  /// LCBs, promoting waiters. Skips lost LCB lines. Returns # removed.
  Result<int> DropTxnLocks(NodeId node, const std::set<TxnId>& txns);

  /// Rebuilds (overwrites) the LCB for `name` from recovered state. Used by
  /// the restart procedure after reconstructing lock state from the
  /// surviving nodes' logical lock-op log records.
  Status RebuildLcb(NodeId node, const Lcb& lcb);

  /// Re-initialises lost LCB table lines to empty so the slots are usable
  /// again (after the LCBs they held have been rebuilt elsewhere).
  int ClearLostLines();

  /// Enumerates all non-empty LCBs via snooping (no cost; diagnostics,
  /// recovery analysis, and the IFA checker). Lost LCBs are skipped and
  /// counted in *lost_lcbs when non-null.
  std::vector<Lcb> SnapshotAll(int* lost_lcbs = nullptr) const;

  /// Lines of the LCB table region that are currently lost.
  std::vector<LineAddr> LostLines() const;

  const LockTableConfig& config() const { return config_; }
  LockTableStats& stats() { return stats_; }
  /// Changes whenever a queued request may have become grantable or LCB
  /// capacity may have freed: a release, or recovery dropping, rebuilding
  /// or clearing LCBs. The time-ordered scheduler wakes lock waiters on it.
  uint64_t release_epoch() const { return release_epoch_; }
  const LcbCodec& codec() const { return codec_; }

 private:
  /// Finds the slot holding `name`, or the first empty slot when
  /// `create` is true. Returns the slot index or NotFound/Busy.
  Result<uint32_t> FindSlot(NodeId node, uint64_t name, bool create);

  Addr SlotBase(uint32_t slot) const {
    return base_ + static_cast<Addr>(slot) * codec_.bytes();
  }
  LineAddr SlotFirstLine(uint32_t slot) const;

  Result<Lcb> ReadLcb(NodeId node, uint32_t slot);
  Status WriteLcb(NodeId node, uint32_t slot, const Lcb& lcb);

  Status LogLockOp(NodeId node, TxnId txn, uint64_t name, LockMode mode,
                   LockOpPayload::Op op, Lsn* chain_prev);

  /// Promotes compatible waiters to holders in-place. Returns true if the
  /// LCB changed.
  bool PromoteWaiters(Lcb& lcb);

  Machine* machine_;
  LogManager* log_;
  Instruments* inst_;
  LockTableConfig config_;
  bool log_lock_ops_;
  LcbCodec codec_;
  Addr base_ = 0;
  LockTableStats stats_;
  uint64_t release_epoch_ = 0;
};

}  // namespace smdb

#endif  // SMDB_LOCKMGR_LOCK_TABLE_H_
