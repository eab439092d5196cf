#ifndef SMDB_CORE_DATABASE_H_
#define SMDB_CORE_DATABASE_H_

#include <memory>
#include <vector>

#include "btree/btree.h"
#include "common/status.h"
#include "common/types.h"
#include "core/dependency_tracker.h"
#include "core/lbm_policy.h"
#include "core/protocol.h"
#include "core/recovery.h"
#include "db/buffer_manager.h"
#include "db/record_store.h"
#include "db/wal_table.h"
#include "lockmgr/lock_table.h"
#include "obs/instruments.h"
#include "sim/machine.h"
#include "storage/disk.h"
#include "storage/stable_db.h"
#include "storage/stable_log.h"
#include "txn/txn_manager.h"
#include "wal/checkpoint.h"
#include "wal/group_commit.h"
#include "wal/log_manager.h"

namespace smdb {

class OnDemandRecovery;
class RecoveryManager;

/// Top-level configuration of an smdb instance.
struct DatabaseConfig {
  MachineConfig machine;
  uint32_t page_size = 4096;
  /// Bytes of user data per record. With the 10-byte slot header and
  /// 128-byte lines, 22 bytes packs 4 records per cache line — the
  /// space-efficient layout whose sharing hazards the paper studies.
  uint16_t record_data_size = 22;
  LockTableConfig lock_table;
  RecoveryConfig recovery;
  /// The instrumentation plane's views: event trace, latency observatory
  /// and phase profiler (all off by default).
  ObsConfig obs;
};

/// The assembled shared-memory database system: the simulated multiprocessor
/// (figure 1), stable storage, per-node WAL, buffer manager, record store,
/// shared-memory lock manager, B+-tree index, transaction manager, the
/// configured LBM policy, and the restart recovery machinery.
///
/// This is the public entry point examples and benchmarks use.
class Database {
 public:
  explicit Database(DatabaseConfig config);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // ----------------------------------------------------------------------
  // Setup.

  /// Creates a heap table of `nrecords` zero-initialised records.
  Result<std::vector<RecordId>> CreateTable(size_t nrecords,
                                            NodeId node = 0);

  /// Takes a machine-wide checkpoint (TakeCheckpoint): every live node
  /// forces its log, the dirty pages are flushed on whichever live node is
  /// free first, and the clocks meet at a barrier. `coordinator` does not
  /// choose who does the I/O; a crashed node is charged nothing.
  Status Checkpoint(NodeId coordinator = 0);

  // ----------------------------------------------------------------------
  // Failure injection.

  /// Crashes the given nodes (destroying their caches, home memories, and
  /// volatile log tails), then runs the configured restart recovery
  /// protocol on the survivors. Returns the recovery's outcome as it stands
  /// when the crash-time work returns. For eager recovery that is final;
  /// an on-demand recovery's ledger keeps counting until its drain ends
  /// (OnDemandRecovery::outcome, SetCloseHook).
  Result<RecoveryOutcome> Crash(const std::vector<NodeId>& crashed);

  /// Brings previously crashed nodes back with cold caches.
  void RestartNodes(const std::vector<NodeId>& nodes);

  // ----------------------------------------------------------------------
  // On-demand (instant) recovery. All three are safe no-ops when nothing
  // is pending.

  /// True while a crash's obligations are still being discharged lazily —
  /// the `Recovering` serving state (new transactions run; first touch of
  /// an unrecovered object recovers it).
  bool RecoveringActive() const;

  /// Background sweeper step: discharges up to `max_objects` pending
  /// objects in global-USN order. Returns the number discharged.
  Result<int> PumpRecovery(int max_objects = 1);

  /// Discharges every remaining obligation in the eager phase order and
  /// leaves the Recovering state.
  Status DrainRecovery();

  // ----------------------------------------------------------------------
  // Components.

  Machine& machine() { return *machine_; }
  LogManager& log() { return *log_; }
  StableLogStore& stable_log() { return *stable_log_; }
  StableDb& stable_db() { return *stable_db_; }
  BufferManager& buffers() { return *buffers_; }
  WalTable& wal_table() { return *wal_table_; }
  RecordStore& records() { return *records_; }
  BTree& index() { return *index_; }
  LockTable& locks() { return *locks_; }
  TxnManager& txn() { return *txn_; }
  LbmPolicy& lbm() { return *lbm_; }
  /// Null unless recovery.group_commit is on.
  GroupCommitPipeline* group_commit() { return group_commit_.get(); }
  /// Counters summed over every Checkpoint so far.
  const CheckpointStats& checkpoint_stats() const { return checkpoint_stats_; }
  UsnSource& usn() { return usn_; }
  DependencyTracker* deps() { return deps_.get(); }
  RecoveryManager& recovery() { return *recovery_; }
  /// The restart engine every recovery runs through (on-demand or not).
  OnDemandRecovery& on_demand() { return *on_demand_; }
  /// The instrumentation plane: the trace ring, the latency observatory
  /// and the profiler are its views, each gated by DatabaseConfig::obs.
  Instruments& instruments() { return instruments_; }
  const DatabaseConfig& config() const { return config_; }

  /// Simulated survivor streams for subsequent restart recoveries (1 = a
  /// single stream). The knob only affects how recovery work is
  /// partitioned, never the recovered state — the differential tests
  /// assert exactly that.
  void SetRecoveryStreams(uint32_t streams) {
    config_.recovery.recovery_streams = streams == 0 ? 1 : streams;
  }

 private:
  DatabaseConfig config_;
  UsnSource usn_;
  Instruments instruments_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<Disk> db_disk_;
  std::unique_ptr<StableDb> stable_db_;
  std::unique_ptr<StableLogStore> stable_log_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<GroupCommitPipeline> group_commit_;  // null when off
  std::unique_ptr<WalTable> wal_table_;
  std::unique_ptr<BufferManager> buffers_;
  std::unique_ptr<RecordStore> records_;
  std::unique_ptr<LockTable> locks_;
  std::unique_ptr<LbmPolicy> lbm_;
  std::unique_ptr<DependencyTracker> deps_;
  std::unique_ptr<BTree> index_;
  std::unique_ptr<TxnManager> txn_;
  std::unique_ptr<RecoveryManager> recovery_;
  std::unique_ptr<OnDemandRecovery> on_demand_;
  CheckpointStats checkpoint_stats_;
};

}  // namespace smdb

#endif  // SMDB_CORE_DATABASE_H_
