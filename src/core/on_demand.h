#ifndef SMDB_CORE_ON_DEMAND_H_
#define SMDB_CORE_ON_DEMAND_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "core/recovery_manager.h"
#include "txn/txn_manager.h"

namespace smdb {

class Database;
class StableStateReconstructor;

/// The restart engine every recovery runs through, after the instant-restart
/// idea: decouple time-to-first-commit from total recovery work. At crash
/// time RecoveryManager runs the scheme's prefix (analysis, page reloads)
/// and hands the entry-level obligations (redo records, stable-log undo
/// work, dead-node tags) to Activate. Eager recovery drains them at once,
/// inside the crash, in the eager phase order. With on-demand recovery the
/// IFA schemes redo the index structure and rebuild the lock table, then
/// return in the `Recovering` serving state:
///
///  * First touch of an unrecovered object (TxnManager's touch hooks fire
///    before any read or write) discharges that object's obligations under
///    its rebuilt lock — heap page load, its redo records in USN order, its
///    undo records in reverse-USN order, and its dead-node tag.
///  * A background sweeper (Database::PumpRecovery) discharges remaining
///    objects in global-USN order.
///  * Database::DrainRecovery runs the eager drain on whatever is still
///    pending — when it runs before any new traffic, the recovered machine
///    state is bit-identical to the eager pass.
///
/// Obligations are derived from stable logs and the crash-time transaction
/// table only, so a second crash during the Recovering window simply
/// re-derives them: every RecoveryManager::Run starts with Begin.
///
/// Each recovery keeps one RecoveryOutcome, its ledger: the prefix and every
/// later discharge count into it. It closes when the drain ends, or at the
/// next Begin when a later crash supersedes the window; an eager recovery
/// closes at the end of RecoveryManager::Run.
class OnDemandRecovery {
 public:
  explicit OnDemandRecovery(Database* db);
  ~OnDemandRecovery();

  OnDemandRecovery(const OnDemandRecovery&) = delete;
  OnDemandRecovery& operator=(const OnDemandRecovery&) = delete;

  /// True while deferred obligations exist (the `Recovering` serving state).
  bool active() const { return active_; }

  /// The current recovery's ledger: live while active, closed after.
  const RecoveryOutcome& outcome() const { return ctx_.out; }

  /// Called with each recovery's ledger when it closes, in crash order.
  void SetCloseHook(std::function<void(const RecoveryOutcome&)> hook) {
    close_hook_ = std::move(hook);
  }

  /// Objects (records + index keys) still carrying deferred obligations.
  size_t pending_objects();

  /// First-touch hooks, called by TxnManager before any access to the
  /// object. No-ops when inactive or already discharged.
  Status TouchRecord(NodeId performer, RecordId rid);
  Status TouchKey(NodeId performer, uint32_t tree_id, uint64_t key);

  /// Background sweeper: discharges up to `max_objects` pending objects in
  /// global-USN order; finishes the residual work (unreferenced page loads,
  /// the deferred tag scan) once no objects remain. Returns the number of
  /// objects discharged.
  Result<int> SweepStep(int max_objects);

  /// Runs the eager drain on every remaining obligation, then leaves the
  /// Recovering state. Run before any post-crash traffic this reproduces
  /// the eager pass bit for bit.
  Status DrainAll();

 private:
  friend class RecoveryManager;
  using KeyId = std::pair<uint32_t, uint64_t>;

  struct Pending {
    std::vector<size_t> redo;  // indices into redo_, USN ascending
    std::vector<size_t> undo;  // indices into undo_.to_undo, USN descending
  };

  /// How a discharge was driven, for stats attribution.
  enum class Via { kTouch, kSweep };

  /// Starts a recovery: closes a superseded Recovering window, drops the
  /// previous recovery's state and returns a fresh context, which inherits
  /// the dead-node tags that window left undischarged.
  RecoveryManager::Ctx& Begin();

  /// Closes the ledger: stamps recovery_time_ns with the global time since
  /// the crash and hands the outcome to the close hook. Host-side only.
  void Close();

  /// Takes a crash's obligations: `redo` is every collected redo record in
  /// global-USN order (structural ones included), `undo` the stable-log
  /// undo work of `scheme`. Without `serve` the drain runs at once — eager
  /// recovery. With it, only structural redo runs now and the database
  /// enters the Recovering state; heap pages then load lazily.
  Status Activate(std::vector<LogRecord> redo, RecoveryManager::UndoWork undo,
                  RestartKind scheme, bool serve);

  /// While active with tag work pending: every dead node of this recovery
  /// (and any it inherited) with the USN cutoff up to which its tags are
  /// still this recovery's business. A superseding recovery inherits them.
  std::map<NodeId, uint64_t> PendingDeadTags() const;

  /// The eager phase order over whatever is pending: heap loads (Recovering
  /// only), structural then entry-level redo in USN order, undo in
  /// reverse-USN order, the tag scan. Each step is a timed recovery phase.
  Status Drain();
  /// Builds the per-object indexes the first touch and the sweeper need.
  /// The drain does not need them, so they wait for the first of those.
  void BuildIndex();

  Status LoadHeapPages();
  Status EnsureHeapPage(NodeId performer, PageId page);
  Status RedoStructural();
  Status Redo(NodeId performer, size_t i);
  Status Undo(NodeId performer, size_t i);
  /// Resumes a compensation chain an earlier recovery left half done (see
  /// RecoveryManager::UndoWork): engages the object's undo with the
  /// transaction whose CLR produced its current version. Once per object,
  /// right before its first undo.
  Status SeedRecord(NodeId performer, RecordId rid);
  Status SeedKey(NodeId performer, KeyId key);
  Status DischargeRecord(NodeId performer, RecordId rid, Via via);
  Status DischargeKey(NodeId performer, KeyId key, Via via);
  /// Dead-node tag handling for one object (Selective Redo only): classify
  /// via the stable-log owner map and either clear the stale tag or install
  /// the last committed state.
  Status DischargeRecordTag(NodeId performer, RecordId rid);
  Status DischargeKeyTag(NodeId performer, KeyId key);
  void CountDischarge(Via via);
  /// Loads still-pending pages and runs the deferred tag scan, then leaves
  /// the Recovering state.
  Status FinishResidual();
  /// Leaves the Recovering state and closes the ledger.
  void Deactivate();

  Database* db_;
  bool active_ = false;
  /// The scheme has a tag scan (Selective Redo).
  bool tagged_ = false;
  /// Deferred heap pages come back whole (Redo All discarded every line)
  /// rather than as their lost lines only (Selective Redo).
  bool whole_pages_ = false;
  /// Reentrancy guard: a discharge must never recurse into the touch hooks.
  bool in_discharge_ = false;
  bool indexed_ = false;

  /// The recovery context: dead set, uncommitted ids, survivors, the stable
  /// images read so far and the ledger. RecoveryManager::Run and the drain
  /// share it; a Recovering window keeps it.
  RecoveryManager::Ctx ctx_;
  std::function<void(const RecoveryOutcome&)> close_hook_;

  std::vector<LogRecord> redo_;  // global-USN order
  std::vector<bool> redo_done_;
  RecoveryManager::UndoWork undo_;
  std::vector<bool> undo_done_;

  std::map<RecordId, Pending> records_;
  std::map<KeyId, Pending> keys_;
  /// Sweep order: objects by their smallest pending-obligation USN.
  std::vector<std::pair<uint64_t, std::pair<bool, size_t>>> sweep_order_;
  std::vector<RecordId> sweep_rids_;
  std::vector<KeyId> sweep_keys_;
  size_t sweep_pos_ = 0;

  /// Heap pages not yet (re)loaded. Index pages are always loaded eagerly.
  std::set<PageId> pending_pages_;
  std::set<RecordId> discharged_rids_;
  std::set<KeyId> discharged_keys_;
  std::set<RecordId> seeded_rids_;
  std::set<KeyId> seeded_keys_;
  /// Shared undo-engagement state across per-object discharges (one map
  /// spans the whole undo pass, exactly like the eager pass).
  TxnManager::UndoEngagement eng_;

  /// Tag-classification support (Selective Redo): USN -> owning txn from
  /// every stable log, plus the committed-value reconstructor.
  HashMap<uint64_t, TxnId> usn_owner_;
  std::unique_ptr<StableStateReconstructor> reconstructor_;
};

}  // namespace smdb

#endif  // SMDB_CORE_ON_DEMAND_H_
