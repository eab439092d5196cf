#ifndef SMDB_CORE_RECOVERY_MANAGER_H_
#define SMDB_CORE_RECOVERY_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "btree/btree.h"
#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "core/protocol.h"
#include "core/recovery.h"
#include "txn/transaction.h"
#include "wal/log_record.h"

namespace smdb {

class Database;
class StableStateReconstructor;

/// Orchestrates restart recovery after one or more node crashes, running
/// whichever scheme the database's RecoveryConfig selects:
///
///  * Redo All (section 4.1.2): discard all cached DB lines, reload the
///    stable images, redo from every reachable log, undo crashed
///    uncommitted work from stable logs, recover the lock table.
///  * Selective Redo: re-install only lost lines, redo only what neither
///    survived in a cache nor reached the stable database, undo migrated
///    crashed updates via the per-record undo tags, recover the lock table.
///  * RebootAll / AbortDependents baselines.
///
/// Every scheme runs its crash-time prefix here (analysis, the reboot or
/// line discard, page reloads) and hands the redo, undo and tag work to the
/// one restart engine, OnDemandRecovery. Eager recovery is that engine's
/// drain run at once, before the lock rebuild; on-demand recovery leaves
/// the drain to first touch and the sweeper.
///
/// Neither IFA scheme ever consults a crashed node's volatile log (it no
/// longer exists); everything comes from stable storage, surviving caches,
/// surviving volatile logs, and the undo tags.
class RecoveryManager {
 public:
  explicit RecoveryManager(Database* db);

  /// Runs restart recovery for the given crashed set (the machine must
  /// already reflect the crashes). Returns the ledger as it stands when the
  /// crash-time work returns: final for eager recovery, still open while a
  /// Recovering window serves traffic.
  Result<RecoveryOutcome> Run(const std::vector<NodeId>& crashed);

 private:
  friend class OnDemandRecovery;
  struct Ctx {
    std::vector<NodeId> crashed;
    std::vector<NodeId> survivors;
    std::set<NodeId> crashed_set;
    /// Every node that is down right now: the newly-crashed set plus any
    /// node still dead from an earlier, unrestarted crash. Stale undo tags
    /// and residual uncommitted log records can reference either kind.
    std::set<NodeId> dead_set;
    std::vector<Transaction*> crashed_active;
    std::vector<Transaction*> surviving_active;
    std::set<TxnId> crashed_active_ids;
    /// Surviving active transactions, whose effects recovery must preserve
    /// (never undo) — the IFA guarantee.
    std::set<TxnId> preserved_ids;
    /// Every transaction whose updates must not count as committed during
    /// reconstruction: all currently-active transactions plus transactions
    /// that appear in any stable log without a commit or abort record.
    std::set<TxnId> uncommitted_ids;
    /// Transactions begun in a stable log whose only finish record (an
    /// abort; commits always force) lives in a live node's volatile tail.
    /// Their rollback already ran, so node-granular schemes leave them
    /// alone — but RebootAll destroys that tail and must re-undo them.
    std::set<TxnId> volatile_finished;
    /// The recovery's ledger (see OnDemandRecovery) and the global time of
    /// the crash it measures from.
    RecoveryOutcome out;
    SimTime t0 = 0;

    /// Pages whose lost-line reinstall spliced stable-image lines into a
    /// partially *surviving* page. Such a page can pair a post-split header
    /// (surviving Page-LSN) with pre-split entry lines (reinstalled), so
    /// the structural redo guard must not trust its Page-LSN: entries a
    /// split moved away exist only in the structural page image, and
    /// skipping it would resurrect them as duplicate live keys.
    std::set<PageId> spliced_pages;
    /// Pages this restart wrote straight into memory (reloads, structural
    /// page images). Such an install drops every cached copy, so the tag
    /// scan, which walks caches, visits these pages' uncached lines too.
    std::set<PageId> installed_pages;
    /// Stable-database images this restart has read, by page. The reload
    /// keeps what it read here and the reconstructors read through it
    /// (StableImage), so each page is read from disk at most once. The
    /// stable database cannot change under it: checkpoints drain recovery
    /// first and the steal daemon pauses while the database is Recovering.
    HashMap<PageId, std::vector<uint8_t>> stable_images;

    /// Tag-scan guard for lazy discharge: a tag whose entry USN exceeds
    /// the cutoff was written by post-crash traffic (a restarted node's
    /// new transactions) and is not this recovery's business. UINT64_MAX
    /// (no-op) for eager passes; OnDemandRecovery pins it to the
    /// crash-time USN so the deferred tag scan stays sound.
    uint64_t tag_scan_usn_cutoff = UINT64_MAX;
    /// Dead nodes of a superseded on-demand recovery whose tags may still
    /// be undischarged, each with that recovery's tag cutoff. Such a node
    /// may have restarted since (so it is not in dead_set), but its tags up
    /// to the cutoff still mark updates lost with its volatile log.
    std::map<NodeId, uint64_t> inherited_dead_tags;

    /// True when a tag naming `tagged` on a version with USN `usn` marks
    /// an update lost with a dead node's log — the tag scan's business.
    bool DeadTag(NodeId tagged, uint64_t usn) const {
      if (dead_set.contains(tagged) && usn <= tag_scan_usn_cutoff) {
        return true;
      }
      auto it = inherited_dead_tags.find(tagged);
      return it != inherited_dead_tags.end() && usn <= it->second;
    }

    /// recovery_streams from the database config, clamped to >= 1. 1 is
    /// the single-stream pass (the classic performer assignment); W > 1
    /// partitions the work over W simulated survivor streams.
    uint32_t num_streams = 1;
    /// Stream -> pinned surviving performer (num_streams > 1 only).
    /// Partitioning work so that all records of one page (and all index
    /// ops of one key range) land on one stream keeps each stream's line
    /// traffic disjoint: line-lock grant chains and header-line transfers
    /// stop serialising the survivors' clocks, which is where the
    /// simulated recovery speedup comes from.
    std::vector<NodeId> streams;

    /// Performer of the stream owning `partition` (num_streams > 1).
    NodeId StreamPerformer(uint64_t partition) const {
      return streams[partition % streams.size()];
    }
  };

  Status BuildContext(const std::vector<NodeId>& crashed, Ctx* ctx);

  /// The performer of every single-stream pick: Machine::EarliestOf over
  /// the survivors, the rule checkpoints use too. A 5 ms page read goes to
  /// whichever survivor is free first.
  NodeId EarliestSurvivor(const Ctx& ctx) const;

  /// The stable image of `page` as this restart first read it; a miss
  /// reads it on `performer`, who pays the I/O, and counts stable_reads.
  /// nullptr when the page is unreadable.
  const std::vector<uint8_t>* StableImage(Ctx& ctx, NodeId performer,
                                          PageId page);
  /// A committed-value reconstructor that reads through StableImage.
  std::unique_ptr<StableStateReconstructor> MakeReconstructor(Ctx& ctx);

  /// Runs `body` as one timed recovery phase: accumulates the global-time
  /// delta into ctx.out.phase_ns[phase] and emits a kRecoveryPhase trace
  /// span on the coordinator survivor's track. Pure accounting — it adds
  /// no Ticks, so timing semantics are identical with tracing off.
  Status TimedPhase(Ctx& ctx, RecoveryPhase phase,
                    const std::function<Status()>& body);

  // Shared passes -------------------------------------------------------

  /// Every redo-relevant record (lsn > checkpoint) from every survivor's
  /// full log and every crashed node's stable log, sorted by global USN.
  /// Replay is guarded by USN comparison. Pure host-side log reads.
  Status CollectRedoRecords(std::vector<LogRecord>* out);

  /// Stable-log undo obligations: uncommitted dead work found in *any*
  /// stable log — stolen updates and pre-crash aborts whose CLRs were
  /// lost. The scan must cover every node, not just the newly-crashed
  /// ones: a steal flush can place an uncommitted update in the stable
  /// database, and if the compensation a previous recovery wrote for it is
  /// later lost with *its* performer's cache and volatile log, the stale
  /// value resurrects on reload. Each recovery therefore re-derives all
  /// pending undo from the stable logs; the USN engagement guard keeps the
  /// undo idempotent.
  struct UndoWork {
    /// Non-CLR records of uncommitted dead transactions, reverse-USN order.
    std::vector<LogRecord> to_undo;
    /// A previous recovery's compensation chain for one of these
    /// transactions can be split across several performers' logs (undo
    /// spreads over survivors), so a later crash can lose its tail while
    /// redo replays its surviving prefix. That leaves the object at an
    /// intermediate CLR state whose USN matches no original record — which
    /// the engagement guard would misread as "legitimately overwritten" and
    /// strand the object mid-rollback. These maps (CLR USN -> transaction,
    /// object) let the undo resume that transaction's chain. Re-undoing an
    /// already-compensated record is value-safe — the chain re-converges
    /// to the oldest before image.
    std::map<uint64_t, std::pair<TxnId, RecordId>> clr_slots;
    std::map<uint64_t, std::pair<TxnId, std::pair<uint32_t, uint64_t>>>
        clr_keys;
  };
  /// Pure host-side log reads.
  Status CollectUndoWork(Ctx& ctx, UndoWork* out);

  /// Reloads one page from the stable database on `performer` (section
  /// 4.1.2): the whole image when `whole` (Redo All, RebootAll), else only
  /// the lines no survivor still holds (Selective Redo). Counts
  /// pages_reloaded, lines_reinstalled and stable_reads, keeps the image it
  /// read, and records spliced pages.
  Status ReloadPage(Ctx& ctx, NodeId performer, PageId page, bool whole);
  /// ReloadPage over `pages` in order, each page that has something to
  /// reload on the EarliestSurvivor.
  Status ReloadPages(Ctx& ctx, const std::vector<PageId>& pages, bool whole);

  /// The prefix's hand-off, shared by every scheme: collects the redo and
  /// undo work and passes it to the restart engine, which drains it at
  /// once unless `serve` opens a Recovering window.
  Status HandOff(Ctx& ctx, RestartKind scheme, bool serve);

  /// Selective Redo's tag scan: each survivor sweeps its cache for records
  /// and index entries tagged with a dead node and undoes them using
  /// last committed values from stable store.
  Status TagScanUndo(Ctx& ctx);

  /// USN -> owning transaction from every stable log, to tell "tag stale
  /// because the commit beat the tag-clear" from "uncommitted".
  HashMap<uint64_t, TxnId> StableUsnOwners();
  /// True when a dead node's tag on version `usn` is stale: the version's
  /// transaction committed and only the tag-clear was lost.
  bool StaleCommittedTag(const Ctx& ctx,
                         const HashMap<uint64_t, TxnId>& usn_owner,
                         uint64_t usn, NodeId tagged);
  /// Resolves one dead-tagged record or index entry: clears a stale tag,
  /// or undoes the uncommitted version (a record gets its last committed
  /// value under a fresh USN).
  Status ResolveRecordTag(NodeId p, RecordId rid, bool stale,
                          StableStateReconstructor& reconstructor);
  Status ResolveIndexTag(NodeId p, const BTree::EntryRef& ref, bool stale);

  /// Lock-table recovery: clear lost LCB lines, drop crashed transactions'
  /// locks, rebuild LCBs of surviving active transactions from surviving
  /// logs (including *read* locks, which is why they are logged).
  Status RecoverLockTable(Ctx& ctx);

  Status ApplyRedoUpdate(Ctx& ctx, NodeId performer, const LogRecord& rec);
  Status ApplyRedoIndexOp(Ctx& ctx, NodeId performer, const LogRecord& rec);
  /// Re-applies an early-committed structural change from its physical
  /// page images (guarded by the Page-LSN).
  Status ApplyRedoStructural(Ctx& ctx, NodeId performer,
                             const LogRecord& rec);

  // Schemes --------------------------------------------------------------

  /// `serve`: return in the Recovering state (on-demand recovery).
  Status RunRedoAll(Ctx& ctx, bool serve);        // redo_all.cc
  Status RunSelectiveRedo(Ctx& ctx, bool serve);  // selective_redo.cc
  Status RunRebootAll(Ctx& ctx);                  // baselines.cc
  Status RunAbortDependents(Ctx& ctx);            // baselines.cc

  // Stream partitioning ---------------------------------------------------

  /// Redo-pass performer: serial keeps the legacy rule (the record's own
  /// node if alive, else the EarliestSurvivor); W > 1 partitions heap
  /// updates by page and index ops by key so same-page records stay on one
  /// stream.
  NodeId RedoPerformer(const Ctx& ctx, const LogRecord& rec) const;

  /// Undo-pass performer: serial EarliestSurvivor, or the partition's
  /// stream.
  NodeId UndoPerformer(const Ctx& ctx, const LogRecord& rec) const;

  Database* db_;
};

}  // namespace smdb

#endif  // SMDB_CORE_RECOVERY_MANAGER_H_
