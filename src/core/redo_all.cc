#include "core/database.h"
#include "core/recovery_manager.h"

namespace smdb {

// Redo All (section 4.1.2):
//   1. On each surviving node, all cached database records are discarded
//      from volatile memory (this also implicitly undoes any uncommitted
//      updates that migrated to surviving caches — including the crashed
//      transactions' updates, whose volatile undo records are gone).
//   2. The cache of database objects is reconstructed from the stable
//      database plus the redo logs: every update not reflected in the
//      stable database is redone (committed *and* surviving-active work —
//      the no-force policy makes redo of committed transactions necessary,
//      while the steal policy means some undo of crashed transactions from
//      stable logs may still be required).
//
// With on-demand recovery the heap reload waits for first touch, the
// sweeper or the drain; index pages reload now, since structural redo and
// every subsequent descent depend on the tree's routing.
Status RecoveryManager::RunRedoAll(Ctx& ctx, bool serve) {
  Machine& m = db_->machine();

  // Step 1: discard every database line (heap pages and index pages) from
  // all caches and volatile memory.
  auto discard_pages = [&](const std::vector<PageId>& pages) -> Status {
    for (PageId p : pages) {
      SMDB_ASSIGN_OR_RETURN(Addr base, db_->buffers().BaseOf(p));
      m.DiscardRange(base, db_->buffers().page_size());
    }
    return Status::Ok();
  };
  SMDB_RETURN_IF_ERROR(discard_pages(db_->records().pages()));
  SMDB_RETURN_IF_ERROR(discard_pages(db_->index().pages()));

  // Step 2a: reload the stable images.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kReload, [&] {
    if (!serve) {
      SMDB_RETURN_IF_ERROR(
          ReloadPages(ctx, db_->records().pages(), /*whole=*/true));
    }
    return ReloadPages(ctx, db_->index().pages(), /*whole=*/true);
  }));

  // Step 2b: redo from every reachable log, then undo uncommitted work of
  // crashed transactions that reached stable store (steal). Purely
  // volatile crashed updates vanished with step 1.
  SMDB_RETURN_IF_ERROR(HandOff(ctx, RestartKind::kRedoAll, serve));

  // Lock space recovery (section 4.2.2). A Recovering window needs a sound
  // lock table before the first lazy discharge. Rebuilding it ahead of the
  // deferred undo is safe: undo never touches LCBs, the drop set comes
  // from analysis, and the fold covers only surviving actives' lock-op
  // records.
  return TimedPhase(ctx, RecoveryPhase::kLockRebuild,
                    [&] { return RecoverLockTable(ctx); });
}

}  // namespace smdb
