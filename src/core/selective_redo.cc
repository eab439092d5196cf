#include "core/database.h"
#include "core/recovery_manager.h"

namespace smdb {

// Selective Redo (section 4.1.2):
//   1. Each surviving node performs redo only for those updates that were
//      exclusively resident on a crashed node: an update needs no redo if
//      it reached the stable database or if its line is still cached on a
//      surviving node. Implementation: re-install the *lost* lines from the
//      stable database, then replay logs with the USN guard — the guard
//      hits exactly the paper's two no-redo conditions (the stable image
//      satisfies "propagated", a surviving cache line satisfies "resident").
//   2. Each surviving node undoes the updates of crash-annulled
//      transactions found via the undo tags stored in each record's cache
//      line, installing last committed values from stable store.
//
// With on-demand recovery the heap's lost lines, entry-level redo/undo and
// the tag discharge wait for first touch, the sweeper or the drain (the
// deferred tag work is guarded by a crash-time USN cutoff so post-crash
// traffic's tags are never touched).
Status RecoveryManager::RunSelectiveRedo(Ctx& ctx, bool serve) {
  // Step 0: re-materialise lost lines from the stable database.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kReload, [&] {
    if (!serve) {
      SMDB_RETURN_IF_ERROR(
          ReloadPages(ctx, db_->records().pages(), /*whole=*/false));
    }
    return ReloadPages(ctx, db_->index().pages(), /*whole=*/false);
  }));

  // Step 1: selective redo. Step 2a: undo stolen/stable-logged uncommitted
  // work of crashed nodes. Step 2b: tag-scan undo of crashed transactions'
  // updates that migrated to surviving caches (no stable log record exists
  // for these).
  SMDB_RETURN_IF_ERROR(HandOff(ctx, RestartKind::kSelectiveRedo, serve));

  // Lock space recovery (section 4.2.2); see RunRedoAll for why a
  // Recovering window may rebuild it ahead of the deferred undo.
  return TimedPhase(ctx, RecoveryPhase::kLockRebuild,
                    [&] { return RecoverLockTable(ctx); });
}

}  // namespace smdb
