#include "core/database.h"
#include "core/on_demand.h"
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
// With on-demand recovery, only the eager prefix runs here: index lost-line
// reinstall + structural redo and the lock-table rebuild. Heap lost lines,
// entry-level redo/undo, and the tag scan are handed to OnDemandRecovery
// for per-object discharge (the deferred tag work is guarded by a
// crash-time USN cutoff so post-crash traffic's tags are never touched).
Status RecoveryManager::RunSelectiveRedo(Ctx& ctx) {
  OnDemandRecovery* od = db_->on_demand();
  // Lazy only when Selective Redo is the *configured* protocol:
  // AbortDependents delegates here and must stay eager — it aborts
  // dependent survivors right after this returns, which requires a fully
  // recovered state, not a Recovering window.
  const bool lazy = od != nullptr && db_->config().recovery.restart ==
                                         RestartKind::kSelectiveRedo;

  // Step 0: re-materialise lost lines from the stable database (the probe —
  // ProbeLine, i.e. "cache miss with I/O disabled" — is what decides
  // lost-ness inside ReinstallLostLines). On-demand defers the heap pages.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kReload, [&] {
    const int lines_per_page = static_cast<int>(
        db_->buffers().page_size() / db_->machine().line_size());
    auto reinstall = [&](const std::vector<PageId>& pages) -> Status {
      for (PageId p : pages) {
        SMDB_ASSIGN_OR_RETURN(
            int n, db_->buffers().ReinstallLostLines(ctx.NextSurvivor(), p));
        if (n > 0) {
          ctx.out.lines_reinstalled += n;
          ++ctx.out.pages_reloaded;
          // A partial reinstall splices stable-image lines into surviving
          // ones; the page's surviving Page-LSN no longer describes every
          // line, so structural redo must not skip on it (see Ctx).
          if (n < lines_per_page) ctx.spliced_pages.insert(p);
        }
      }
      return Status::Ok();
    };
    if (!lazy) SMDB_RETURN_IF_ERROR(reinstall(db_->records().pages()));
    return reinstall(db_->index().pages());
  }));

  if (!lazy) {
    // Step 1: selective redo.
    SMDB_RETURN_IF_ERROR(TimedPhase(
        ctx, RecoveryPhase::kRedo, [&] { return ReplayLogsWithGuard(ctx); }));

    // Step 2a: undo stolen/stable-logged uncommitted work of crashed nodes.
    SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kUndo, [&] {
      return UndoCrashedFromStableLogs(ctx);
    }));

    // Step 2b: tag-scan undo of crashed transactions' updates that migrated
    // to surviving caches (no stable log record exists for these).
    SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kTagScan,
                                    [&] { return TagScanUndo(ctx); }));

    // Lock space recovery (section 4.2.2).
    return TimedPhase(ctx, RecoveryPhase::kLockRebuild,
                      [&] { return RecoverLockTable(ctx); });
  }

  // On-demand eager prefix: structural redo now, everything entry-level
  // stashed for lazy discharge.
  ctx.lazy = true;
  std::vector<LogRecord> records;
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kRedo, [&] {
    SMDB_RETURN_IF_ERROR(CollectRedoRecords(&records));
    return ApplyRedoRecords(ctx, records);  // structural only (ctx.lazy)
  }));
  UndoWork undo;
  SMDB_RETURN_IF_ERROR(TimedPhase(
      ctx, RecoveryPhase::kUndo, [&] { return CollectUndoWork(ctx, &undo); }));
  // Lock rebuild in the prefix (see RunRedoAll for why this is safe).
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kLockRebuild,
                                  [&] { return RecoverLockTable(ctx); }));
  return od->Activate(ctx, std::move(records), std::move(undo));
}

}  // namespace smdb
