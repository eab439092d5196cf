#include "core/database.h"
#include "core/recovery_manager.h"

namespace smdb {

// RebootAll: what happens to an SM database *without* independent node
// failures (sections 1, 3.3, 9): a single node crash takes the whole
// machine down. Every volatile byte is lost, every active transaction —
// crashed node or not — aborts, and the system restarts from stable
// storage (repeating history, then undo).
Status RecoveryManager::RunRebootAll(Ctx& ctx) {
  Machine& m = db_->machine();
  ctx.out.whole_machine_restart = true;

  // Every surviving-node active transaction is an unnecessary abort. Their
  // volatile logs die in the reboot, so the undo pass must treat their
  // stolen updates like any other dead uncommitted work: nothing stays
  // preserved.
  for (Transaction* t : ctx.surviving_active) {
    ctx.out.forced_aborts.push_back(t->id);
    ctx.uncommitted_ids.insert(t->id);
  }
  ctx.out.preserved.clear();
  ctx.preserved_ids.clear();

  // Transactions whose abort record exists only in a (formerly) live node's
  // volatile tail lose that tail — and the CLRs before it — in the reboot.
  // Repeating history will replay their stable-logged updates, so they must
  // rejoin the undo set.
  ctx.uncommitted_ids.insert(ctx.volatile_finished.begin(),
                             ctx.volatile_finished.end());

  // BuildContext already ran the "begun in a stable log but neither
  // committed nor aborted there" analysis over every node, which is exactly
  // the coverage a whole-machine restart needs (every volatile log dies in
  // the reboot).

  // The machine goes down and comes back: all caches, memories and
  // volatile log tails are gone; every node pays the reboot penalty.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kReboot, [&] {
    m.RebootAll();
    for (NodeId n = 0; n < m.num_nodes(); ++n) {
      db_->log().OnNodeCrash(n);
      if (db_->group_commit() != nullptr) db_->group_commit()->OnNodeCrash(n);
      db_->wal_table().OnNodeCrash(n);
      m.Tick(n, m.config().timing.reboot_ns);
    }
    return Status::Ok();
  }));

  // Classic restart from stable storage: reload pages, repeat history from
  // the stable logs, undo every uncommitted transaction.
  SMDB_RETURN_IF_ERROR(TimedPhase(ctx, RecoveryPhase::kReload, [&] {
    SMDB_RETURN_IF_ERROR(
        ReloadPages(ctx, db_->records().pages(), /*whole=*/true));
    return ReloadPages(ctx, db_->index().pages(), /*whole=*/true);
  }));

  // Nothing is preserved: the undo covers every uncommitted transaction.
  SMDB_RETURN_IF_ERROR(HandOff(ctx, RestartKind::kRebootAll, /*serve=*/false));

  // The lock space is volatile: it was destroyed wholesale. Clear the lost
  // lines; there are no surviving transactions whose locks need rebuilding.
  ctx.out.lcb_lines_cleared = db_->locks().ClearLostLines();

  // Abort all previously-active transactions.
  for (Transaction* t : ctx.surviving_active) {
    db_->txn().MarkCrashAnnulled(t);
  }
  return Status::Ok();
}

// AbortDependents: the "overkill" alternative of section 3.3 — ensure
// failure atomicity by aborting every transaction that is dependent on the
// memory of a remote node, instead of recovering precisely. Crashed
// transactions are handled with the Selective Redo machinery; the
// difference is the forced aborts of surviving dependents.
Status RecoveryManager::RunAbortDependents(Ctx& ctx) {
  DependencyTracker* deps = db_->deps();
  if (deps == nullptr) {
    return Status::InvalidArgument(
        "AbortDependents requires the dependency tracker");
  }
  // Snapshot the dependents before recovery mutates tracker state.
  std::set<TxnId> dependents = deps->Dependent();

  SMDB_RETURN_IF_ERROR(RunSelectiveRedo(ctx, /*serve=*/false));

  for (Transaction* t : ctx.surviving_active) {
    if (!dependents.contains(t->id)) continue;
    // A dependent whose pending group commit became durable mid-recovery
    // (a recovery-pass force covered it) is committed — its log decides —
    // and cannot be aborted anymore.
    if (db_->txn().TryFinishDurablePendingCommit(t)) continue;
    // A normal abort: the transaction's node is alive and its volatile log
    // intact — but the abort is unnecessary, which is the point.
    SMDB_RETURN_IF_ERROR(db_->txn().Abort(t));
    ctx.out.forced_aborts.push_back(t->id);
  }
  // Forced aborts are no longer "preserved".
  std::vector<TxnId> kept;
  for (TxnId t : ctx.out.preserved) {
    if (!dependents.contains(t)) kept.push_back(t);
  }
  ctx.out.preserved = std::move(kept);
  return Status::Ok();
}

}  // namespace smdb
