// Regression and edge-case tests for restart recovery: scenarios distilled
// from subtle interactions found during development, each encoding an
// invariant the protocols must uphold.

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery_manager.h"
#include "workload/harness.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

struct Fx {
  explicit Fx(RecoveryConfig rc, uint16_t nodes = 4,
              bool two_line_lcb = false)
      : db(MakeCfg(rc, nodes, two_line_lcb)), checker(&db) {
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(16);
    EXPECT_TRUE(t.ok());
    table = *t;
    checker.RegisterTable(table);
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc, uint16_t nodes,
                                bool two_line_lcb) {
    DatabaseConfig c;
    c.machine.num_nodes = nodes;
    c.recovery = rc;
    c.lock_table.two_line_lcb = two_line_lcb;
    return c;
  }
  Database db;
  IfaChecker checker;
  std::vector<RecordId> table;
};

// A transaction that aborted *before* the crash, with its update stolen to
// the stable database but its CLRs (and abort record) forced as well, must
// NOT be re-undone: a later committed value would be clobbered by the
// stale before image. (Regression: stable-log undo originally keyed only
// on commit records.)
TEST(RecoveryEdgeTest, PreCrashAbortWithStableClrsNotReundone) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    RecordId r = fx.table[0];
    // t1 on node 1 updates r, the page is stolen, then t1 aborts (CLR) and
    // the log is forced (e.g. by a later commit on node 1).
    Transaction* t1 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t1, r, Value(0x11)).ok());
    ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());
    ASSERT_TRUE(fx.db.txn().Abort(t1).ok());
    ASSERT_TRUE(fx.db.log().Force(1, 1).ok());
    // t2 on node 1 commits a new value for r.
    Transaction* t2 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t2, r, Value(0x22)).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t2).ok());
    // Crash node 1: t2's committed value must survive (redo), t1 must not
    // be undone again.
    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto slot = fx.db.records().SnoopSlot(r);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(0x22)) << rc.Name();
  }
}

// A pre-crash abort whose CLRs stayed volatile (lost with the node) while
// the original update was stolen: recovery must undo from the stable log.
TEST(RecoveryEdgeTest, PreCrashAbortWithVolatileClrsIsUndone) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    RecordId r = fx.table[0];
    Transaction* t1 = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t1, r, Value(0x33)).ok());
    ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());  // steals 0x33
    ASSERT_TRUE(fx.db.txn().Abort(t1).ok());  // CLR volatile only
    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto slot = fx.db.records().SnoopSlot(r);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(0)) << rc.Name();
  }
}

// Cross-node index replay ordering: an insert on (what becomes) a crashed
// node followed by a committed delete on a survivor. Replay must not
// resurrect the key regardless of per-node log order. (Regression: redo of
// a delete for a missing entry was dropped before global USN ordering.)
TEST(RecoveryEdgeTest, CrossNodeInsertThenDeleteReplay) {
  for (auto rc : {RecoveryConfig::VolatileRedoAll(),
                  RecoveryConfig::VolatileSelectiveRedo()}) {
    Fx fx(rc);
    Transaction* ti = fx.db.txn().Begin(2);
    ASSERT_TRUE(fx.db.txn().IndexInsert(ti, 66, fx.table[0]).ok());
    ASSERT_TRUE(fx.db.txn().Commit(ti).ok());
    Transaction* td = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().IndexDelete(td, 66).ok());
    ASSERT_TRUE(fx.db.txn().Commit(td).ok());
    auto outcome = fx.db.Crash({2});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto l = fx.db.index().Lookup(0, 66);
    ASSERT_TRUE(l.ok());
    EXPECT_FALSE(l->has_value()) << rc.Name() << ": key resurrected";
  }
}

// Same-transaction multi-update chains must unwind fully during recovery
// undo (the engagement rule's same-txn case).
TEST(RecoveryEdgeTest, MultiUpdateChainUndo) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  RecordId r = fx.table[0];
  Transaction* setup = fx.db.txn().Begin(3);
  ASSERT_TRUE(fx.db.txn().Update(setup, r, Value(0x10)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());

  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t, r, Value(0x21)).ok());
  ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());  // steal v1
  ASSERT_TRUE(fx.db.txn().Update(t, r, Value(0x22)).ok());
  ASSERT_TRUE(fx.db.buffers().FlushPage(2, r.page).ok());  // steal v2
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(r);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0x10));
}

// Two-line LCBs: a crash can destroy one of the two lines ("arbitrary
// segments"); the restart procedure rebuilds the whole LCB from surviving
// logs (section 4.2.2's harder scenario).
TEST(RecoveryEdgeTest, TwoLineLcbPartialLossRebuilt) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo(), 4, /*two_line_lcb=*/true);
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Read(t0, fx.table[5]).ok());
  ASSERT_TRUE(fx.db.txn().Read(t1, fx.table[5]).ok());
  // t2 queues an X request behind the two S holders.
  Transaction* t2 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[5], Value(1)).IsBusy());

  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  uint64_t name = RecordLockName(fx.table[5]);
  auto lcb = fx.db.locks().GetLcb(0, name);
  ASSERT_TRUE(lcb.ok());
  // Survivor t0 still holds S; t2 still waits; crashed t1 is gone.
  ASSERT_EQ(lcb->holders.size(), 1u);
  EXPECT_EQ(lcb->holders[0].txn, t0->id);
  ASSERT_EQ(lcb->waiters.size(), 1u);
  EXPECT_EQ(lcb->waiters[0].txn, t2->id);
  // Once t0 finishes, t2 gets the lock.
  ASSERT_TRUE(fx.db.txn().Commit(t0).ok());
  auto poll = fx.db.txn().PollLock(t2, name, LockMode::kExclusive);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(*poll, LockResult::kGranted);
}

// The early-commit ablation: with structural early commit disabled, a
// crash that destroys a freshly split leaf loses committed index entries —
// the dependency the paper's rule exists to prevent. The test documents
// the violation (the checker must catch it).
TEST(RecoveryEdgeTest, NoEarlyCommitLosesSplitStructure) {
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.early_commit_structural = false;
  DatabaseConfig cfg;
  cfg.machine.num_nodes = 4;
  cfg.recovery = rc;
  Database db(cfg);
  IfaChecker checker(&db);
  db.txn().AddObserver(&checker);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  checker.RegisterTable(*table);
  ASSERT_TRUE(db.Checkpoint(0).ok());

  // Node 2 inserts enough committed keys to split the root leaf. Without
  // early commit the split stays volatile.
  for (int batch = 0; batch < 5; ++batch) {
    Transaction* t = db.txn().Begin(2);
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          db.txn().IndexInsert(t, batch * 40 + i + 1, (*table)[0]).ok());
    }
    ASSERT_TRUE(db.txn().Commit(t).ok());
  }
  ASSERT_GT(db.index().stats().splits, 0u);
  ASSERT_EQ(db.index().stats().early_commits, 0u);

  // Crash the node that performed the splits: the moved entries' only
  // up-to-date homes die with it. The damage shows up either as a recovery
  // failure (the reloaded pre-split structure is unusable) or as an index
  // verification failure — both are the IFA violation the early-commit
  // rule prevents.
  auto outcome = db.Crash({2});
  bool violated = !outcome.ok() || !checker.VerifyIndex().ok();
  EXPECT_TRUE(violated)
      << "expected an IFA violation with early commit disabled";
}

// With early commit enabled the identical scenario is safe.
TEST(RecoveryEdgeTest, EarlyCommitPreservesSplitStructure) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  for (int batch = 0; batch < 5; ++batch) {
    Transaction* t = fx.db.txn().Begin(2);
    for (uint64_t i = 0; i < 40; ++i) {
      ASSERT_TRUE(
          fx.db.txn().IndexInsert(t, batch * 40 + i + 1, fx.table[0]).ok());
    }
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  }
  ASSERT_GT(fx.db.index().stats().splits, 0u);
  auto outcome = fx.db.Crash({2});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  NodeId probe = fx.db.machine().AliveNodes()[0];
  EXPECT_TRUE(fx.db.index().CheckStructure(probe).ok());
}

// The WAL gate must refuse to flush a page whose covering log records died
// with a crashed node (flushing would persist unrecoverable state).
TEST(RecoveryEdgeTest, WalGateBlocksFlushAfterUpdaterCrash) {
  // Use a no-IFA config so the crash leaves state unrecovered: we crash a
  // node *without* running recovery by driving the machine directly.
  DatabaseConfig cfg;
  cfg.machine.num_nodes = 4;
  cfg.recovery = RecoveryConfig::VolatileSelectiveRedo();
  Database db(cfg);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  Transaction* t = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t, (*table)[0],
                              std::vector<uint8_t>(22, 9)).ok());
  // Crash node 1 at the machine level only (no recovery): its unforced
  // update record is gone. The flush must fail — either because the WAL
  // gate cannot be satisfied or because the page's current contents are no
  // longer reachable (the sole copy died with the node). Either way,
  // unrecoverable uncommitted state never reaches the stable database.
  db.machine().CrashNode(1);
  Status s = db.buffers().FlushPage(0, (*table)[0].page);
  EXPECT_FALSE(s.ok()) << s.ToString();
  EXPECT_TRUE(s.IsNodeFailed() || s.IsLineLost()) << s.ToString();
}

// Checkpoints bound the replay: records before the checkpoint are not
// re-applied (their effects are in the stable database).
TEST(RecoveryEdgeTest, CheckpointBoundsReplay) {
  Fx fx(RecoveryConfig::VolatileRedoAll());
  // 10 committed updates, then a checkpoint, then 2 more.
  for (int i = 0; i < 10; ++i) {
    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t, fx.table[i], Value(uint8_t(i))).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  }
  ASSERT_TRUE(fx.db.Checkpoint(0).ok());
  for (int i = 10; i < 12; ++i) {
    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().Update(t, fx.table[i], Value(uint8_t(i))).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  }
  auto outcome = fx.db.Crash({3});
  ASSERT_TRUE(outcome.ok());
  // Only the two post-checkpoint updates were candidates for redo.
  EXPECT_LE(outcome->redo_applied + outcome->redo_skipped, 8u)
      << outcome->ToString();
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

// A transaction deleting its *own* uncommitted insert leaves nothing for
// annulment to resurrect (regression: unmarking such a tombstone would
// re-create a never-committed entry).
TEST(RecoveryEdgeTest, DeleteOfOwnInsertAnnulsToNothing) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().IndexInsert(t, 77, fx.table[0]).ok());
    ASSERT_TRUE(fx.db.txn().IndexDelete(t, 77).ok());
    // Migrate the leaf line to a survivor so the state physically outlives
    // the crash.
    Transaction* other = fx.db.txn().Begin(2);
    ASSERT_TRUE(fx.db.txn().IndexInsert(other, 78, fx.table[1]).ok());
    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto l = fx.db.index().Lookup(2, 77);
    ASSERT_TRUE(l.ok());
    EXPECT_FALSE(l->has_value()) << rc.Name() << ": resurrected own insert";
    ASSERT_TRUE(fx.db.txn().Commit(other).ok());
  }
}

// A transaction deleting a committed key and re-inserting it must not
// destroy the committed before-image: annulment restores the original
// entry (regression: tombstone-slot reuse overwrote the committed rid).
TEST(RecoveryEdgeTest, ReinsertAfterDeleteAnnulsToCommitted) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    Transaction* setup = fx.db.txn().Begin(3);
    ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 55, fx.table[4]).ok());
    ASSERT_TRUE(fx.db.txn().Commit(setup).ok());

    Transaction* t = fx.db.txn().Begin(1);
    ASSERT_TRUE(fx.db.txn().IndexDelete(t, 55).ok());
    ASSERT_TRUE(fx.db.txn().IndexInsert(t, 55, fx.table[9]).ok());
    auto before = fx.db.index().Lookup(1, 55);
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(before->has_value());
    EXPECT_EQ(**before, fx.table[9]);

    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    auto l = fx.db.index().Lookup(2, 55);
    ASSERT_TRUE(l.ok());
    ASSERT_TRUE(l->has_value()) << rc.Name() << ": committed entry lost";
    EXPECT_EQ(**l, fx.table[4]) << rc.Name() << ": wrong rid restored";
  }
}

// The same pattern rolled back voluntarily (no crash) must also restore
// the committed entry.
TEST(RecoveryEdgeTest, ReinsertAfterDeleteVoluntaryAbort) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  Transaction* setup = fx.db.txn().Begin(3);
  ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 55, fx.table[4]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().IndexDelete(t, 55).ok());
  ASSERT_TRUE(fx.db.txn().IndexInsert(t, 55, fx.table[9]).ok());
  ASSERT_TRUE(fx.db.txn().Abort(t).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto l = fx.db.index().Lookup(2, 55);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(l->has_value());
  EXPECT_EQ(**l, fx.table[4]);
}

// And the commit of the pattern keeps the new entry (purging the residual
// committed tombstone lazily).
TEST(RecoveryEdgeTest, ReinsertAfterDeleteCommit) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  Transaction* setup = fx.db.txn().Begin(3);
  ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 55, fx.table[4]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());
  Transaction* t = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().IndexDelete(t, 55).ok());
  ASSERT_TRUE(fx.db.txn().IndexInsert(t, 55, fx.table[9]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto l = fx.db.index().Lookup(2, 55);
  ASSERT_TRUE(l.ok());
  ASSERT_TRUE(l->has_value());
  EXPECT_EQ(**l, fx.table[9]);
}

// Crashing every node but one still recovers (the most asymmetric case).
TEST(RecoveryEdgeTest, AllButOneCrash) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo(), 4);
  std::vector<Transaction*> txns;
  for (NodeId n = 0; n < 4; ++n) {
    Transaction* t = fx.db.txn().Begin(n);
    EXPECT_TRUE(fx.db.txn().Update(t, fx.table[n], Value(uint8_t(n + 1))).ok());
    txns.push_back(t);
  }
  auto outcome = fx.db.Crash({0, 1, 2});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->annulled.size(), 3u);
  EXPECT_EQ(outcome->preserved.size(), 1u);
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  EXPECT_TRUE(fx.db.txn().Commit(txns[3]).ok());
}

// Recovery with zero active transactions is a no-op that stays consistent.
TEST(RecoveryEdgeTest, QuiescentCrash) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll(),
                  RecoveryConfig::BaselineRebootAll()}) {
    Fx fx(rc);
    Transaction* t = fx.db.txn().Begin(0);
    ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(7)).ok());
    ASSERT_TRUE(fx.db.txn().Commit(t).ok());
    auto outcome = fx.db.Crash({0});
    ASSERT_TRUE(outcome.ok()) << rc.Name();
    EXPECT_TRUE(outcome->annulled.empty());
    EXPECT_TRUE(fx.checker.VerifyAll().ok()) << rc.Name();
    auto slot = fx.db.records().SnoopSlot(fx.table[0]);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(7)) << rc.Name();
  }
}

// Restarted nodes rejoin cold and can run transactions again.
TEST(RecoveryEdgeTest, RestartedNodeWorks) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  Transaction* t = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t, fx.table[0], Value(1)).ok());
  auto outcome = fx.db.Crash({2});
  ASSERT_TRUE(outcome.ok());
  fx.db.RestartNodes({2});
  ASSERT_TRUE(fx.db.machine().NodeAlive(2));
  Transaction* t2 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[1], Value(2)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t2).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

// A second crash during the window between recovery and the next
// checkpoint must still recover (CLRs are redo-only and never undone).
TEST(RecoveryEdgeTest, BackToBackCrashes) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo(), 6);
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[0], Value(0xA0)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[1], Value(0xB0)).ok());
  ASSERT_TRUE(fx.db.Crash({0}).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
  // Immediately crash another node, then the node that performed much of
  // the first recovery.
  ASSERT_TRUE(fx.db.Crash({1}).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
  ASSERT_TRUE(fx.db.Crash({2}).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
}

// Group commit: a crash after the commit record is enqueued but before any
// covering force means the transaction was never acknowledged — it must be
// annulled, and the record must keep its pre-transaction value.
TEST(RecoveryEdgeTest, GroupCommitCrashBeforeFlushAnnulsPending) {
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.group_commit = true;
  rc.group_commit_window_ns = 10'000'000;  // far beyond the test's horizon
  rc.group_commit_max_batch = 64;
  Fx fx(rc);
  RecordId r = fx.table[0];
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t1, r, Value(0x77)).ok());
  Status s = fx.db.txn().Commit(t1);
  ASSERT_TRUE(s.IsBusy()) << s.ToString();  // pending, unacknowledged
  EXPECT_EQ(t1->state, TxnState::kActive);
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(t1->state, TxnState::kAborted);  // annulled, never committed
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(r);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));  // pre-transaction value
}

// Group commit under the eager-Stable LBM: the batch mixes update records
// (LBM intents) with commit records. A size-bound flush mid-stream makes
// the earlier transaction durable; the later one is still volatile when
// the node dies. Recovery must commit the first and annul the second.
TEST(RecoveryEdgeTest, GroupCommitCrashMidBatchMixedRecords) {
  RecoveryConfig rc = RecoveryConfig::StableEagerRedoAll();
  rc.group_commit = true;
  rc.group_commit_window_ns = 10'000'000;
  // a's records (begin, lock op, update, commit) stay under the bound; b's
  // update intent pushes past it and flushes the mixed batch.
  rc.group_commit_max_batch = 6;
  Fx fx(rc);
  RecordId r = fx.table[0];
  Transaction* a = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(a, r, Value(0x44)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(a).IsBusy());  // pending in the batch
  // b's update lands in the same batch and its LBM intent trips the size
  // bound: the flush makes a's commit record durable, but a stays
  // unacknowledged (nobody polled it yet).
  Transaction* b = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(b, fx.table[1], Value(0x55)).ok());
  EXPECT_GE(fx.db.group_commit()->stats().size_flushes, 1u);
  ASSERT_TRUE(fx.db.log().IsStable(1, a->last_lsn));
  EXPECT_EQ(a->state, TxnState::kActive);
  ASSERT_TRUE(fx.db.txn().Commit(b).IsBusy());  // volatile again after flush
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(a->state, TxnState::kCommitted);  // durable ⇒ resolved
  EXPECT_EQ(b->state, TxnState::kAborted);
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(r);
  auto slot_b = fx.db.records().SnoopSlot(fx.table[1]);
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(slot_b.ok());
  EXPECT_EQ(slot->data, Value(0x44));    // a redone
  EXPECT_EQ(slot_b->data, Value(0));     // b annulled
}

// RebootAll with a non-empty pending batch: a pending commit whose record
// an unrelated force made durable is committed by crash-time resolution; a
// still-volatile pending commit is annulled with everything else.
TEST(RecoveryEdgeTest, GroupCommitRebootAllWithPendingBatch) {
  RecoveryConfig rc = RecoveryConfig::BaselineRebootAll();
  rc.group_commit = true;
  rc.group_commit_window_ns = 10'000'000;
  rc.group_commit_max_batch = 64;
  Fx fx(rc);
  RecordId rp = fx.table[0];
  RecordId rq = fx.table[1];
  Transaction* p = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(p, rp, Value(0x66)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(p).IsBusy());  // volatile pending
  Transaction* q = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(q, rq, Value(0x99)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(q).IsBusy());
  // An unrelated force (as the WAL gate or a checkpoint would issue) makes
  // q's batch durable; q stays unacknowledged until polled — the crash
  // arrives first.
  ASSERT_TRUE(fx.db.log().Force(2, 2).ok());
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(p->state, TxnState::kAborted);    // record lost with node 1
  EXPECT_EQ(q->state, TxnState::kCommitted);  // durable ⇒ resolved
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  auto sp = fx.db.records().SnoopSlot(rp);
  auto sq = fx.db.records().SnoopSlot(rq);
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(sq.ok());
  EXPECT_EQ(sp->data, Value(0));
  EXPECT_EQ(sq->data, Value(0x99));
}

// ROADMAP item 5 regression: RebootAll with early_commit_structural=false
// never forced split-touched pages, so a whole-machine reload restored torn
// B+-tree routing ("Corruption: descent reached a non-tree page"). The
// split fix forces every page a split touched (WAL-gated, leaf first) at
// structural commit. This is the distilled schedule that reproduced it:
// index-heavy bench workload, two whole-machine reboots mid-run. Below
// ~60 txns/node the tree stays shallow enough that the torn routing never
// lands under a descent; 60 and 75 both corrupted before the fix.
TEST(RebootAllSplitDurability, SurvivesWholeMachineReloadUnderSplitLoad) {
  for (size_t txns_per_node : {60u, 75u}) {
    HarnessConfig cfg;
    cfg.db.machine.num_nodes = 8;
    cfg.db.recovery = RecoveryConfig::BaselineRebootAll();
    cfg.num_records = 256;
    cfg.workload.txns_per_node = txns_per_node;
    cfg.workload.ops_per_txn = 8;
    cfg.workload.write_ratio = 0.5;
    cfg.workload.index_op_ratio = 0.15;
    cfg.workload.seed = 42;
    cfg.steal_flush_prob = 0.01;
    cfg.seed = 42 ^ 0xBEEF;
    uint64_t steps = txns_per_node * 8 * 8;
    cfg.crashes = {CrashPlan{steps / 2, {2}, true},
                   CrashPlan{steps * 3 / 4, {4, 5}, true}};
    Harness h(cfg);
    auto report = h.Run();
    ASSERT_TRUE(report.ok())
        << txns_per_node << " txns/node: " << report.status().ToString();
    EXPECT_TRUE(report->verify_status.ok())
        << txns_per_node << " txns/node: "
        << report->verify_status.ToString();
    EXPECT_GT(report->btree.splits, 0u)
        << "schedule must actually split, or the regression is untested";
    for (const auto& r : report->recoveries) {
      EXPECT_TRUE(r.whole_machine_restart);
    }
  }
}

// Regression (ROADMAP 5b): eager Selective Redo "duplicate live index
// entry" at >= 75 txns/node in bench_availability. A split leaf whose
// header line survives the crash (shared on a survivor) while its tail
// entry lines are lost pairs a post-split Page-LSN with pre-split
// reinstalled lines: the structural-redo Page-LSN guard then skipped the
// split's page image, and the keys the split had moved to the right
// sibling resurrected in the old leaf as duplicate live entries. The
// reinstall pass now flags such spliced pages and structural redo installs
// their images unconditionally.
TEST(RecoveryEdgeTest, SplitLeafPartialLineLossDoesNotResurrectMovedKeys) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::StableTriggeredSelectiveRedo()}) {
    DatabaseConfig c;
    c.machine.num_nodes = 4;
    c.page_size = 512;  // 4 lines: header + 3 entry lines of 4 entries each
    c.recovery = rc;
    Database db(c);
    IfaChecker checker(&db);
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(8);
    ASSERT_TRUE(t.ok());
    checker.RegisterTable(*t);

    // Node 1 fills the root leaf (12 slots) and commits; the checkpoint
    // writes the full pre-split leaf image to the stable database.
    Transaction* fill = db.txn().Begin(1);
    for (uint64_t k = 10; k <= 120; k += 10) {
      ASSERT_TRUE(db.txn().IndexInsert(fill, k, (*t)[0]).ok());
    }
    ASSERT_TRUE(db.txn().Commit(fill).ok());
    ASSERT_TRUE(db.Checkpoint(0).ok());

    // The 13th key splits the leaf: keys >= 70 move to the new right
    // sibling, the old leaf is compacted into its first entry lines, and
    // the structural nested top-level action stamps its Page-LSN.
    Transaction* split = db.txn().Begin(1);
    ASSERT_TRUE(db.txn().IndexInsert(split, 130, (*t)[0]).ok());
    ASSERT_TRUE(db.txn().Commit(split).ok());

    // A survivor looks up the leaf's lowest key: that caches the old
    // leaf's header line (post-split Page-LSN) and first entry line on
    // node 0 — but the tail entry lines stay exclusive to node 1.
    Transaction* peek = db.txn().Begin(0);
    auto found = db.txn().IndexLookup(peek, 10);
    ASSERT_TRUE(found.ok());
    EXPECT_TRUE(found->has_value());
    ASSERT_TRUE(db.txn().Commit(peek).ok());

    // Crash node 1: selective redo reinstalls the lost tail lines from the
    // pre-split stable image. The moved keys must not come back live.
    auto outcome = db.Crash({1});
    ASSERT_TRUE(outcome.ok())
        << rc.Name() << ": " << outcome.status().ToString();
    Status v = checker.VerifyAll();
    EXPECT_TRUE(v.ok()) << rc.Name() << ": " << v.ToString();
    EXPECT_TRUE(db.index().CheckStructure(0).ok()) << rc.Name();
  }
}

// A split copies its leaf's entries into the structural record's page
// images, uncommitted ones included, tag and all. When a crash leaves that
// leaf partly lost, structural redo installs the image straight into
// memory, which drops the splitter's cached copy of every line, so the
// dead node's tagged entry sits in no cache. The tag scan must still find
// it: here node 2's uncommitted key came back live after node 2 crashed.
TEST(RecoveryEdgeTest, TaggedEntryInInstalledSplitImageIsUndone) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::StableTriggeredSelectiveRedo()}) {
    SCOPED_TRACE(rc.Name());
    DatabaseConfig c;
    c.machine.num_nodes = 4;
    c.page_size = 512;  // 4 lines: header + 3 entry lines of 4 entries each
    c.recovery = rc;
    Database db(c);
    IfaChecker checker(&db);
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(8);
    ASSERT_TRUE(t.ok());
    checker.RegisterTable(*t);

    // Node 1 commits eleven keys into the root leaf; the checkpoint writes
    // that image to the stable database.
    Transaction* fill = db.txn().Begin(1);
    for (uint64_t k = 10; k <= 110; k += 10) {
      ASSERT_TRUE(db.txn().IndexInsert(fill, k, (*t)[0]).ok());
    }
    ASSERT_TRUE(db.txn().Commit(fill).ok());
    ASSERT_TRUE(db.Checkpoint(0).ok());

    // Node 2 inserts key 115 and stays active: its entry carries node 2's
    // tag and its log record stays in node 2's volatile tail.
    Transaction* a = db.txn().Begin(2);
    ASSERT_TRUE(db.txn().IndexInsert(a, 115, (*t)[0]).ok());

    // Node 3 fills the leaf past capacity: the split moves the upper keys,
    // 115 among them, and early-commits the page images.
    const uint64_t splits = db.index().stats().splits;
    Transaction* b = db.txn().Begin(3);
    ASSERT_TRUE(db.txn().IndexInsert(b, 5, (*t)[0]).ok());
    ASSERT_TRUE(db.txn().Commit(b).ok());
    ASSERT_GT(db.index().stats().splits, splits);

    // Node 2 touches the leaf that now holds 115 again, so the crash takes
    // one of its lines with it.
    ASSERT_TRUE(db.txn().IndexInsert(a, 117, (*t)[0]).ok());

    auto outcome = db.Crash({2});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    SCOPED_TRACE(outcome->ToString());
    EXPECT_GT(outcome->lines_reinstalled, 0u);
    Status v = checker.VerifyAll();
    EXPECT_TRUE(v.ok()) << v.ToString();
    auto entry = db.index().GetEntry(0, 115);
    ASSERT_TRUE(entry.ok());
    EXPECT_FALSE(entry->has_value() &&
                 entry->value().state == LeafEntryState::kLive)
        << "node 2's uncommitted key is live after its crash";
  }
}

// The whole RecoveryOutcome of one fixed crash — the two-node crash of a
// three-crash schedule with index ops, aborts, steal flushes and
// checkpoints — pinned. Every restart runs through the restart engine's
// drain, so this fails if the drain's work (or a phase's time) goes
// unreported.
struct PinnedOutcome {
  const char* protocol;
  uint64_t redo_applied, redo_skipped, undo_applied, tag_undos, tags_scanned;
  uint64_t pages_reloaded, lines_reinstalled;
  SimTime recovery_time_ns;
  std::array<SimTime, kNumRecoveryPhases> phase_ns;
};

TEST(RecoveryEdgeTest, PinnedOutcomeOfOneFixedCrash) {
  // Phase order: analysis, reboot, reload, redo, undo, tag scan, locks.
  const PinnedOutcome pinned[] = {
      {"volatile-selective", 13, 92, 2, 0, 3072, 3, 26, 5021730,
       {0, 0, 5000000, 6950, 6290, 5000, 3490}},
      {"volatile-redoall", 25, 73, 3, 0, 0, 4, 0, 5500770,
       {0, 0, 5000000, 70540, 1560, 0, 428670}},
      {"reboot-all", 21, 73, 5, 0, 0, 4, 0, 55011900,
       {0, 50000000, 5000000, 11900, 0, 0, 0}},
  };
  for (const PinnedOutcome& p : pinned) {
    HarnessConfig c;
    ASSERT_TRUE(RecoveryConfig::FromFlagName(p.protocol, &c.db.recovery));
    c.db.machine.num_nodes = 8;
    c.seed = 5;
    c.workload.seed = 36;
    c.workload.txns_per_node = 60;
    c.workload.index_op_ratio = 0.15;
    c.workload.voluntary_abort_ratio = 0.05;
    c.steal_flush_prob = 0.05;
    c.checkpoint_every_steps = 300;
    c.crashes = {{200, {2}, false}, {260, {5, 6}, true}, {700, {1}, true}};
    Harness h(c);
    auto report = h.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_TRUE(report->verify_status.ok()) << p.protocol;
    ASSERT_EQ(report->recoveries.size(), 3u) << p.protocol;
    const RecoveryOutcome& out = report->recoveries[1];
    SCOPED_TRACE(std::string(p.protocol) + ": " + out.ToString());
    EXPECT_EQ(out.redo_applied, p.redo_applied);
    EXPECT_EQ(out.redo_skipped, p.redo_skipped);
    EXPECT_EQ(out.undo_applied, p.undo_applied);
    EXPECT_EQ(out.tag_undos, p.tag_undos);
    EXPECT_EQ(out.tags_scanned, p.tags_scanned);
    EXPECT_EQ(out.pages_reloaded, p.pages_reloaded);
    EXPECT_EQ(out.lines_reinstalled, p.lines_reinstalled);
    EXPECT_EQ(out.recovery_time_ns, p.recovery_time_ns);
    EXPECT_EQ(out.phase_ns, p.phase_ns);
  }
}

}  // namespace
}  // namespace smdb
