// Unit tests for the transaction layer: strict 2PL, the update protocol
// (undo tagging, Page-LSN, WAL table), commit/abort, rollback via CLRs,
// deadlock detection, the executor and its schedule policies.

#include <gtest/gtest.h>

#include <map>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "txn/executor.h"
#include "workload/harness.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

struct Fx {
  explicit Fx(RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo())
      : db(MakeCfg(rc)) {
    auto t = db.CreateTable(32);
    EXPECT_TRUE(t.ok());
    table = *t;
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc) {
    DatabaseConfig c;
    c.machine.num_nodes = 4;
    c.recovery = rc;
    return c;
  }
  Database db;
  std::vector<RecordId> table;
};

TEST(TxnTest, ReadYourCommittedWrites) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(9)).ok());
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  Transaction* t2 = f.db.txn().Begin(1);
  auto r = f.db.txn().Read(t2, f.table[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value(9));
  ASSERT_TRUE(f.db.txn().Commit(t2).ok());
}

TEST(TxnTest, UpdateSetsUndoTagAndCommitClearsIt) {
  Fx f;  // Selective Redo => undo tagging on
  Transaction* t = f.db.txn().Begin(2);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(1)).ok());
  auto slot = f.db.records().SnoopSlot(f.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->tag, TagForNode(2));
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  slot = f.db.records().SnoopSlot(f.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->tag, kTagNone);
}

TEST(TxnTest, RedoAllConfigWritesNoTags) {
  Fx f(RecoveryConfig::VolatileRedoAll());
  Transaction* t = f.db.txn().Begin(2);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(1)).ok());
  auto slot = f.db.records().SnoopSlot(f.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->tag, kTagNone);
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
}

TEST(TxnTest, UpdateAdvancesPageLsn) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(1)).ok());
  auto base = f.db.buffers().BaseOf(f.table[0].page);
  ASSERT_TRUE(base.ok());
  uint64_t page_lsn = 0;
  ASSERT_TRUE(f.db.machine()
                  .SnoopRead(*base + PageLayout::kPageLsnOffset, &page_lsn, 8)
                  .ok());
  auto slot = f.db.records().SnoopSlot(f.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(page_lsn, slot->usn);
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
}

TEST(TxnTest, CommitForcesLog) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(1)).ok());
  EXPECT_GT(f.db.log().TailSize(0), 0u);
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  // The tail at the commit point was forced (lock releases may follow).
  bool commit_stable = false;
  f.db.log().ForEachStable(0, [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kCommit && rec.txn == t->id) {
      commit_stable = true;
    }
  });
  EXPECT_TRUE(commit_stable);
}

TEST(TxnTest, AbortRestoresBeforeImagesAndWritesClrs) {
  Fx f;
  Transaction* setup = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(setup, f.table[0], Value(5)).ok());
  ASSERT_TRUE(f.db.txn().Commit(setup).ok());

  Transaction* t = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(6)).ok());
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(7)).ok());
  ASSERT_TRUE(f.db.txn().Update(t, f.table[1], Value(8)).ok());
  ASSERT_TRUE(f.db.txn().Abort(t).ok());

  auto s0 = f.db.records().SnoopSlot(f.table[0]);
  ASSERT_TRUE(s0.ok());
  EXPECT_EQ(s0->data, Value(5));
  EXPECT_EQ(s0->tag, kTagNone);
  auto s1 = f.db.records().SnoopSlot(f.table[1]);
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s1->data, Value(0));
  int clrs = 0;
  f.db.log().ForEachAll(1, [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kUpdate && rec.update().is_clr) ++clrs;
  });
  EXPECT_EQ(clrs, 3);
}

TEST(TxnTest, AbortRollsBackIndexOps) {
  Fx f;
  Transaction* setup = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().IndexInsert(setup, 5, f.table[0]).ok());
  ASSERT_TRUE(f.db.txn().Commit(setup).ok());

  Transaction* t = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().IndexDelete(t, 5).ok());
  ASSERT_TRUE(f.db.txn().IndexInsert(t, 9, f.table[1]).ok());
  ASSERT_TRUE(f.db.txn().Abort(t).ok());

  auto l5 = f.db.index().Lookup(0, 5);
  ASSERT_TRUE(l5.ok());
  EXPECT_TRUE(l5->has_value());
  auto l9 = f.db.index().Lookup(0, 9);
  ASSERT_TRUE(l9.ok());
  EXPECT_FALSE(l9->has_value());
}

TEST(TxnTest, Strict2PL_LocksHeldUntilCommit) {
  Fx f;
  Transaction* t0 = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t0, f.table[0], Value(1)).ok());
  Transaction* t1 = f.db.txn().Begin(1);
  EXPECT_TRUE(f.db.txn().Read(t1, f.table[0]).status().IsBusy());
  ASSERT_TRUE(f.db.txn().Commit(t0).ok());
  auto poll = f.db.txn().PollLock(t1, RecordLockName(f.table[0]),
                                  LockMode::kShared);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(*poll, LockResult::kGranted);
  auto r = f.db.txn().Read(t1, f.table[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value(1));
}

TEST(TxnTest, SharedReadersDoNotBlock) {
  Fx f;
  Transaction* t0 = f.db.txn().Begin(0);
  Transaction* t1 = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().Read(t0, f.table[0]).ok());
  ASSERT_TRUE(f.db.txn().Read(t1, f.table[0]).ok());
  ASSERT_TRUE(f.db.txn().Commit(t0).ok());
  ASSERT_TRUE(f.db.txn().Commit(t1).ok());
}

TEST(TxnTest, DeadlockDetected) {
  Fx f;
  Transaction* t0 = f.db.txn().Begin(0);
  Transaction* t1 = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().Update(t0, f.table[0], Value(1)).ok());
  ASSERT_TRUE(f.db.txn().Update(t1, f.table[1], Value(2)).ok());
  // t0 waits for t1's lock...
  EXPECT_TRUE(f.db.txn().Update(t0, f.table[1], Value(3)).IsBusy());
  // ...and t1 requesting t0's lock closes the cycle.
  Status s = f.db.txn().Update(t1, f.table[0], Value(4));
  EXPECT_TRUE(s.IsDeadlock());
  ASSERT_TRUE(f.db.txn().Abort(t1).ok());
  // t0 gets the lock after the victim aborts.
  auto poll = f.db.txn().PollLock(t0, RecordLockName(f.table[1]),
                                  LockMode::kExclusive);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(*poll, LockResult::kGranted);
  ASSERT_TRUE(f.db.txn().Update(t0, f.table[1], Value(3)).ok());
  ASSERT_TRUE(f.db.txn().Commit(t0).ok());
}

TEST(TxnTest, WrongValueSizeRejected) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  EXPECT_EQ(f.db.txn().Update(t, f.table[0], {1, 2, 3}).code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
}

TEST(TxnTest, DirtyReadSeesUncommitted) {
  // Section 3.2: with dirty reads allowed, H_wr arises even when a single
  // object occupies the cache line — padding can never substitute for LBM.
  DatabaseConfig cfg = Fx::MakeCfg(RecoveryConfig::VolatileSelectiveRedo());
  cfg.record_data_size = 118;  // one record per 128-byte line
  Database db(cfg);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  Transaction* t = db.txn().Begin(0);
  ASSERT_TRUE(
      db.txn().Update(t, (*table)[0], std::vector<uint8_t>(118, 0xEE)).ok());
  uint64_t repl_before = db.machine().stats().replications;
  auto r = db.txn().DirtyRead(3, (*table)[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, std::vector<uint8_t>(118, 0xEE));
  EXPECT_GT(db.machine().stats().replications, repl_before)
      << "H_wr replication did not occur";
  ASSERT_TRUE(db.txn().Abort(t).ok());
}

TEST(ExecutorTest, RunsScriptsToCompletion) {
  Fx f;
  SystemExecutor ex(&f.db.txn(), &f.db.machine(), 7);
  for (NodeId n = 0; n < 4; ++n) {
    TxnScript s;
    s.ops.push_back(Op::Update(f.table[n], Value(uint8_t(n + 1))));
    s.ops.push_back(Op::Read(f.table[(n + 1) % 4]));
    s.ops.push_back(Op::Commit());
    ex.executor(n).Enqueue(std::move(s));
  }
  ex.Run();
  EXPECT_TRUE(ex.AllIdle());
  EXPECT_EQ(ex.TotalStats().committed, 4u);
  for (NodeId n = 0; n < 4; ++n) {
    auto slot = f.db.records().SnoopSlot(f.table[n]);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(uint8_t(n + 1)));
  }
}

TEST(ExecutorTest, ConflictingScriptsSerialize) {
  Fx f;
  SystemExecutor ex(&f.db.txn(), &f.db.machine(), 11);
  // All nodes update the same record: heavy conflicts, possibly deadlock
  // retries; everything must still commit exactly once per script.
  for (NodeId n = 0; n < 4; ++n) {
    for (int i = 0; i < 3; ++i) {
      TxnScript s;
      s.ops.push_back(Op::Update(f.table[0], Value(uint8_t(n * 10 + i))));
      s.ops.push_back(Op::Update(f.table[1], Value(uint8_t(n * 10 + i))));
      s.ops.push_back(Op::Commit());
      ex.executor(n).Enqueue(std::move(s));
    }
  }
  ex.Run();
  EXPECT_TRUE(ex.AllIdle());
  EXPECT_EQ(ex.TotalStats().committed, 12u);
  // Both records were last written by the same transaction (atomicity).
  auto a = f.db.records().SnoopSlot(f.table[0]);
  auto b = f.db.records().SnoopSlot(f.table[1]);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->data, b->data);
}

TEST(ExecutorTest, VoluntaryAbortScript) {
  Fx f;
  IfaChecker checker(&f.db);
  f.db.txn().AddObserver(&checker);
  checker.RegisterTable(f.table);
  SystemExecutor ex(&f.db.txn(), &f.db.machine(), 3);
  TxnScript s;
  s.ops.push_back(Op::Update(f.table[5], Value(0x66)));
  s.ops.push_back(Op::Abort());
  ex.executor(0).Enqueue(std::move(s));
  ex.Run();
  EXPECT_EQ(ex.TotalStats().committed, 0u);
  EXPECT_EQ(ex.TotalStats().aborted_other, 1u);
  auto slot = f.db.records().SnoopSlot(f.table[5]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));
  EXPECT_TRUE(checker.VerifyAll().ok());
}

TEST(TxnTest, LockOpsChainedIntoTxnLog) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Read(t, f.table[0]).ok());
  ASSERT_TRUE(f.db.txn().Update(t, f.table[1], Value(2)).ok());
  // The chain head is the last record; walking prev_lsn reaches the Begin.
  int chain_len = 0;
  Lsn lsn = t->last_lsn;
  std::map<Lsn, LogRecord> by_lsn;
  f.db.log().ForEachAll(0, [&](const LogRecord& rec) {
    by_lsn[rec.lsn] = rec;
  });
  while (lsn != kInvalidLsn && chain_len < 100) {
    auto it = by_lsn.find(lsn);
    ASSERT_NE(it, by_lsn.end());
    EXPECT_EQ(it->second.txn, t->id);
    lsn = it->second.prev_lsn;
    ++chain_len;
  }
  EXPECT_GE(chain_len, 4);  // begin + S-lock + X-lock + update
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
}

// ---- Schedule policies ----------------------------------------------------

/// The W1b config: smdb_run --nodes=8 --protocol=volatile-selective
/// --txns=200 --index-ratio=0.15 --seed=9090.
HarnessConfig W1bConfig(SchedulePolicy schedule) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = 8;
  cfg.db.recovery = RecoveryConfig::VolatileSelectiveRedo();
  cfg.workload.txns_per_node = 200;
  cfg.workload.index_op_ratio = 0.15;
  cfg.workload.seed = 9090;
  cfg.seed = 9090 ^ 0xBEEF;
  cfg.schedule = schedule;
  return cfg;
}

TEST(ScheduleTest, TimeOrderedStepsTheMinimumRunnableClock) {
  HarnessConfig cfg = W1bConfig(SchedulePolicy::kTimeOrdered);
  cfg.workload.txns_per_node = 40;
  Harness h(cfg);
  ASSERT_TRUE(h.Setup().ok());
  SystemExecutor& ex = h.executor();
  Machine& m = h.db().machine();
  uint64_t fallback_steps = 0;
  while (true) {
    // The earliest ready time among live, non-idle, unblocked nodes (or
    // among all of them when every one is blocked).
    std::map<NodeId, SimTime> ready_at;
    bool any_runnable = false;
    for (NodeId n = 0; n < m.num_nodes(); ++n) {
      NodeExecutor& ne = ex.executor(n);
      if (!m.NodeAlive(n) || ne.idle()) continue;
      ready_at[n] = ne.ReadyAt();
      any_runnable |= !ne.blocked();
    }
    SimTime min_ready = ~SimTime{0};
    for (const auto& [n, t] : ready_at) {
      if (any_runnable && ex.executor(n).blocked()) continue;
      min_ready = std::min(min_ready, t);
    }
    if (!ex.StepOnce()) break;
    fallback_steps += any_runnable ? 0 : 1;
    ASSERT_EQ(ready_at.at(ex.last_stepped()), min_ready)
        << "step " << ex.steps();
  }
  EXPECT_EQ(ex.TotalStats().committed, 8u * 40u);
  EXPECT_EQ(fallback_steps, 0u) << "every node blocked at once";
}

TEST(ScheduleTest, TimeOrderedWaitersDoNotSpin) {
  Harness time(W1bConfig(SchedulePolicy::kTimeOrdered));
  Harness uniform(W1bConfig(SchedulePolicy::kUniform));
  auto t = time.Run();
  auto u = uniform.Run();
  ASSERT_TRUE(t.ok() && u.ok());
  ASSERT_TRUE(t->verify_status.ok()) << t->verify_status.ToString();
  EXPECT_EQ(t->exec.committed, u->exec.committed);
  EXPECT_LE(t->exec.lock_waits, u->exec.lock_waits);
  // Waits now measure contention, not clock skew.
  EXPECT_LT(t->machine.line_lock_wait_ns, u->machine.line_lock_wait_ns);
  EXPECT_LT(t->total_time_ns, u->total_time_ns);
}

TEST(ScheduleTest, WwDeadlockRetriesCommitBothUnderTimeOrder) {
  Fx f;
  f.db.machine().SyncClocks();  // table creation charged node 0's clock
  SystemExecutor ex(&f.db.txn(), &f.db.machine(), 5,
                    SchedulePolicy::kTimeOrdered);
  // Opposite update orders from equal clocks: whichever transaction closes
  // the cycle aborts, backs off, and retries after the other one commits.
  for (NodeId n : {NodeId{0}, NodeId{1}}) {
    TxnScript s;
    s.ops.push_back(Op::Update(f.table[n], Value(uint8_t(n + 1))));
    s.ops.push_back(Op::Update(f.table[1 - n], Value(uint8_t(n + 1))));
    s.ops.push_back(Op::Commit());
    ex.executor(n).Enqueue(std::move(s));
  }
  ex.Run(10'000);
  EXPECT_TRUE(ex.AllIdle());
  EXPECT_EQ(ex.TotalStats().committed, 2u);
  EXPECT_GE(ex.TotalStats().aborted_deadlock, 1u);
}

}  // namespace
}  // namespace smdb
