// Integration tests for the paper's core crash scenarios (sections 3.1,
// 4.1.1, figure 2): records r1 and r2 share a cache line; transactions on
// different nodes update them; one node crashes. Under each IFA protocol,
// recovery must (case 1) undo the crashed transaction's migrated update and
// (case 2) redo the survivor's destroyed update.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery_manager.h"

namespace smdb {
namespace {

DatabaseConfig MakeConfig(RecoveryConfig rc, uint16_t nodes = 4) {
  DatabaseConfig c;
  c.machine.num_nodes = nodes;
  c.recovery = rc;
  return c;
}

std::vector<uint8_t> Value(uint8_t fill, size_t n = 22) {
  return std::vector<uint8_t>(n, fill);
}

struct Fixture {
  explicit Fixture(RecoveryConfig rc)
      : db(MakeConfig(rc)), checker(&db) {
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(8);
    EXPECT_TRUE(t.ok());
    table = *t;
    checker.RegisterTable(table);
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }

  Database db;
  IfaChecker checker;
  std::vector<RecordId> table;
};

class CrashScenarioTest : public ::testing::TestWithParam<RecoveryConfig> {};

INSTANTIATE_TEST_SUITE_P(
    IfaProtocols, CrashScenarioTest,
    ::testing::Values(RecoveryConfig::VolatileSelectiveRedo(),
                      RecoveryConfig::VolatileRedoAll(),
                      RecoveryConfig::StableEagerRedoAll(),
                      RecoveryConfig::StableTriggeredRedoAll(),
                      RecoveryConfig::StableTriggeredSelectiveRedo()),
    [](const ::testing::TestParamInfo<RecoveryConfig>& info) {
      std::string name = info.param.Name();
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Figure 2 setup: t_x on node x updates r; the line migrates to node y
// because t_y updates the cohabiting record r2.
struct Figure2 {
  Figure2(Fixture& f) : fx(f) {
    r1 = fx.table[0];
    r2 = fx.table[1];
    // Records 0 and 1 share the first data line of the page (4 slots/line).
    EXPECT_EQ(fx.db.records().SlotLine(r1), fx.db.records().SlotLine(r2));
    tx = fx.db.txn().Begin(0);  // node x = 0
    ty = fx.db.txn().Begin(1);  // node y = 1
    EXPECT_TRUE(fx.db.txn().Update(tx, r1, Value(0xAA)).ok());
    EXPECT_TRUE(fx.db.txn().Update(ty, r2, Value(0xBB)).ok());
    // The line now lives exclusively on node y.
    const LineEntry* e =
        fx.db.machine().FindLine(fx.db.records().SlotLine(r1));
    EXPECT_EQ(e->owner, 1);
  }
  Fixture& fx;
  RecordId r1, r2;
  Transaction* tx;
  Transaction* ty;
};

TEST_P(CrashScenarioTest, Case1_CrashOfUpdaterUndoesMigratedUpdate) {
  Fixture fx(GetParam());
  Figure2 f2(fx);

  // Node x crashes: t_x's update to r1 physically survives on node y, but
  // must be undone; t_y must be unaffected.
  auto outcome = fx.db.Crash({0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->annulled.size(), 1u);
  EXPECT_EQ(outcome->forced_aborts.size(), 0u);
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();

  // r1 must be back to its committed (zero) value.
  auto slot = fx.db.records().SnoopSlot(f2.r1);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));
  // r2 must still carry t_y's uncommitted update.
  auto slot2 = fx.db.records().SnoopSlot(f2.r2);
  ASSERT_TRUE(slot2.ok());
  EXPECT_EQ(slot2->data, Value(0xBB));

  // t_y can still commit.
  EXPECT_TRUE(fx.db.txn().Commit(f2.ty).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST_P(CrashScenarioTest, Case2_CrashOfHolderRedoesSurvivorUpdate) {
  Fixture fx(GetParam());
  Figure2 f2(fx);

  // Node y crashes holding the only copy of the line: t_x's update to r1
  // must be redone from node x's log; t_y's update to r2 must be undone.
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->annulled.size(), 1u);
  EXPECT_EQ(outcome->forced_aborts.size(), 0u);
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();

  auto slot = fx.db.records().SnoopSlot(f2.r1);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0xAA)) << "survivor's update was lost";
  auto slot2 = fx.db.records().SnoopSlot(f2.r2);
  ASSERT_TRUE(slot2.ok());
  EXPECT_EQ(slot2->data, Value(0)) << "crashed txn's update not undone";

  EXPECT_TRUE(fx.db.txn().Commit(f2.tx).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST_P(CrashScenarioTest, CommittedWorkSurvivesHolderCrash) {
  Fixture fx(GetParam());
  // t_x commits an update; the line then migrates to node y via t_y's
  // update to the cohabiting record; y crashes. The committed update must
  // be redone (no-force!) and t_y's update undone.
  Transaction* tx = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Update(tx, fx.table[0], Value(0x11)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(tx).ok());

  Transaction* ty = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(ty, fx.table[1], Value(0x22)).ok());

  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(fx.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0x11));
}

TEST_P(CrashScenarioTest, WrSharingDirtyReadReplication) {
  Fixture fx(GetParam());
  // H_wr: t_x updates r; node y dirty-reads it (browse mode), replicating
  // the line. Crash of x must undo the update even though a copy survives
  // on y.
  Transaction* tx = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Update(tx, fx.table[0], Value(0x77)).ok());
  ASSERT_TRUE(fx.db.txn().DirtyRead(1, fx.table[0]).ok());
  EXPECT_TRUE(
      fx.db.machine().ProbeLine(fx.db.records().SlotLine(fx.table[0])));

  auto outcome = fx.db.Crash({0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(fx.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));
}

TEST_P(CrashScenarioTest, MultiNodeCrash) {
  Fixture fx(GetParam());
  // Three active transactions on three nodes; two nodes crash at once.
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  Transaction* t2 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[0], Value(0x10)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[1], Value(0x20)).ok());
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[2], Value(0x30)).ok());

  auto outcome = fx.db.Crash({0, 1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->annulled.size(), 2u);
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();

  auto s2 = fx.db.records().SnoopSlot(fx.table[2]);
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(s2->data, Value(0x30));
  EXPECT_TRUE(fx.db.txn().Commit(t2).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST_P(CrashScenarioTest, StolenPageUndoneFromStableLog) {
  Fixture fx(GetParam());
  // t_x updates r1, the dirty page is stolen (flushed) before commit, then
  // x crashes. The stable database holds the uncommitted value; recovery
  // must undo it from x's stable log (WAL guarantees the records exist).
  Transaction* tx = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Update(tx, fx.table[0], Value(0x99)).ok());
  ASSERT_TRUE(fx.db.buffers().FlushPage(2, fx.table[0].page).ok());

  auto outcome = fx.db.Crash({0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(fx.table[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0));
}

TEST_P(CrashScenarioTest, LockTableSurvivesCrash) {
  Fixture fx(GetParam());
  // Two transactions on different nodes hold a shared lock on the same
  // record; the LCB lives on whichever node acquired it last. Crash that
  // node: the survivor's (read) lock must be restored, the crashed
  // transaction's released.
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Read(t0, fx.table[3]).ok());
  ASSERT_TRUE(fx.db.txn().Read(t1, fx.table[3]).ok());

  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();

  uint64_t name = RecordLockName(fx.table[3]);
  auto mode = fx.db.locks().HeldMode(0, t0->id, name);
  ASSERT_TRUE(mode.ok());
  EXPECT_EQ(*mode, LockMode::kShared) << "survivor's read lock lost";
  auto holders = fx.db.locks().Holders(0, name);
  ASSERT_TRUE(holders.ok());
  EXPECT_EQ(holders->size(), 1u) << "crashed txn's lock not released";
}

TEST_P(CrashScenarioTest, WaiterUnblockedByCrashOfHolder) {
  Fixture fx(GetParam());
  Transaction* t0 = fx.db.txn().Begin(0);
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[0], Value(1)).ok());
  // t1 blocks on the X lock held by t0.
  Status s = fx.db.txn().Update(t1, fx.table[0], Value(2));
  ASSERT_TRUE(s.IsBusy());

  // Crash t0's node: its lock is released and t1 promoted.
  auto outcome = fx.db.Crash({0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto res = fx.db.txn().PollLock(t1, RecordLockName(fx.table[0]),
                                  LockMode::kExclusive);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, LockResult::kGranted);
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[0], Value(2)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t1).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST_P(CrashScenarioTest, IndexInsertDeleteRecovery) {
  Fixture fx(GetParam());
  // Committed entry for key 5. t_x (node 0) deletes it logically and
  // inserts key 9; the leaf line migrates to node 1 via t_y's insert.
  Transaction* setup = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().IndexInsert(setup, 5, fx.table[0]).ok());
  ASSERT_TRUE(fx.db.txn().Commit(setup).ok());

  Transaction* tx = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().IndexDelete(tx, 5).ok());
  ASSERT_TRUE(fx.db.txn().IndexInsert(tx, 9, fx.table[1]).ok());
  Transaction* ty = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().IndexInsert(ty, 7, fx.table[2]).ok());

  // Crash node 0: its logical delete must be unmarked, its insert removed;
  // t_y's insert must survive.
  auto outcome = fx.db.Crash({0});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();

  auto l5 = fx.db.index().Lookup(2, 5);
  ASSERT_TRUE(l5.ok());
  EXPECT_TRUE(l5->has_value()) << "committed entry lost (delete not undone)";
  auto l9 = fx.db.index().Lookup(2, 9);
  ASSERT_TRUE(l9.ok());
  EXPECT_FALSE(l9->has_value()) << "crashed txn's insert not removed";
  auto l7 = fx.db.index().Lookup(2, 7);
  ASSERT_TRUE(l7.ok());
  EXPECT_TRUE(l7->has_value()) << "survivor's insert lost";

  EXPECT_TRUE(fx.db.txn().Commit(ty).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
  EXPECT_TRUE(fx.db.index().CheckStructure(2).ok());
}

// A crashed node's volatile tail dies with it, and no recovery step may
// append to its log: recovery reads a dead node's log with ForEachAll,
// which then is its stable log.
TEST(CrashedNodeLogTest, RecoveryLeavesDeadNodesTailsEmpty) {
  for (const RecoveryConfig& rc :
       {RecoveryConfig::VolatileSelectiveRedo(),
        RecoveryConfig::VolatileRedoAll(), RecoveryConfig::StableEagerRedoAll(),
        RecoveryConfig::StableTriggeredRedoAll(),
        RecoveryConfig::StableTriggeredSelectiveRedo(),
        RecoveryConfig::BaselineRebootAll(),
        RecoveryConfig::BaselineAbortDependents()}) {
    SCOPED_TRACE(rc.Name());
    Fixture fx(rc);
    Figure2 f2(fx);
    // A stolen uncommitted update of a crashing node and an index insert
    // give the undo pass CLRs to write. The steal flush's WAL gate forces
    // the logs; the update (under Stable LBM, forced too) and the read lock
    // after it leave records in the tails.
    Transaction* t2 = fx.db.txn().Begin(2);
    ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[5], Value(0x55)).ok());
    ASSERT_TRUE(fx.db.txn().IndexInsert(t2, 7, fx.table[5]).ok());
    ASSERT_TRUE(fx.db.buffers().FlushPage(3, fx.table[5].page).ok());
    ASSERT_TRUE(fx.db.txn().Update(f2.tx, fx.table[2], Value(0x22)).ok());
    ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[6], Value(0x66)).ok());
    ASSERT_TRUE(fx.db.txn().Read(f2.tx, fx.table[3]).ok());
    ASSERT_TRUE(fx.db.txn().Read(t2, fx.table[7]).ok());
    ASSERT_GT(fx.db.log().TailSize(0), 0u);
    ASSERT_GT(fx.db.log().TailSize(2), 0u);

    auto outcome = fx.db.Crash({0, 2});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(fx.checker.VerifyAll().ok())
        << fx.checker.VerifyAll().ToString();
    EXPECT_EQ(fx.db.log().TailSize(0), 0u);
    EXPECT_EQ(fx.db.log().TailSize(2), 0u);
  }
}

TEST_P(CrashScenarioTest, SurvivorContinuesAfterRecovery) {
  Fixture fx(GetParam());
  Figure2 f2(fx);
  auto outcome = fx.db.Crash({0});
  ASSERT_TRUE(outcome.ok());
  // The surviving transaction keeps working: more updates, then commit.
  ASSERT_TRUE(fx.db.txn().Update(f2.ty, fx.table[4], Value(0xCC)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(f2.ty).ok());
  ASSERT_TRUE(fx.checker.VerifyAll().ok()) << fx.checker.VerifyAll().ToString();
  auto slot = fx.db.records().SnoopSlot(fx.table[4]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0xCC));
}

}  // namespace
}  // namespace smdb
