// Unit tests for the LBM policies (section 5), the dependency tracker, and
// the stable-state reconstructor.

#include <gtest/gtest.h>

#include <memory>

#include "core/database.h"
#include "core/stable_state.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

/// A reconstructor that reads every page straight from the stable
/// database, the way a restart's image cache does on a miss.
StableStateReconstructor Reconstructor(Database& db,
                                       std::set<TxnId> uncommitted) {
  auto image = std::make_shared<std::vector<uint8_t>>();
  return StableStateReconstructor(
      &db.machine(), &db.log(), &db.records(), std::move(uncommitted),
      [&db, image](NodeId n, PageId p) -> const std::vector<uint8_t>* {
        return db.buffers().ReadStableImage(n, p, image.get()).ok()
                   ? image.get()
                   : nullptr;
      });
}

DatabaseConfig Cfg(RecoveryConfig rc) {
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  c.recovery = rc;
  return c;
}

TEST(LbmPolicyTest, VolatileLbmNeverForces) {
  Database db(Cfg(RecoveryConfig::VolatileSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  uint64_t forces0 = db.log().stats().forces;
  Transaction* t = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t, (*table)[0], Value(1)).ok());
  ASSERT_TRUE(db.txn().Update(t, (*table)[1], Value(2)).ok());
  EXPECT_EQ(db.log().stats().forces, forces0);  // updates force nothing
  EXPECT_EQ(db.log().stats().lbm_forces, 0u);
  ASSERT_TRUE(db.txn().Commit(t).ok());
  EXPECT_EQ(db.log().stats().forces, forces0 + 1);  // only the commit force
}

TEST(LbmPolicyTest, StableEagerForcesEveryUpdate) {
  Database db(Cfg(RecoveryConfig::StableEagerRedoAll()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  uint64_t lbm0 = db.log().stats().lbm_forces;
  Transaction* t = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t, (*table)[0], Value(1)).ok());
  ASSERT_TRUE(db.txn().Update(t, (*table)[1], Value(2)).ok());
  EXPECT_EQ(db.log().stats().lbm_forces, lbm0 + 2);
  // Everything is already stable at commit time.
  EXPECT_EQ(db.log().TailSize(0), 0u);
  ASSERT_TRUE(db.txn().Commit(t).ok());
}

TEST(LbmPolicyTest, StableTriggeredForcesOnMigrationOnly) {
  Database db(Cfg(RecoveryConfig::StableTriggeredSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  Transaction* t0 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t0, (*table)[0], Value(1)).ok());
  uint64_t lbm_before = db.log().stats().lbm_forces;
  EXPECT_EQ(lbm_before, 0u);  // no migration yet: no forces

  // A transaction on node 1 updates the cohabiting record: the active line
  // departs node 0, triggering a force of node 0's log.
  Transaction* t1 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t1, (*table)[1], Value(2)).ok());
  EXPECT_GE(db.log().stats().lbm_forces, 1u);
  // Node 0's update record is now stable even though it never committed.
  bool update_stable = false;
  db.log().ForEachStable(0, [&](const LogRecord& rec) {
    if (rec.type == LogRecordType::kUpdate && rec.txn == t0->id) {
      update_stable = true;
    }
  });
  EXPECT_TRUE(update_stable);
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  ASSERT_TRUE(db.txn().Commit(t1).ok());
}

TEST(LbmPolicyTest, StableTriggeredDirtyReadTriggersUndoForce) {
  // H_wr: the downgrade caused by a remote (dirty) read must also force
  // the updater's log (the undo information must be stable before the line
  // replicates — section 5.2).
  Database db(Cfg(RecoveryConfig::StableTriggeredSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  Transaction* t0 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t0, (*table)[0], Value(1)).ok());
  EXPECT_EQ(db.log().stats().lbm_forces, 0u);
  ASSERT_TRUE(db.txn().DirtyRead(2, (*table)[0]).ok());
  EXPECT_GE(db.log().stats().lbm_forces, 1u);
  ASSERT_TRUE(db.txn().Commit(t0).ok());
}

TEST(LbmPolicyTest, TriggeredForceClearsActiveBitsNoRepeat) {
  Database db(Cfg(RecoveryConfig::StableTriggeredSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  Transaction* t0 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t0, (*table)[0], Value(1)).ok());
  ASSERT_TRUE(db.txn().DirtyRead(1, (*table)[0]).ok());
  uint64_t after_first = db.log().stats().lbm_forces;
  EXPECT_GE(after_first, 1u);
  // Another read of the (now inactive) line must not force again.
  ASSERT_TRUE(db.txn().DirtyRead(2, (*table)[0]).ok());
  EXPECT_EQ(db.log().stats().lbm_forces, after_first);
  ASSERT_TRUE(db.txn().Commit(t0).ok());
}

TEST(DependencyTrackerTest, CohabitationMakesBothDependent) {
  Database db(Cfg(RecoveryConfig::BaselineAbortDependents()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  ASSERT_NE(db.deps(), nullptr);
  Transaction* t0 = db.txn().Begin(0);
  Transaction* t1 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t0, (*table)[0], Value(1)).ok());
  EXPECT_FALSE(db.deps()->IsDependent(t0->id));
  ASSERT_TRUE(db.txn().Update(t1, (*table)[1], Value(2)).ok());
  EXPECT_TRUE(db.deps()->IsDependent(t0->id));
  EXPECT_TRUE(db.deps()->IsDependent(t1->id));
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  EXPECT_FALSE(db.deps()->IsDependent(t0->id));
  ASSERT_TRUE(db.txn().Commit(t1).ok());
}

TEST(DependencyTrackerTest, IsolatedTxnStaysIndependent) {
  Database db(Cfg(RecoveryConfig::BaselineAbortDependents()));
  auto table = db.CreateTable(64);
  ASSERT_TRUE(table.ok());
  Transaction* t0 = db.txn().Begin(0);
  // Records 0..3 share a line; 0 and 32 are on different lines.
  ASSERT_TRUE(db.txn().Update(t0, (*table)[0], Value(1)).ok());
  Transaction* t1 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t1, (*table)[32], Value(2)).ok());
  EXPECT_FALSE(db.deps()->IsDependent(t0->id));
  EXPECT_FALSE(db.deps()->IsDependent(t1->id));
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  ASSERT_TRUE(db.txn().Commit(t1).ok());
}

TEST(StableStateTest, ReconstructsCommittedValueFromStableLog) {
  Database db(Cfg(RecoveryConfig::VolatileSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  RecordId rid = (*table)[0];
  // Commit value 5 (stable log), then an active txn writes 6.
  Transaction* t0 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t0, rid, Value(5)).ok());
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  Transaction* t1 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t1, rid, Value(6)).ok());

  StableStateReconstructor rec = Reconstructor(db, {t1->id});
  auto v = rec.CommittedValue(2, rid);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, Value(5));
  ASSERT_TRUE(db.txn().Abort(t1).ok());
}

TEST(StableStateTest, RewindsStolenUncommittedStableImage) {
  Database db(Cfg(RecoveryConfig::VolatileSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  RecordId rid = (*table)[0];
  Transaction* t0 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t0, rid, Value(5)).ok());
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  Transaction* t1 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t1, rid, Value(6)).ok());
  // Steal: the uncommitted 6 reaches the stable database (WAL forces the
  // undo information first).
  ASSERT_TRUE(db.buffers().FlushPage(2, rid.page).ok());

  StableStateReconstructor rec = Reconstructor(db, {t1->id});
  auto v = rec.CommittedValue(2, rid);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, Value(5)) << "reconstructor must rewind stolen value";
  ASSERT_TRUE(db.txn().Abort(t1).ok());
}

TEST(StableStateTest, InitialValueWhenNoLogRecords) {
  Database db(Cfg(RecoveryConfig::VolatileSelectiveRedo()));
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());
  StableStateReconstructor rec = Reconstructor(db, {});
  auto v = rec.CommittedValue(0, (*table)[3]);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->data, Value(0));
}

TEST(RecoveryConfigTest, PresetsAndNames) {
  EXPECT_TRUE(RecoveryConfig::VolatileSelectiveRedo().ensures_ifa());
  EXPECT_TRUE(RecoveryConfig::VolatileSelectiveRedo().undo_tagging());
  EXPECT_FALSE(RecoveryConfig::VolatileRedoAll().undo_tagging());
  EXPECT_FALSE(RecoveryConfig::BaselineRebootAll().ensures_ifa());
  EXPECT_FALSE(RecoveryConfig::BaselineAbortDependents().ensures_ifa());
  EXPECT_EQ(RecoveryConfig::VolatileSelectiveRedo().Name(),
            "VolatileLBM+SelectiveRedo");
  EXPECT_EQ(RecoveryConfig::StableEagerRedoAll().Name(),
            "StableLBM(eager)+RedoAll");
  EXPECT_EQ(RecoveryConfig::BaselineRebootAll().Name(), "NoLBM+RebootAll");
}

}  // namespace
}  // namespace smdb
