// Unit tests for the StateDigest helper (core/state_digest.h) — the
// differential oracle of partitioned recovery streams. Pins down:
//   * determinism: digesting the same state twice is bit-identical, and
//     digesting is a pure observation (it never changes the digest);
//   * sensitivity: each covered component (heap bytes, index entries,
//     stable pages, lock table, transaction verdicts) moves its own
//     sub-hash when the corresponding state changes;
//   * exclusions: pure performance state — cache residency and simulated
//     time — leaves the digest alone.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/state_digest.h"

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

TEST(StateDigestTest, DeterministicAndPure) {
  Fx f;
  StateDigest a = ComputeStateDigest(f.db);
  StateDigest b = ComputeStateDigest(f.db);
  EXPECT_EQ(a, b) << "same state, different digest";
  EXPECT_EQ(a.Combined(), b.Combined());
  // Digesting must not advance the simulation or touch any machine state.
  SimTime before = f.db.machine().GlobalTime();
  ComputeStateDigest(f.db);
  EXPECT_EQ(f.db.machine().GlobalTime(), before);
}

TEST(StateDigestTest, IdenticalRunsProduceIdenticalDigests) {
  Fx f1, f2;
  for (Fx* f : {&f1, &f2}) {
    Transaction* t = f->db.txn().Begin(1);
    ASSERT_TRUE(f->db.txn().Update(t, f->table[3], Value(7)).ok());
    ASSERT_TRUE(f->db.txn().IndexInsert(t, 42, f->table[3]).ok());
    ASSERT_TRUE(f->db.txn().Commit(t).ok());
  }
  EXPECT_EQ(ComputeStateDigest(f1.db), ComputeStateDigest(f2.db));
}

TEST(StateDigestTest, HeapComponentTracksRecordBytes) {
  Fx f;
  StateDigest before = ComputeStateDigest(f.db);
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(0xAA)).ok());
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  StateDigest after = ComputeStateDigest(f.db);
  EXPECT_NE(before.heap, after.heap);
  EXPECT_EQ(before.index, after.index);
  EXPECT_EQ(before.stable, after.stable);  // not flushed yet
}

TEST(StateDigestTest, IndexComponentTracksEntries) {
  Fx f;
  StateDigest before = ComputeStateDigest(f.db);
  Transaction* t = f.db.txn().Begin(2);
  ASSERT_TRUE(f.db.txn().IndexInsert(t, 99, f.table[1]).ok());
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  StateDigest after = ComputeStateDigest(f.db);
  EXPECT_NE(before.index, after.index);
  EXPECT_EQ(before.heap, after.heap);
}

TEST(StateDigestTest, StableComponentTracksFlushes) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(0x55)).ok());
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  StateDigest before = ComputeStateDigest(f.db);
  ASSERT_TRUE(f.db.buffers().FlushPage(0, f.table[0].page).ok());
  StateDigest after = ComputeStateDigest(f.db);
  EXPECT_NE(before.stable, after.stable);
  EXPECT_EQ(before.heap, after.heap) << "flush must not change coherent bytes";
}

TEST(StateDigestTest, LockComponentTracksHeldLocks) {
  Fx f;
  StateDigest before = ComputeStateDigest(f.db);
  Transaction* t = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[5], Value(1)).ok());
  // Mid-transaction: the X lock is held.
  StateDigest held = ComputeStateDigest(f.db);
  EXPECT_NE(before.locks, held.locks);
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
}

TEST(StateDigestTest, TxnComponentTracksVerdicts) {
  Fx f;
  StateDigest before = ComputeStateDigest(f.db);
  Transaction* t = f.db.txn().Begin(3);
  StateDigest active = ComputeStateDigest(f.db);
  EXPECT_NE(before.txns, active.txns);
  ASSERT_TRUE(f.db.txn().Abort(t).ok());
  StateDigest aborted = ComputeStateDigest(f.db);
  EXPECT_NE(active.txns, aborted.txns);
}

TEST(StateDigestTest, CacheResidencyIsExcluded) {
  Fx f;
  Transaction* t = f.db.txn().Begin(0);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[2], Value(3)).ok());
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  StateDigest before = ComputeStateDigest(f.db);
  // A locked read from another node replicates/migrates the line — pure
  // performance state. The record bytes are unchanged.
  Transaction* r = f.db.txn().Begin(3);
  auto v = f.db.txn().Read(r, f.table[2]);
  ASSERT_TRUE(v.ok());
  ASSERT_TRUE(f.db.txn().Commit(r).ok());
  StateDigest after = ComputeStateDigest(f.db);
  EXPECT_EQ(before.heap, after.heap);
  EXPECT_EQ(before.index, after.index);
  EXPECT_EQ(before.stable, after.stable);
}

TEST(StateDigestTest, LostLinesChangeTheDigest) {
  Fx f;
  Transaction* t = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0], Value(9)).ok());
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
  StateDigest before = ComputeStateDigest(f.db);
  // Crash the updater without running recovery: use the machine's failure
  // primitive directly so dirty lines whose only copy lived on node 1
  // become lost.
  f.db.machine().CrashNode(1);
  StateDigest after = ComputeStateDigest(f.db);
  EXPECT_NE(before, after) << "losing lines must be visible in the digest";
}

}  // namespace
}  // namespace smdb
