// Unit tests for the WAL layer: per-node logs with volatile tails, forces,
// crash destruction, checkpoints, and the log record taxonomy.

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery_manager.h"
#include "wal/checkpoint.h"

namespace smdb {
namespace {

struct WalFixture {
  WalFixture() : machine(MakeCfg()), stable(4), log(&machine, &stable) {}
  static MachineConfig MakeCfg() {
    MachineConfig c;
    c.num_nodes = 4;
    return c;
  }
  LogRecord Update(TxnId txn, RecordId rid, uint64_t usn) {
    LogRecord rec;
    rec.type = LogRecordType::kUpdate;
    rec.txn = txn;
    UpdatePayload u;
    u.rid = rid;
    u.usn = usn;
    u.before.assign(4, 0);
    u.after.assign(4, 1);
    rec.payload = std::move(u);
    return rec;
  }
  Machine machine;
  StableLogStore stable;
  LogManager log;
};

TEST(LogManagerTest, AppendAssignsMonotonicLsns) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  EXPECT_EQ(f.log.Append(0, f.Update(t, {1, 0}, 1)), 1u);
  EXPECT_EQ(f.log.Append(0, f.Update(t, {1, 1}, 2)), 2u);
  EXPECT_EQ(f.log.Append(1, f.Update(t, {1, 2}, 3)), 1u);  // per-node LSNs
  EXPECT_EQ(f.log.TailSize(0), 2u);
  EXPECT_EQ(f.log.stable_lsn(0), kInvalidLsn);
}

TEST(LogManagerTest, ForceMovesTailToStable) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {1, 0}, 1));
  f.log.Append(0, f.Update(t, {1, 1}, 2));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  EXPECT_EQ(f.log.TailSize(0), 0u);
  EXPECT_EQ(f.log.stable_lsn(0), 2u);
  EXPECT_TRUE(f.log.IsStable(0, 2));
  EXPECT_FALSE(f.log.IsStable(0, 3));
  EXPECT_EQ(f.stable.Records(0).size(), 2u);
}

TEST(LogManagerTest, ForceOntoLongStreamLeavesRecordsInPlace) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  for (uint64_t i = 1; i <= 10000; ++i) {
    f.log.Append(0, f.Update(t, {1, 0}, i));
    if (i % 100 == 0) {
      ASSERT_TRUE(f.log.Force(0, 0).ok());
    }
  }
  const auto& recs = f.stable.Records(0);
  ASSERT_EQ(recs.size(), 10000u);
  const LogRecord* first = &recs[0];
  const LogRecord* last = &recs[9999];
  // A batch twice the stream's size: storage that grows by reallocating
  // would have to move every record.
  for (uint64_t i = 10001; i <= 30000; ++i) {
    f.log.Append(0, f.Update(t, {1, 0}, i));
  }
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  // A durable record never moves: the force appended behind it.
  EXPECT_EQ(&recs[0], first);
  EXPECT_EQ(&recs[9999], last);
  ASSERT_EQ(recs.size(), 30000u);
  size_t out_of_order = 0;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].lsn != i + 1 || recs[i].update().usn != i + 1) ++out_of_order;
  }
  EXPECT_EQ(out_of_order, 0u);
}

TEST(LogManagerTest, TruncateDropsExactlyThePrefix) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  for (uint64_t i = 1; i <= 300; ++i) {
    f.log.Append(0, f.Update(t, {1, 0}, i));
    if (i == 123) f.log.AnnulVolatile(0, 123);  // an LSN gap at `through`
    if (i % 7 == 0) {
      ASSERT_TRUE(f.log.Force(0, 0).ok());
    }
  }
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  ASSERT_EQ(f.stable.Records(0).size(), 299u);
  // Records at or below 123 go; the gap means that is 122 of them.
  EXPECT_EQ(f.log.TruncateThrough(0, 123), 122u);
  EXPECT_EQ(f.log.max_truncated_usn(0), 122u);
  const auto& recs = f.stable.Records(0);
  ASSERT_EQ(recs.size(), 177u);
  for (size_t i = 0; i < recs.size(); ++i) {
    ASSERT_EQ(recs[i].lsn, 124 + i);
    ASSERT_EQ(recs[i].update().usn, 124 + i);
  }
  EXPECT_EQ(f.stable.LastLsn(0), 300u);
  // A point behind the retained prefix drops nothing.
  EXPECT_EQ(f.log.TruncateThrough(0, 100), 0u);
  // Through a present record: it goes too.
  EXPECT_EQ(f.log.TruncateThrough(0, 200), 77u);
  ASSERT_EQ(recs.front().lsn, 201u);
  EXPECT_EQ(recs.size(), 100u);
  EXPECT_EQ(f.log.stats().truncated_records, 199u);
}

TEST(LogManagerTest, ForceEmptiesTailWithoutDuplicates) {
  WalFixture f;
  TxnId t = MakeTxnId(1, 1);
  for (uint64_t i = 1; i <= 5; ++i) f.log.Append(1, f.Update(t, {1, 0}, i));
  ASSERT_TRUE(f.log.Force(1, 1).ok());
  EXPECT_EQ(f.log.TailSize(1), 0u);
  for (uint64_t i = 6; i <= 8; ++i) f.log.Append(1, f.Update(t, {1, 0}, i));
  EXPECT_EQ(f.log.TailSize(1), 3u);
  ASSERT_TRUE(f.log.Force(1, 1).ok());
  ASSERT_TRUE(f.log.Force(1, 1).ok());  // empty: moves nothing
  EXPECT_EQ(f.log.TailSize(1), 0u);
  f.log.Append(1, f.Update(t, {1, 0}, 9));  // stays in the tail
  std::vector<Lsn> all;
  f.log.ForEachAll(1, [&](const LogRecord& rec) { all.push_back(rec.lsn); });
  EXPECT_EQ(all, (std::vector<Lsn>{1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(f.stable.Records(1).size(), 8u);
  EXPECT_EQ(f.log.stats().forced_records, 8u);
}

TEST(LogManagerTest, ForceChargesRequestor) {
  WalFixture f;
  f.log.Append(2, f.Update(MakeTxnId(2, 1), {1, 0}, 1));
  SimTime t0 = f.machine.NodeClock(0);
  ASSERT_TRUE(f.log.Force(0, 2).ok());
  EXPECT_EQ(f.machine.NodeClock(0),
            t0 + f.machine.config().timing.log_force_ns);
}

TEST(LogManagerTest, NvramForceIsCheap) {
  MachineConfig c;
  c.num_nodes = 2;
  c.nvram_log = true;
  Machine m(c);
  StableLogStore stable(2);
  LogManager log(&m, &stable);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn = MakeTxnId(0, 1);
  rec.payload = BeginPayload{};
  log.Append(0, std::move(rec));
  SimTime t0 = m.NodeClock(0);
  ASSERT_TRUE(log.Force(0, 0).ok());
  EXPECT_EQ(m.NodeClock(0), t0 + c.timing.nvram_force_ns);
}

TEST(LogManagerTest, EmptyForceIsFreeButCounted) {
  WalFixture f;
  SimTime t0 = f.machine.NodeClock(0);
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  // No records moved: no I/O time charged, no force counted.
  EXPECT_EQ(f.machine.NodeClock(0), t0);
  EXPECT_EQ(f.log.stats().forces, 0u);
  EXPECT_EQ(f.log.stats().forced_records, 0u);
}

TEST(LogManagerTest, ForceBatchAccounting) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {1, 0}, 1));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  for (uint64_t u = 2; u <= 6; ++u) {
    f.log.Append(0, f.Update(t, {1, 0}, u));
  }
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  const LogStats& s = f.log.stats();
  EXPECT_EQ(s.forces, 2u);
  EXPECT_EQ(s.forced_records, 6u);
  // Every force makes at least one record durable.
  EXPECT_LE(s.forces, s.forced_records);
  EXPECT_EQ(s.max_force_batch(), 5u);
  EXPECT_EQ(s.force_batch_bucket(LogStats::BatchBucket(1)), 1u);
  EXPECT_EQ(s.force_batch_bucket(LogStats::BatchBucket(5)), 1u);
}

TEST(LogManagerTest, BatchBucketsCoverPowersOfTwo) {
  EXPECT_EQ(LogStats::BatchBucket(1), 0u);
  EXPECT_EQ(LogStats::BatchBucket(2), 1u);
  EXPECT_EQ(LogStats::BatchBucket(3), 2u);
  EXPECT_EQ(LogStats::BatchBucket(4), 2u);
  EXPECT_EQ(LogStats::BatchBucket(5), 3u);
  EXPECT_EQ(LogStats::BatchBucket(8), 3u);
  EXPECT_EQ(LogStats::BatchBucket(64), 6u);
  EXPECT_EQ(LogStats::BatchBucket(65), 7u);
  EXPECT_EQ(LogStats::BatchBucket(100000), 7u);
  EXPECT_STREQ(LogStats::BatchBucketLabel(0), "1");
  EXPECT_STREQ(LogStats::BatchBucketLabel(7), "65+");
}

TEST(LogManagerTest, CrashDestroysVolatileTailOnly) {
  WalFixture f;
  TxnId t = MakeTxnId(1, 1);
  f.log.Append(1, f.Update(t, {1, 0}, 1));
  ASSERT_TRUE(f.log.Force(1, 1).ok());
  f.log.Append(1, f.Update(t, {1, 1}, 2));
  f.log.OnNodeCrash(1);
  EXPECT_EQ(f.log.TailSize(1), 0u);
  EXPECT_EQ(f.log.stable_lsn(1), 1u);  // durable prefix survives
  int stable_count = 0;
  f.log.ForEachStable(1, [&](const LogRecord&) { ++stable_count; });
  EXPECT_EQ(stable_count, 1);
}

TEST(LogManagerTest, CannotForceCrashedNodesLog) {
  WalFixture f;
  f.machine.CrashNode(2);
  EXPECT_TRUE(f.log.Force(0, 2).IsNodeFailed());
}

TEST(LogManagerTest, ForceHooksFire) {
  WalFixture f;
  NodeId forced = kInvalidNode;
  f.log.AddForceHook([&](NodeId n) { forced = n; });
  ASSERT_TRUE(f.log.Force(0, 3).ok());
  EXPECT_EQ(forced, 3);
}

TEST(LogManagerTest, ForEachAllCoversStableAndVolatile) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  f.log.Append(0, f.Update(t, {1, 0}, 1));
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  f.log.Append(0, f.Update(t, {1, 1}, 2));
  std::vector<Lsn> seen;
  f.log.ForEachAll(0, [&](const LogRecord& r) { seen.push_back(r.lsn); });
  EXPECT_EQ(seen, (std::vector<Lsn>{1, 2}));
}

TEST(LogManagerTest, ForEachFromSkipsToTheFirstLsnAtOrAbove) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  for (uint16_t i = 1; i <= 6; ++i) {
    f.log.Append(0, f.Update(t, {1, i}, i));  // LSN i
    if (i == 3) {
      ASSERT_TRUE(f.log.Force(0, 0).ok());
    }
  }
  f.log.AnnulVolatile(0, 5);  // LSNs 1-3 stable, 4 and 6 in the tail
  auto from = [&](Lsn lsn) {
    std::vector<Lsn> seen;
    f.log.ForEachFrom(0, lsn,
                      [&](const LogRecord& r) { seen.push_back(r.lsn); });
    return seen;
  };
  EXPECT_EQ(from(kInvalidLsn), (std::vector<Lsn>{1, 2, 3, 4, 6}));
  EXPECT_EQ(from(2), (std::vector<Lsn>{2, 3, 4, 6}));
  EXPECT_EQ(from(4), (std::vector<Lsn>{4, 6}));  // the tail only
  EXPECT_EQ(from(5), (std::vector<Lsn>{6}));     // the annulled gap
  EXPECT_EQ(from(7), (std::vector<Lsn>{}));
  f.log.TruncateThrough(0, 2);
  EXPECT_EQ(from(1), (std::vector<Lsn>{3, 4, 6}));
}

TEST(LogRecordTest, ToStringVariants) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn = MakeTxnId(2, 9);
  rec.node = 2;
  rec.lsn = 4;
  UpdatePayload u;
  u.rid = {3, 7};
  u.usn = 12;
  u.is_clr = true;
  rec.payload = std::move(u);
  std::string s = rec.ToString();
  EXPECT_NE(s.find("UPDATE"), std::string::npos);
  EXPECT_NE(s.find("CLR"), std::string::npos);
  EXPECT_NE(s.find("p3.s7"), std::string::npos);

  LogRecord lk;
  lk.type = LogRecordType::kLockOp;
  lk.txn = MakeTxnId(0, 1);
  lk.payload = LockOpPayload{42, LockMode::kShared, LockOpPayload::Op::kQueue};
  EXPECT_NE(lk.ToString().find("LOCKOP"), std::string::npos);
}

TEST(LockModeTest, CompatibilityMatrix) {
  EXPECT_TRUE(Compatible(LockMode::kNone, LockMode::kExclusive));
  EXPECT_TRUE(Compatible(LockMode::kShared, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kShared, LockMode::kExclusive));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kShared));
  EXPECT_FALSE(Compatible(LockMode::kExclusive, LockMode::kExclusive));
}

TEST(CheckpointTest, AdvancesReplayStartAndFlushes) {
  DatabaseConfig c;
  c.machine.num_nodes = 3;
  Database db(c);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());

  Transaction* t = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t, (*table)[0],
                              std::vector<uint8_t>(22, 3)).ok());
  ASSERT_TRUE(db.txn().Commit(t).ok());
  EXPECT_TRUE(db.buffers().IsDirty((*table)[0].page));  // no-force!

  ASSERT_TRUE(db.Checkpoint(0).ok());
  EXPECT_FALSE(db.buffers().IsDirty((*table)[0].page));
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_NE(db.log().checkpoint_lsn(n), kInvalidLsn);
    EXPECT_EQ(db.log().TailSize(n), 0u);
  }
  // The stable database now reflects the committed update.
  std::vector<uint8_t> img;
  ASSERT_TRUE(db.buffers().ReadStableImage(0, (*table)[0].page, &img).ok());
  EXPECT_EQ(db.records().DecodeStableSlot(img, 0).data,
            std::vector<uint8_t>(22, 3));
}

/// Commits one update to each of the first `pages` distinct pages of
/// `table`, spreading the transactions over the live nodes.
void CommitOnDistinctPages(Database& db, const std::vector<RecordId>& table,
                           size_t pages) {
  std::vector<RecordId> one_per_page;
  for (const RecordId& rid : table) {
    if (one_per_page.size() == pages) break;
    if (one_per_page.empty() || one_per_page.back().page != rid.page) {
      one_per_page.push_back(rid);
    }
  }
  ASSERT_EQ(one_per_page.size(), pages);
  const std::vector<NodeId> alive = db.machine().AliveNodes();
  for (size_t i = 0; i < one_per_page.size(); ++i) {
    Transaction* t = db.txn().Begin(alive[i % alive.size()]);
    ASSERT_TRUE(
        db.txn().Update(t, one_per_page[i], std::vector<uint8_t>(22, 7)).ok());
    ASSERT_TRUE(db.txn().Commit(t).ok());
  }
}

TEST(CheckpointTest, SpreadsFlushesOverLiveNodes) {
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  Database db(c);
  auto table = db.CreateTable(2048);
  ASSERT_TRUE(table.ok());
  CommitOnDistinctPages(db, *table, 10);
  db.machine().SyncClocks();

  const uint64_t d = db.buffers().DirtyPages().size();
  ASSERT_GE(d, 10u);
  const auto& timing = c.machine.timing;
  const SimTime t0 = db.machine().GlobalTime();
  const uint64_t writes0 = db.stable_db().writes();
  const uint64_t gate0 = db.buffers().wal_gate_forces();
  ASSERT_TRUE(db.Checkpoint(0).ok());

  // Own-log force, ceil(d/4) rounds of page writes, then the checkpoint
  // record's append and force.
  EXPECT_LE(db.machine().GlobalTime() - t0,
            timing.log_force_ns + (d + 3) / 4 * timing.disk_write_ns +
                timing.volatile_log_write_ns + timing.log_force_ns);
  // Each dirty page written exactly once, none through the WAL gate.
  EXPECT_EQ(db.stable_db().writes() - writes0, d);
  EXPECT_TRUE(db.buffers().DirtyPages().empty());
  EXPECT_EQ(db.buffers().wal_gate_forces(), gate0);
  // Every live node meets at the barrier.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_EQ(db.machine().NodeClock(n), db.machine().GlobalTime());
  }
  const CheckpointStats& stats = db.checkpoint_stats();
  EXPECT_EQ(stats.count, 1u);
  EXPECT_EQ(stats.pages_flushed, d);
  EXPECT_EQ(stats.barrier_ns, db.machine().GlobalTime() - t0);
}

TEST(CheckpointTest, CrashedCoordinatorPaysNothing) {
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  c.recovery = RecoveryConfig::VolatileSelectiveRedo();
  Database db(c);
  auto table = db.CreateTable(2048);
  ASSERT_TRUE(table.ok());
  CommitOnDistinctPages(db, *table, 4);
  auto outcome = db.Crash({3});  // drained at once; node 3 stays down
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_FALSE(db.machine().NodeAlive(3));
  CommitOnDistinctPages(db, *table, 6);
  ASSERT_FALSE(db.buffers().DirtyPages().empty());

  const SimTime clock3 = db.machine().NodeClock(3);
  const Lsn ckpt3 = db.log().checkpoint_lsn(3);
  const Lsn last3 = db.stable_log().LastLsn(3);
  ASSERT_TRUE(db.Checkpoint(/*coordinator=*/3).ok());
  EXPECT_TRUE(db.buffers().DirtyPages().empty());
  EXPECT_EQ(db.machine().NodeClock(3), clock3);
  EXPECT_EQ(db.log().checkpoint_lsn(3), ckpt3);
  EXPECT_EQ(db.stable_log().LastLsn(3), last3);
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_NE(db.log().checkpoint_lsn(n), kInvalidLsn);
  }
}

TEST(LogTruncationTest, DropsPrefixKeepsLsnNumbering) {
  WalFixture f;
  TxnId t = MakeTxnId(0, 1);
  for (int i = 0; i < 5; ++i) {
    f.log.Append(0, f.Update(t, {1, uint16_t(i)}, i + 1));
  }
  ASSERT_TRUE(f.log.Force(0, 0).ok());
  EXPECT_EQ(f.log.TruncateThrough(0, 3), 3u);
  std::vector<Lsn> kept;
  f.log.ForEachStable(0, [&](const LogRecord& r) { kept.push_back(r.lsn); });
  EXPECT_EQ(kept, (std::vector<Lsn>{4, 5}));
  // Appends continue with the old numbering.
  EXPECT_EQ(f.log.Append(0, f.Update(t, {1, 9}, 9)), 6u);
}

TEST(LogTruncationTest, CheckpointTruncatesBehindOldestActive) {
  DatabaseConfig c;
  c.machine.num_nodes = 2;
  Database db(c);
  auto table = db.CreateTable(8);
  ASSERT_TRUE(table.ok());

  // A long-running transaction pins the truncation point.
  Transaction* old_txn = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(old_txn, (*table)[0],
                              std::vector<uint8_t>(22, 1)).ok());
  for (int i = 0; i < 5; ++i) {
    Transaction* t = db.txn().Begin(0);
    ASSERT_TRUE(db.txn().Update(t, (*table)[1 + i],
                                std::vector<uint8_t>(22, 2)).ok());
    ASSERT_TRUE(db.txn().Commit(t).ok());
  }
  ASSERT_TRUE(db.Checkpoint(0).ok());
  // old_txn's records (its Begin onward) must survive the truncation so a
  // voluntary abort still works.
  ASSERT_TRUE(db.txn().Abort(old_txn).ok());
  auto slot = db.records().SnoopSlot((*table)[0]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, std::vector<uint8_t>(22, 0));

  // Without active transactions the checkpoint reclaims the whole prefix.
  uint64_t before = db.log().stats().truncated_records;
  ASSERT_TRUE(db.Checkpoint(0).ok());
  EXPECT_GT(db.log().stats().truncated_records, before);
}

TEST(LogTruncationTest, RecoveryWorksAfterTruncation) {
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  c.recovery = RecoveryConfig::VolatileSelectiveRedo();
  Database db(c);
  IfaChecker checker(&db);
  db.txn().AddObserver(&checker);
  auto table = db.CreateTable(16);
  ASSERT_TRUE(table.ok());
  checker.RegisterTable(*table);
  // Several generations of work + checkpoints (each truncates), then a
  // crash with in-flight work.
  for (int gen = 0; gen < 3; ++gen) {
    for (int i = 0; i < 4; ++i) {
      Transaction* t = db.txn().Begin(static_cast<NodeId>(i));
      ASSERT_TRUE(db.txn()
                      .Update(t, (*table)[gen * 4 + i],
                              std::vector<uint8_t>(22, uint8_t(gen + 1)))
                      .ok());
      ASSERT_TRUE(db.txn().Commit(t).ok());
    }
    ASSERT_TRUE(db.Checkpoint(0).ok());
  }
  EXPECT_GT(db.log().stats().truncated_records, 0u);
  Transaction* active = db.txn().Begin(1);
  ASSERT_TRUE(db.txn()
                  .Update(active, (*table)[15], std::vector<uint8_t>(22, 9))
                  .ok());
  auto outcome = db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(checker.VerifyAll().ok()) << checker.VerifyAll().ToString();
}

TEST(StableLogStoreTest, PerNodeStreams) {
  StableLogStore s(3);
  LogRecord r;
  r.lsn = 1;
  s.Append(1, {r});
  EXPECT_EQ(s.Records(0).size(), 0u);
  EXPECT_EQ(s.Records(1).size(), 1u);
  EXPECT_EQ(s.LastLsn(1), 1u);
  EXPECT_EQ(s.LastLsn(2), kInvalidLsn);
}

}  // namespace
}  // namespace smdb
