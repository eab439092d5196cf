// Tests for parallel (multi-node) transactions — the section 9 extension:
// one logical transaction with branches on several nodes, committed and
// aborted as a group; the crash of any participant node annuls the whole
// transaction, while independent transactions remain isolated.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery_manager.h"
#include "lockmgr/lock_table.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

struct Fx {
  explicit Fx(RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo(),
              size_t num_records = 64)
      : db(MakeCfg(rc)), checker(&db) {
    db.txn().AddObserver(&checker);
    auto t = db.CreateTable(num_records);
    EXPECT_TRUE(t.ok());
    table = *t;
    checker.RegisterTable(table);
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc) {
    DatabaseConfig c;
    c.machine.num_nodes = 6;
    c.recovery = rc;
    // Small pages (header + 3 record lines = 12 records) spread the table
    // across several heap pages, so the interleaved-branch tests below can
    // give every branch its own page. The group semantics tests are
    // geometry-agnostic.
    c.page_size = 512;
    return c;
  }
  Database db;
  IfaChecker checker;
  std::vector<RecordId> table;
};

TEST(ParallelTxnTest, GroupCommitAppliesAllBranches) {
  Fx fx;
  auto ptxn = fx.db.txn().BeginParallel({0, 1, 2});
  ASSERT_TRUE(ptxn.ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(0), fx.table[0], Value(1)).ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(1), fx.table[1], Value(2)).ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(2), fx.table[2], Value(3)).ok());
  ASSERT_TRUE(fx.db.txn().CommitParallel(*ptxn).ok());
  for (int i = 0; i < 3; ++i) {
    auto slot = fx.db.records().SnoopSlot(fx.table[i]);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(uint8_t(i + 1)));
  }
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(ParallelTxnTest, GroupAbortRollsBackAllBranches) {
  Fx fx;
  auto ptxn = fx.db.txn().BeginParallel({0, 1});
  ASSERT_TRUE(ptxn.ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(0), fx.table[0], Value(1)).ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(1), fx.table[1], Value(2)).ok());
  ASSERT_TRUE(fx.db.txn().AbortParallel(*ptxn).ok());
  for (int i = 0; i < 2; ++i) {
    auto slot = fx.db.records().SnoopSlot(fx.table[i]);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(0));
  }
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(ParallelTxnTest, ParticipantCrashAbortsWholeTransaction) {
  for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                  RecoveryConfig::VolatileRedoAll()}) {
    Fx fx(rc);
    auto ptxn = fx.db.txn().BeginParallel({0, 1, 2});
    ASSERT_TRUE(ptxn.ok());
    ASSERT_TRUE(
        fx.db.txn().Update((*ptxn)->branch(0), fx.table[0], Value(1)).ok());
    ASSERT_TRUE(
        fx.db.txn().Update((*ptxn)->branch(1), fx.table[1], Value(2)).ok());
    ASSERT_TRUE(
        fx.db.txn().Update((*ptxn)->branch(2), fx.table[2], Value(3)).ok());
    // An unrelated single-node transaction on a survivor must be isolated.
    Transaction* solo = fx.db.txn().Begin(4);
    ASSERT_TRUE(fx.db.txn().Update(solo, fx.table[8], Value(9)).ok());

    auto outcome = fx.db.Crash({1});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    // All three branches annulled: the crashed one plus two siblings.
    EXPECT_EQ(outcome->annulled.size(), 3u) << rc.Name();
    EXPECT_TRUE(outcome->forced_aborts.empty()) << rc.Name();
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << rc.Name() << ": " << fx.checker.VerifyAll().ToString();
    // Every branch's update is gone.
    for (int i = 0; i < 3; ++i) {
      auto slot = fx.db.records().SnoopSlot(fx.table[i]);
      ASSERT_TRUE(slot.ok());
      EXPECT_EQ(slot->data, Value(0)) << rc.Name() << " branch " << i;
    }
    // The solo transaction survived and can commit.
    auto slot = fx.db.records().SnoopSlot(fx.table[8]);
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(slot->data, Value(9)) << rc.Name();
    EXPECT_TRUE(fx.db.txn().Commit(solo).ok()) << rc.Name();
  }
}

TEST(ParallelTxnTest, NonParticipantCrashLeavesTransactionRunning) {
  Fx fx;
  auto ptxn = fx.db.txn().BeginParallel({0, 1});
  ASSERT_TRUE(ptxn.ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(0), fx.table[0], Value(1)).ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(1), fx.table[1], Value(2)).ok());
  auto outcome = fx.db.Crash({5});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->annulled.size(), 0u);
  EXPECT_EQ(outcome->preserved.size(), 2u);
  ASSERT_TRUE(fx.db.txn().CommitParallel(*ptxn).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(ParallelTxnTest, CommittedParallelTxnSurvivesParticipantCrash) {
  Fx fx;
  auto ptxn = fx.db.txn().BeginParallel({0, 1});
  ASSERT_TRUE(ptxn.ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(0), fx.table[0], Value(1)).ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(1), fx.table[1], Value(2)).ok());
  ASSERT_TRUE(fx.db.txn().CommitParallel(*ptxn).ok());
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
  auto s0 = fx.db.records().SnoopSlot(fx.table[0]);
  auto s1 = fx.db.records().SnoopSlot(fx.table[1]);
  ASSERT_TRUE(s0.ok());
  ASSERT_TRUE(s1.ok());
  EXPECT_EQ(s0->data, Value(1));
  EXPECT_EQ(s1->data, Value(2));
}

TEST(ParallelTxnTest, BranchesShareLocksCorrectly) {
  Fx fx;
  auto ptxn = fx.db.txn().BeginParallel({0, 1});
  ASSERT_TRUE(ptxn.ok());
  ASSERT_TRUE(
      fx.db.txn().Update((*ptxn)->branch(0), fx.table[0], Value(1)).ok());
  // A different transaction blocks on the branch's lock (2PL across the
  // group: branch locks are held until the group finishes).
  Transaction* other = fx.db.txn().Begin(3);
  EXPECT_TRUE(fx.db.txn().Update(other, fx.table[0], Value(7)).IsBusy());
  ASSERT_TRUE(fx.db.txn().CommitParallel(*ptxn).ok());
  auto poll = fx.db.txn().PollLock(other, RecordLockName(fx.table[0]),
                                   LockMode::kExclusive);
  ASSERT_TRUE(poll.ok());
  EXPECT_EQ(*poll, LockResult::kGranted);
  ASSERT_TRUE(fx.db.txn().Update(other, fx.table[0], Value(7)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(other).ok());
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

// Randomized: a soup of parallel and single-node transactions, random
// commits/aborts, then a crash; the oracle verifies IFA plus all-or-
// nothing annulment of every group touched by the crash.
TEST(ParallelTxnTest, RandomizedParallelCrash) {
  Rng rng(0xFA11);
  for (int round = 0; round < 8; ++round) {
    Fx fx;
    std::vector<ParallelTxn*> open_parallel;
    std::vector<Transaction*> open_solo;
    uint16_t next_record = 0;
    auto fresh_record = [&]() {
      return fx.table[next_record++ % fx.table.size()];
    };

    for (int i = 0; i < 10; ++i) {
      if (rng.Bernoulli(0.5)) {
        // Parallel transaction over 2-3 random distinct nodes.
        std::vector<NodeId> nodes;
        NodeId first = static_cast<NodeId>(rng.Uniform(6));
        nodes.push_back(first);
        nodes.push_back(static_cast<NodeId>((first + 1 + rng.Uniform(5)) % 6));
        if (rng.Bernoulli(0.5)) {
          nodes.push_back(static_cast<NodeId>((nodes[1] + 1) % 6));
          if (nodes[2] == nodes[0]) nodes.pop_back();
        }
        auto p = fx.db.txn().BeginParallel(nodes);
        ASSERT_TRUE(p.ok());
        for (Transaction* b : (*p)->branches) {
          ASSERT_TRUE(fx.db.txn()
                          .Update(b, fresh_record(),
                                  Value(uint8_t(rng.Next() | 1)))
                          .ok());
        }
        double roll = rng.NextDouble();
        if (roll < 0.3) {
          ASSERT_TRUE(fx.db.txn().CommitParallel(*p).ok());
        } else if (roll < 0.5) {
          ASSERT_TRUE(fx.db.txn().AbortParallel(*p).ok());
        } else {
          open_parallel.push_back(*p);
        }
      } else {
        Transaction* t =
            fx.db.txn().Begin(static_cast<NodeId>(rng.Uniform(6)));
        ASSERT_TRUE(fx.db.txn()
                        .Update(t, fresh_record(),
                                Value(uint8_t(rng.Next() | 1)))
                        .ok());
        if (rng.Bernoulli(0.4)) {
          ASSERT_TRUE(fx.db.txn().Commit(t).ok());
        } else {
          open_solo.push_back(t);
        }
      }
    }

    NodeId victim = static_cast<NodeId>(rng.Uniform(6));
    auto outcome = fx.db.Crash({victim});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_TRUE(fx.checker.VerifyAll().ok())
        << "round " << round << ": " << fx.checker.VerifyAll().ToString();

    // All-or-nothing per group: every open parallel transaction with a
    // branch on the victim is fully aborted; others are fully active.
    for (ParallelTxn* p : open_parallel) {
      bool touched = p->branch(victim) != nullptr;
      for (Transaction* b : p->branches) {
        if (touched) {
          EXPECT_EQ(b->state, TxnState::kAborted) << "round " << round;
        } else {
          EXPECT_EQ(b->state, TxnState::kActive) << "round " << round;
        }
      }
      if (!touched) {
        ASSERT_TRUE(fx.db.txn().CommitParallel(p).ok());
      }
    }
    for (Transaction* t : open_solo) {
      if (t->state == TxnState::kActive) {
        ASSERT_TRUE(fx.db.txn().Commit(t).ok());
      } else {
        EXPECT_EQ(t->node(), victim);
      }
    }
    EXPECT_TRUE(fx.checker.VerifyAll().ok())
        << fx.checker.VerifyAll().ToString();
  }
}

// --- Interleaved branches ----------------------------------------------
//
// Hand-driven ParallelTxn branches stepped in lockstep rounds: each round
// runs every queue's next update, one after another, so branches of one
// group (and of different groups) interleave op by op the way the seeded
// executor schedule interleaves nodes.

struct BranchStep {
  Transaction* txn = nullptr;
  RecordId rid;
  std::vector<uint8_t> value;
};

Status RunStepsInterleaved(TxnManager& tm,
                           const std::vector<std::vector<BranchStep>>& queues) {
  for (size_t round = 0;; ++round) {
    bool stepped = false;
    for (const auto& q : queues) {
      if (round >= q.size()) continue;
      SMDB_RETURN_IF_ERROR(tm.Update(q[round].txn, q[round].rid,
                                     q[round].value));
      stepped = true;
    }
    if (!stepped) return Status::Ok();
  }
}

// A group's branches step interleaved, each updating its own disjoint
// record slice; the group commit must then apply every branch's work.
TEST(ParallelTxnTest, InterleavedBranchesCommitAsOneGroup) {
  Fx fx;
  constexpr size_t kBranches = 4;
  constexpr size_t kOpsPerBranch = 6;
  auto ptxn = fx.db.txn().BeginParallel({0, 1, 2, 3});
  ASSERT_TRUE(ptxn.ok());
  std::vector<std::vector<BranchStep>> queues(kBranches);
  for (size_t b = 0; b < kBranches; ++b) {
    Transaction* br = (*ptxn)->branch(static_cast<NodeId>(b));
    for (size_t i = 0; i < kOpsPerBranch; ++i) {
      // Branch b works its own heap page (12 records per 512-byte page).
      queues[b].push_back({br, fx.table[b * 12 + i],
                           Value(uint8_t(16 * b + i + 1))});
    }
  }
  Status run = RunStepsInterleaved(fx.db.txn(), queues);
  ASSERT_TRUE(run.ok()) << run.ToString();
  ASSERT_TRUE(fx.db.txn().CommitParallel(*ptxn).ok());
  for (size_t b = 0; b < kBranches; ++b) {
    for (size_t i = 0; i < kOpsPerBranch; ++i) {
      auto slot = fx.db.records().SnoopSlot(fx.table[b * 12 + i]);
      ASSERT_TRUE(slot.ok());
      EXPECT_EQ(slot->data, Value(uint8_t(16 * b + i + 1)))
          << "branch " << b << " op " << i;
    }
  }
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

// Interleaved branches plus a participant crash: all the group's work must
// be annulled as one group, while a solo transaction interleaved with it
// survives untouched.
TEST(ParallelTxnTest, InterleavedBranchesAnnulAsOneGroupOnCrash) {
  Fx fx;
  auto ptxn = fx.db.txn().BeginParallel({0, 1, 2});
  ASSERT_TRUE(ptxn.ok());
  Transaction* solo = fx.db.txn().Begin(4);
  std::vector<std::vector<BranchStep>> queues(4);
  for (size_t b = 0; b < 3; ++b) {
    Transaction* br = (*ptxn)->branch(static_cast<NodeId>(b));
    for (size_t i = 0; i < 4; ++i) {
      queues[b].push_back({br, fx.table[b * 12 + i], Value(uint8_t(b + 1))});
    }
  }
  queues[3].push_back({solo, fx.table[40], Value(0x55)});
  Status run = RunStepsInterleaved(fx.db.txn(), queues);
  ASSERT_TRUE(run.ok()) << run.ToString();

  auto outcome = fx.db.Crash({2});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->annulled.size(), 3u);
  EXPECT_TRUE(outcome->forced_aborts.empty());
  EXPECT_TRUE(fx.checker.VerifyAll().ok())
      << fx.checker.VerifyAll().ToString();
  for (size_t b = 0; b < 3; ++b) {
    for (size_t i = 0; i < 4; ++i) {
      auto slot = fx.db.records().SnoopSlot(fx.table[b * 12 + i]);
      ASSERT_TRUE(slot.ok());
      EXPECT_EQ(slot->data, Value(0)) << "branch " << b << " op " << i;
    }
  }
  EXPECT_EQ(solo->state, TxnState::kActive);
  ASSERT_TRUE(fx.db.txn().Commit(solo).ok());
  auto slot = fx.db.records().SnoopSlot(fx.table[40]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0x55));
}

// Several groups step interleaved on disjoint record slices, pinning that
// group bookkeeping (branch registration, group commit ordering) keeps
// groups independent.
TEST(ParallelTxnTest, InterleavedGroupsOnDisjointRecordsCommit) {
  Fx fx;
  constexpr size_t kGroups = 3;
  std::vector<ParallelTxn*> groups;
  for (size_t g = 0; g < kGroups; ++g) {
    auto p = fx.db.txn().BeginParallel(
        {static_cast<NodeId>(2 * g), static_cast<NodeId>(2 * g + 1)});
    ASSERT_TRUE(p.ok());
    groups.push_back(*p);
  }
  // 6 branch queues across 3 groups; each branch owns its own heap page.
  std::vector<std::vector<BranchStep>> queues(2 * kGroups);
  for (size_t t = 0; t < 2 * kGroups; ++t) {
    Transaction* br = groups[t / 2]->branches[t % 2];
    for (size_t i = 0; i < 4; ++i) {
      queues[t].push_back({br, fx.table[t * 12 + i], Value(uint8_t(t + 1))});
    }
  }
  Status run = RunStepsInterleaved(fx.db.txn(), queues);
  ASSERT_TRUE(run.ok()) << run.ToString();
  for (size_t g = 0; g < kGroups; ++g) {
    ASSERT_TRUE(fx.db.txn().CommitParallel(groups[g]).ok()) << "group " << g;
  }
  for (size_t t = 0; t < 2 * kGroups; ++t) {
    for (size_t i = 0; i < 4; ++i) {
      auto slot = fx.db.records().SnoopSlot(fx.table[t * 12 + i]);
      ASSERT_TRUE(slot.ok());
      EXPECT_EQ(slot->data, Value(uint8_t(t + 1))) << "task " << t;
    }
  }
  EXPECT_TRUE(fx.checker.VerifyAll().ok());
}

TEST(ParallelTxnTest, BeginParallelRejectsDeadNode) {
  Fx fx;
  fx.db.machine().CrashNode(3);
  auto ptxn = fx.db.txn().BeginParallel({0, 3});
  EXPECT_FALSE(ptxn.ok());
  EXPECT_TRUE(ptxn.status().IsNodeFailed());
}

}  // namespace
}  // namespace smdb
