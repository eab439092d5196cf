#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "storage/stable_log.h"

namespace smdb {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("xyz");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: xyz");
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Deadlock().IsDeadlock());
  EXPECT_TRUE(Status::LineLost().IsLineLost());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::NodeFailed().IsNodeFailed());
}

TEST(ResultTest, ValueAndError) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  Result<int> e = Status::IoError("disk");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), Status::Code::kIoError);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(TypesTest, TxnIdEncodesNode) {
  TxnId id = MakeTxnId(37, 123456);
  EXPECT_EQ(TxnNode(id), 37);
  EXPECT_EQ(TxnSeq(id), 123456u);
}

TEST(TypesTest, RecordIdOrderingAndHash) {
  RecordId a{1, 2}, b{1, 3}, c{2, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (RecordId{1, 2}));
  std::hash<RecordId> h;
  EXPECT_NE(h(a), h(b));
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  bool differs = false;
  Rng a2(7);
  for (int i = 0; i < 100; ++i) {
    if (a2.Next() != c.Next()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(RngTest, UniformInRange) {
  Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng r(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.Bernoulli(0.0));
    EXPECT_TRUE(r.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng r(3);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += r.Bernoulli(0.5);
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(RngTest, ZipfSkewsTowardHead) {
  Rng r(4);
  uint64_t head = 0, total = 10000;
  for (uint64_t i = 0; i < total; ++i) {
    if (r.Zipf(1000, 0.99) < 10) ++head;
  }
  // With theta=0.99 the top-10 of 1000 items draw far more than 1% of
  // accesses.
  EXPECT_GT(head, total / 10);
}

TEST(RngTest, ZipfUniformWhenThetaZero) {
  Rng r(5);
  uint64_t head = 0, total = 10000;
  for (uint64_t i = 0; i < total; ++i) {
    if (r.Zipf(1000, 0.0) < 10) ++head;
  }
  EXPECT_LT(head, total / 20);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng r(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  r.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, [&](size_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "workers=" << workers << " i=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, DisjointSlotWritesNeedNoSynchronisation) {
  // The recovery pipeline's usage pattern: each task writes only its own
  // slot of a pre-sized vector.
  ThreadPool pool(4);
  std::vector<uint64_t> out(1000, 0);
  pool.ParallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPoolTest, BackToBackCallsNeverLeakWorkAcrossGenerations) {
  // Regression: a straggler worker still draining generation g while the
  // caller starts generation g+1 must not execute the new items through
  // its stale job pointer (the previous ParallelFor's function object is
  // destroyed the moment that call returns). Rapid back-to-back calls
  // with a fresh heap-allocated capture each round make a stale execution
  // a use-after-free, which ASan/TSan runs of this test flag loudly.
  ThreadPool pool(8);
  for (int round = 0; round < 2000; ++round) {
    auto sums = std::make_unique<std::vector<std::atomic<uint64_t>>>(4);
    auto* s = sums.get();
    pool.ParallelFor(4, [s, round](size_t i) {
      (*s)[i].fetch_add(uint64_t{unsigned(round)} * 4 + i);
    });
    for (size_t i = 0; i < 4; ++i) {
      ASSERT_EQ((*s)[i].load(), uint64_t{unsigned(round)} * 4 + i)
          << "round " << round;
    }
  }
}

TEST(ThreadPoolTest, ReusableAcrossParallelForCalls) {
  ThreadPool pool(3);
  uint64_t total = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<uint64_t> slot(17, 0);
    pool.ParallelFor(slot.size(), [&](size_t i) { slot[i] = i + 1; });
    total += std::accumulate(slot.begin(), slot.end(), uint64_t{0});
  }
  EXPECT_EQ(total, 50u * (17u * 18u / 2u));
}

TEST(StableLogStoreTest, BulkAppendPreservesLsnOrder) {
  StableLogStore store(2);
  auto batch = [](Lsn first, size_t n) {
    std::vector<LogRecord> out;
    for (size_t i = 0; i < n; ++i) {
      LogRecord rec;
      rec.lsn = first + static_cast<Lsn>(i);
      rec.node = 0;
      out.push_back(std::move(rec));
    }
    return out;
  };
  // Batches of 3, 1 and 64 records must keep the stream in LSN order across
  // batch boundaries.
  store.Append(0, batch(1, 3));
  store.Append(0, batch(4, 1));
  store.Append(0, batch(5, 64));
  const auto& recs = store.Records(0);
  ASSERT_EQ(recs.size(), 68u);
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].lsn, static_cast<Lsn>(i + 1));
  }
  EXPECT_EQ(store.LastLsn(0), 68u);
  EXPECT_EQ(store.LastLsn(1), kInvalidLsn);
}

}  // namespace
}  // namespace smdb
