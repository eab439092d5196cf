#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/status.h"
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
