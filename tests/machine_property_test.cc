// Randomized property tests for the multiprocessor simulator: the coherent
// memory system is validated against a shadow flat-memory model, and the
// directory invariants are checked after every operation batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"
#include "sim/machine.h"

namespace smdb {
namespace {

struct MachinePropertyParam {
  CoherenceKind coherence;
  uint64_t seed;
};

class MachinePropertyTest
    : public ::testing::TestWithParam<MachinePropertyParam> {};

INSTANTIATE_TEST_SUITE_P(
    Sweep, MachinePropertyTest,
    ::testing::Values(
        MachinePropertyParam{CoherenceKind::kWriteInvalidate, 1},
        MachinePropertyParam{CoherenceKind::kWriteInvalidate, 2},
        MachinePropertyParam{CoherenceKind::kWriteInvalidate, 3},
        MachinePropertyParam{CoherenceKind::kWriteBroadcast, 1},
        MachinePropertyParam{CoherenceKind::kWriteBroadcast, 2}),
    [](const ::testing::TestParamInfo<MachinePropertyParam>& info) {
      return std::string(info.param.coherence ==
                                 CoherenceKind::kWriteInvalidate
                             ? "inval"
                             : "bcast") +
             "_s" + std::to_string(info.param.seed);
    });

void CheckDirectoryInvariants(const Machine& m, LineAddr first,
                              size_t lines) {
  for (size_t i = 0; i < lines; ++i) {
    const LineEntry* e = m.FindLine(first + i);
    if (e == nullptr) continue;
    if (e->owner != kInvalidNode) {
      // An exclusive owner is the sole sharer.
      EXPECT_EQ(e->num_sharers(), 1) << "line " << i;
      EXPECT_TRUE(e->cached_by(e->owner)) << "line " << i;
    }
    if (e->lost) {
      EXPECT_EQ(e->sharers, 0u) << "lost line still cached, line " << i;
    }
  }
}

TEST_P(MachinePropertyTest, CoherentAgainstShadowMemory) {
  const auto& p = GetParam();
  MachineConfig cfg;
  cfg.num_nodes = 8;
  cfg.coherence = p.coherence;
  Machine m(cfg);
  const size_t kBytes = 4096;
  Addr base = m.AllocShared(kBytes);
  std::vector<uint8_t> shadow(kBytes, 0);
  Rng rng(p.seed);

  for (int op = 0; op < 20000; ++op) {
    NodeId node = static_cast<NodeId>(rng.Uniform(8));
    Addr off = rng.Uniform(kBytes - 16);
    size_t len = rng.Range(1, 16);
    if (rng.Bernoulli(0.5)) {
      std::vector<uint8_t> data(len);
      for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
      ASSERT_TRUE(m.Write(node, base + off, data.data(), len).ok());
      std::memcpy(shadow.data() + off, data.data(), len);
    } else {
      std::vector<uint8_t> out(len);
      ASSERT_TRUE(m.Read(node, base + off, out.data(), len).ok());
      ASSERT_EQ(0, std::memcmp(out.data(), shadow.data() + off, len))
          << "incoherent read at op " << op;
    }
    if (op % 1000 == 0) {
      CheckDirectoryInvariants(m, m.LineOf(base), kBytes / cfg.line_size);
    }
  }
  // Final sweep: snoop must agree with the shadow everywhere.
  std::vector<uint8_t> all(kBytes);
  ASSERT_TRUE(m.SnoopRead(base, all.data(), kBytes).ok());
  EXPECT_EQ(all, shadow);
}

TEST_P(MachinePropertyTest, CrashPartitionsIntoLostAndIntact) {
  const auto& p = GetParam();
  MachineConfig cfg;
  cfg.num_nodes = 8;
  cfg.coherence = p.coherence;
  Machine m(cfg);
  const size_t kBytes = 4096;
  Addr base = m.AllocShared(kBytes);
  std::vector<uint8_t> shadow(kBytes, 0);
  Rng rng(p.seed * 31 + 7);

  for (int op = 0; op < 5000; ++op) {
    NodeId node = static_cast<NodeId>(rng.Uniform(8));
    Addr off = rng.Uniform(kBytes - 8);
    size_t len = rng.Range(1, 8);
    std::vector<uint8_t> data(len);
    for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
    ASSERT_TRUE(m.Write(node, base + off, data.data(), len).ok());
    std::memcpy(shadow.data() + off, data.data(), len);
    if (rng.Bernoulli(0.2)) {
      std::vector<uint8_t> out(len);
      NodeId reader = static_cast<NodeId>(rng.Uniform(8));
      ASSERT_TRUE(m.Read(reader, base + off, out.data(), len).ok());
    }
  }
  NodeId victim = static_cast<NodeId>(rng.Uniform(8));
  m.CrashNode(victim);

  // Every line is either probe-able with shadow-consistent contents, or
  // lost and rejected by every access path.
  size_t lines = kBytes / cfg.line_size;
  size_t lost = 0;
  for (size_t i = 0; i < lines; ++i) {
    LineAddr line = m.LineOf(base) + i;
    Addr a = base + i * cfg.line_size;
    std::vector<uint8_t> out(cfg.line_size);
    if (m.ProbeLine(line)) {
      ASSERT_FALSE(m.IsLineLost(line));
      ASSERT_TRUE(m.SnoopRead(a, out.data(), out.size()).ok());
      EXPECT_EQ(0, std::memcmp(out.data(), shadow.data() + i * cfg.line_size,
                               cfg.line_size))
          << "surviving line " << i << " lost writes";
    } else {
      ++lost;
      EXPECT_TRUE(m.IsLineLost(line));
      NodeId survivor = (victim + 1) % 8;
      EXPECT_TRUE(
          m.Read(survivor, a, out.data(), out.size()).IsLineLost());
      EXPECT_TRUE(m.SnoopRead(a, out.data(), out.size()).IsLineLost());
    }
  }
  if (p.coherence == CoherenceKind::kWriteBroadcast) {
    // Broadcast keeps copies replicated: losses should be rare (only lines
    // the victim alone ever touched and homes on the victim).
    EXPECT_LT(lost, lines / 2);
  }
  // Re-installing every lost line heals the machine.
  for (size_t i = 0; i < lines; ++i) {
    LineAddr line = m.LineOf(base) + i;
    if (!m.IsLineLost(line)) continue;
    m.InstallToMemory(base + i * cfg.line_size,
                      shadow.data() + i * cfg.line_size, cfg.line_size);
  }
  std::vector<uint8_t> all(kBytes);
  ASSERT_TRUE(m.SnoopRead(base, all.data(), kBytes).ok());
  EXPECT_EQ(all, shadow);
}

// Random reads, writes, line locks and crash/restart cycles. The line
// table keeps one cached image per line, which is exact only while every
// sharer's copy is byte-identical: each sharer must read what SnoopRead
// reports, the directory view must agree with the per-node scans, and the
// whole address space must match a shadow copy once lost lines are
// re-installed from it.
TEST_P(MachinePropertyTest, SharersAgreeAcrossCrashes) {
  const auto& p = GetParam();
  MachineConfig cfg;
  cfg.num_nodes = 8;
  cfg.coherence = p.coherence;
  Machine m(cfg);
  const size_t kLines = 48;
  const size_t kBytes = kLines * cfg.line_size;
  Addr base = m.AllocShared(kBytes);
  LineAddr first = m.LineOf(base);
  std::vector<uint8_t> shadow(kBytes, 0);
  Rng rng(p.seed * 977 + 5);

  auto heal = [&] {
    for (size_t i = 0; i < kLines; ++i) {
      if (!m.IsLineLost(first + i)) continue;
      m.InstallToMemory(base + i * cfg.line_size,
                        shadow.data() + i * cfg.line_size, cfg.line_size);
    }
  };
  auto check = [&](int op) {
    std::vector<std::vector<LineAddr>> scanned(cfg.num_nodes);
    for (NodeId n = 0; n < cfg.num_nodes; ++n) {
      m.ForEachCachedLine(n, [&](LineAddr l) { scanned[n].push_back(l); });
    }
    std::vector<uint8_t> snoop(cfg.line_size), copy(cfg.line_size);
    for (size_t i = 0; i < kLines; ++i) {
      const LineEntry* e = m.FindLine(first + i);
      Addr a = base + i * cfg.line_size;
      ASSERT_TRUE(m.SnoopRead(a, snoop.data(), snoop.size()).ok());
      ASSERT_EQ(0, std::memcmp(snoop.data(), shadow.data() + i * cfg.line_size,
                               cfg.line_size))
          << "line " << i << " op " << op;
      if (e == nullptr) continue;
      if (e->owner != kInvalidNode) {
        ASSERT_EQ(e->sharers, 1ULL << e->owner) << "line " << i;
      }
      for (NodeId n = 0; n < cfg.num_nodes; ++n) {
        bool listed = std::find(scanned[n].begin(), scanned[n].end(),
                                first + i) != scanned[n].end();
        ASSERT_EQ(listed, e->cached_by(n)) << "line " << i << " node " << n;
        if (!e->cached_by(n)) continue;
        ASSERT_TRUE(m.NodeAlive(n));
        ASSERT_TRUE(m.Read(n, a, copy.data(), copy.size()).ok());
        ASSERT_EQ(copy, snoop) << "sharer " << n << " line " << i;
      }
    }
  };

  for (int op = 0; op < 6000; ++op) {
    NodeId node = static_cast<NodeId>(rng.Uniform(cfg.num_nodes));
    if (!m.NodeAlive(node)) {
      m.RestartNode(node);
      continue;
    }
    size_t i = rng.Uniform(kLines);
    Addr a = base + i * cfg.line_size;
    double dice = rng.NextDouble();
    if (dice < 0.45) {
      size_t off = rng.Uniform(cfg.line_size - 8);
      uint64_t v = rng.Next();
      ASSERT_TRUE(m.Write(node, a + off, &v, sizeof(v)).ok());
      std::memcpy(shadow.data() + i * cfg.line_size + off, &v, sizeof(v));
    } else if (dice < 0.85) {
      uint64_t v = 0;
      ASSERT_TRUE(m.Read(node, a, &v, sizeof(v)).ok());
    } else if (dice < 0.99) {
      ASSERT_TRUE(m.GetLine(node, first + i).ok());
      m.ReleaseLine(node, first + i);
    } else {
      m.CrashNode(node);
      heal();
    }
    if (op % 250 == 0) check(op);
  }
  check(-1);
}

TEST(MachineTimingTest, CostsFollowTheModel) {
  MachineConfig cfg;
  cfg.num_nodes = 4;
  Machine m(cfg);
  Addr a = m.AllocShared(256);
  const TimingModel& t = cfg.timing;

  // Cold fetch from (zero-filled) home memory.
  SimTime t0 = m.NodeClock(0);
  ASSERT_TRUE(m.ReadValue<uint32_t>(0, a).ok());
  EXPECT_EQ(m.NodeClock(0) - t0, t.memory_access_ns);

  // Local hit.
  t0 = m.NodeClock(0);
  ASSERT_TRUE(m.ReadValue<uint32_t>(0, a).ok());
  EXPECT_EQ(m.NodeClock(0) - t0, t.cache_hit_ns);

  // Remote transfer.
  t0 = m.NodeClock(1);
  ASSERT_TRUE(m.ReadValue<uint32_t>(1, a).ok());
  EXPECT_EQ(m.NodeClock(1) - t0, t.remote_transfer_ns);

  // Write invalidating one remote copy: transfer-free local upgrade is not
  // possible (node 2 has no copy), so it pays a remote fetch plus one
  // invalidation bookkeeping tick per displaced copy.
  t0 = m.NodeClock(2);
  ASSERT_TRUE(m.WriteValue<uint32_t>(2, a, 5).ok());
  EXPECT_EQ(m.NodeClock(2) - t0,
            t.remote_transfer_ns + 2 * t.cpu_op_ns);
}

TEST(MachineTimingTest, GlobalTimeIsMaxOfAliveClocks) {
  MachineConfig cfg;
  cfg.num_nodes = 3;
  Machine m(cfg);
  m.Tick(0, 100);
  m.Tick(1, 500);
  m.Tick(2, 900);
  EXPECT_EQ(m.GlobalTime(), 900u);
  m.CrashNode(2);
  EXPECT_EQ(m.GlobalTime(), 500u);
  m.SyncClocks();
  EXPECT_EQ(m.NodeClock(0), 500u);
  EXPECT_EQ(m.NodeClock(1), 500u);
}

}  // namespace
}  // namespace smdb
