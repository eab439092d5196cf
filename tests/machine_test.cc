#include "sim/machine.h"

#include <gtest/gtest.h>

#include "sim/config.h"

namespace smdb {
namespace {

MachineConfig SmallConfig(uint16_t nodes = 4) {
  MachineConfig c;
  c.num_nodes = nodes;
  return c;
}

TEST(MachineTest, ReadYourWrites) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(256);
  uint64_t v = 0xDEADBEEF;
  ASSERT_TRUE(m.WriteValue(0, a, v).ok());
  auto r = m.ReadValue<uint64_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, v);
}

TEST(MachineTest, CoherentAcrossNodes) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 7).ok());
  auto r = m.ReadValue<uint32_t>(3, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7u);
  // After a remote write, node 3's copy must be invalidated.
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 9).ok());
  auto r2 = m.ReadValue<uint32_t>(3, a);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 9u);
}

TEST(MachineTest, WwMigrationLeavesSoleCopy) {
  // History H_ww1: w_x[l]; w_y[l] — the line migrates and only node y holds
  // it afterwards.
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 2).ok());
  const LineEntry* e = m.FindLine(line);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->owner, 1);
  EXPECT_EQ(e->num_sharers(), 1);
  EXPECT_GE(m.stats().migrations, 1u);
}

TEST(MachineTest, WrReplication) {
  // History H_wr: w_x[l]; r_y[l] — both nodes end with a valid copy.
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  auto r = m.ReadValue<uint32_t>(2, a);
  ASSERT_TRUE(r.ok());
  const LineEntry* e = m.FindLine(line);
  EXPECT_EQ(e->num_sharers(), 2);
  EXPECT_TRUE(e->cached_by(0));
  EXPECT_TRUE(e->cached_by(2));
  EXPECT_GE(m.stats().replications, 1u);
}

TEST(MachineTest, CrashDestroysSoleCopy) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 42).ok());
  m.CrashNode(1);
  EXPECT_TRUE(m.IsLineLost(line));
  EXPECT_FALSE(m.ProbeLine(line));
  auto r = m.ReadValue<uint32_t>(0, a);
  EXPECT_TRUE(r.status().IsLineLost());
}

TEST(MachineTest, CrashSparesReplicatedLine) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 42).ok());
  ASSERT_TRUE(m.ReadValue<uint32_t>(2, a).ok());  // replicate
  m.CrashNode(1);
  EXPECT_FALSE(m.IsLineLost(line));
  EXPECT_TRUE(m.ProbeLine(line));
  auto r = m.ReadValue<uint32_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42u);
}

TEST(MachineTest, CrashDestroysHomeMemory) {
  Machine m(SmallConfig(2));
  // Find an address homed on node 1.
  Addr a = m.AllocShared(1024);
  Addr on1 = a;
  while (m.HomeOf(m.LineOf(on1)) != 1) on1 += m.line_size();
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, on1, 5).ok());
  // Install to memory then drop cached copies so only home memory holds it.
  uint32_t v = 5;
  m.InstallToMemory(on1, &v, sizeof(v));
  m.CrashNode(1);
  EXPECT_TRUE(m.IsLineLost(m.LineOf(on1)));
}

TEST(MachineTest, InstallToMemoryRecoversLostLine) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 7).ok());
  m.CrashNode(1);
  ASSERT_TRUE(m.IsLineLost(m.LineOf(a)));
  uint32_t v = 3;
  m.InstallToMemory(a, &v, sizeof(v));
  EXPECT_FALSE(m.IsLineLost(m.LineOf(a)));
  auto r = m.ReadValue<uint32_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3u);
}

TEST(MachineTest, LineLockMutualExclusionAndTiming) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.GetLine(0, line).ok());
  EXPECT_TRUE(m.LineLockHeldBy(line, 0));
  SimTime t0 = m.NodeClock(1);
  m.ReleaseLine(0, line);
  ASSERT_TRUE(m.GetLine(1, line).ok());
  EXPECT_TRUE(m.LineLockHeldBy(line, 1));
  m.ReleaseLine(1, line);
  EXPECT_GT(m.NodeClock(1), t0);
}

TEST(MachineTest, LineLockContentionSerializes) {
  Machine m(SmallConfig(8));
  Addr a = m.AllocShared(128);
  LineAddr line = m.LineOf(a);
  // All nodes contend for the same line at time ~0.
  for (NodeId n = 0; n < 8; ++n) {
    ASSERT_TRUE(m.GetLine(n, line).ok());
    m.Tick(n, 500);  // hold
    m.ReleaseLine(n, line);
  }
  // Later acquirers waited for earlier holders: node 7's clock >> node 0's.
  EXPECT_GT(m.NodeClock(7), m.NodeClock(0));
  EXPECT_GT(m.stats().line_lock_wait_ns, 0u);
}

TEST(MachineTest, CrashReleasesLineLocks) {
  Machine m(SmallConfig());
  // Pick a line homed on node 0 with a valid (clean) home-memory copy, so
  // it survives node 1's crash even while node 1 holds it exclusively via
  // the line lock (getline of a clean line leaves memory valid).
  Addr a = m.AllocShared(1024);
  while (m.HomeOf(m.LineOf(a)) != 0) a += m.line_size();
  uint32_t v = 1;
  m.InstallToMemory(a, &v, sizeof(v));
  LineAddr line = m.LineOf(a);
  ASSERT_TRUE(m.GetLine(1, line).ok());
  EXPECT_TRUE(m.LineLockHeldBy(line, 1));
  m.CrashNode(1);
  EXPECT_FALSE(m.LineLockHeldBy(line, 1));
  EXPECT_FALSE(m.IsLineLost(line));
  EXPECT_TRUE(m.GetLine(2, line).ok());
  m.ReleaseLine(2, line);
}

TEST(MachineTest, WriteBroadcastKeepsAllCopiesValid) {
  MachineConfig c = SmallConfig();
  c.coherence = CoherenceKind::kWriteBroadcast;
  Machine m(c);
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  ASSERT_TRUE(m.ReadValue<uint32_t>(1, a).ok());  // replicate
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 2).ok());
  const LineEntry* e = m.FindLine(m.LineOf(a));
  // Under write-broadcast the write updates node 0's copy in place.
  EXPECT_EQ(e->num_sharers(), 2);
  auto r = m.ReadValue<uint32_t>(0, a);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 2u);
  EXPECT_GE(m.stats().broadcast_updates, 1u);
  // Crash of the writer does not lose the line.
  m.CrashNode(1);
  EXPECT_FALSE(m.IsLineLost(m.LineOf(a)));
}

TEST(MachineTest, CoherenceHooksFire) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  std::vector<CoherenceEvent> events;
  m.AddCoherenceHook([&](const CoherenceEvent& ev) { events.push_back(ev); });
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  ASSERT_TRUE(m.ReadValue<uint32_t>(1, a).ok());  // downgrade 0
  ASSERT_TRUE(m.WriteValue<uint32_t>(2, a, 2).ok());  // invalidate 0 and 1
  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events[0].kind, CoherenceEvent::Kind::kDowngrade);
  EXPECT_EQ(events[0].from, 0);
  EXPECT_EQ(events[0].to, 1);
  bool saw_invalidate = false;
  for (const auto& ev : events) {
    if (ev.kind == CoherenceEvent::Kind::kInvalidate) saw_invalidate = true;
  }
  EXPECT_TRUE(saw_invalidate);
}

TEST(MachineTest, ActiveBitTravelsWithEvents) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  m.SetLineActive(m.LineOf(a), true);
  bool saw_active = false;
  m.AddCoherenceHook([&](const CoherenceEvent& ev) {
    if (ev.active_bit) saw_active = true;
  });
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a, 2).ok());
  EXPECT_TRUE(saw_active);
}

TEST(MachineTest, RebootAllLosesEverything) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(512);
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());
  m.RebootAll();
  EXPECT_TRUE(m.IsLineLost(m.LineOf(a)));
  for (NodeId n = 0; n < 4; ++n) EXPECT_TRUE(m.NodeAlive(n));
}

TEST(MachineTest, SnoopReadSeesCoherentPicture) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(128);
  ASSERT_TRUE(m.WriteValue<uint32_t>(2, a, 77).ok());
  uint32_t v = 0;
  ASSERT_TRUE(m.SnoopRead(a, &v, sizeof(v)).ok());
  EXPECT_EQ(v, 77u);
  // Snooping must not change any state.
  const LineEntry* e = m.FindLine(m.LineOf(a));
  EXPECT_EQ(e->owner, 2);
}

TEST(MachineTest, MultiLineReadWrite) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(1024);
  std::vector<uint8_t> data(500);
  for (size_t i = 0; i < data.size(); ++i) data[i] = uint8_t(i * 7);
  ASSERT_TRUE(m.Write(0, a + 50, data.data(), data.size()).ok());
  std::vector<uint8_t> out(500);
  ASSERT_TRUE(m.Read(3, a + 50, out.data(), out.size()).ok());
  EXPECT_EQ(data, out);
}

TEST(MachineTest, AllocLocalHomesOnNode) {
  Machine m(SmallConfig());
  Addr a = m.AllocLocal(2, 4096);
  for (uint32_t i = 0; i < 4096 / m.line_size(); ++i) {
    EXPECT_EQ(m.HomeOf(m.LineOf(a) + i), 2);
  }
}

TEST(MachineTest, ForEachCachedLineVisitsAscendingAddresses) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(64 * 128);
  LineAddr first = m.LineOf(a);
  // Node 0 pulls every third line in, highest address first; node 1 then
  // takes line 3 exclusive away from it.
  std::vector<LineAddr> expected;
  for (int i = 63; i >= 0; --i) {
    if (i % 3 != 0) continue;
    ASSERT_TRUE(m.ReadValue<uint32_t>(0, a + i * 128).ok());
    if (i != 3) expected.insert(expected.begin(), first + i);
  }
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a + 3 * 128, 9).ok());
  std::vector<LineAddr> seen;
  m.ForEachCachedLine(0, [&](LineAddr line) { seen.push_back(line); });
  EXPECT_EQ(seen, expected);
  seen.clear();
  m.ForEachCachedLine(1, [&](LineAddr line) { seen.push_back(line); });
  EXPECT_EQ(seen, std::vector<LineAddr>{first + 3});
}

TEST(MachineTest, NeverTouchedLineKeepsItsSemantics) {
  Machine m(SmallConfig());
  Addr a = m.AllocShared(4 * 128);
  LineAddr untouched = m.LineOf(a) + 2;
  ASSERT_TRUE(m.WriteValue<uint32_t>(0, a, 1).ok());  // touch line 0 only
  // Beyond every allocation, too.
  LineAddr beyond = m.LineOf(a) + 100;
  for (LineAddr line : {untouched, beyond}) {
    EXPECT_EQ(m.FindLine(line), nullptr);
    EXPECT_FALSE(m.ProbeLine(line));
    EXPECT_FALSE(m.IsLineLost(line));
    EXPECT_FALSE(m.LineActive(line));
    std::vector<uint8_t> out(128, 0xFF);
    ASSERT_TRUE(m.SnoopRead(m.AddrOfLine(line), out.data(), out.size()).ok());
    EXPECT_EQ(out, std::vector<uint8_t>(128, 0));
    m.DiscardLine(line);  // discarding an untouched line leaves it untouched
    EXPECT_EQ(m.FindLine(line), nullptr);
  }
  // Only the touched line is counted lost, by a crash and by a reboot.
  m.CrashNode(0);
  EXPECT_EQ(m.stats().lines_lost, 1u);
  EXPECT_FALSE(m.IsLineLost(untouched));
  m.RestartNode(0);
  ASSERT_TRUE(m.WriteValue<uint32_t>(1, a + 128, 2).ok());  // touch line 1
  m.RebootAll();
  EXPECT_EQ(m.stats().lines_lost, 2u);  // line 1; line 0 was already lost
  EXPECT_FALSE(m.IsLineLost(untouched));
  EXPECT_EQ(m.FindLine(untouched), nullptr);
}

}  // namespace
}  // namespace smdb
