// Unit tests for the db layer: page layout, record store addressing,
// buffer manager (steal flushes, WAL gate, lost-line reinstall), WAL table.

#include <gtest/gtest.h>

#include "core/database.h"

namespace smdb {
namespace {

TEST(PageLayoutTest, Geometry) {
  PageLayout l(4096, 128, 22);
  EXPECT_EQ(l.slot_bytes(), 32u);
  EXPECT_EQ(l.slots_per_line(), 4u);
  EXPECT_EQ(l.lines_per_page(), 32u);
  EXPECT_EQ(l.slots_per_page(), 31u * 4u);
}

TEST(PageLayoutTest, SlotsNeverSpanLines) {
  PageLayout l(4096, 128, 30);  // 40-byte slots: 3 per line
  EXPECT_EQ(l.slots_per_line(), 3u);
  for (uint16_t s = 0; s < l.slots_per_page(); ++s) {
    uint32_t off = l.SlotOffset(s);
    EXPECT_EQ(off / 128, (off + l.slot_bytes() - 1) / 128)
        << "slot " << s << " spans lines";
    EXPECT_GE(off, 128u) << "slot in header line";
  }
}

TEST(PageLayoutTest, OneRecordPerLineConfig) {
  PageLayout l(4096, 128, 118);  // 128-byte slots: exactly 1 per line
  EXPECT_EQ(l.slots_per_line(), 1u);
  EXPECT_EQ(l.slots_per_page(), 31u);
}

TEST(PageLayoutTest, EncodeDecodeRoundTrip) {
  PageLayout l(4096, 128, 22);
  SlotImage img;
  img.usn = 0x123456789ABCDEF0;
  img.tag = TagForNode(5);
  img.data.assign(22, 0x5A);
  std::vector<uint8_t> buf(l.slot_bytes());
  l.EncodeSlot(img, buf.data());
  SlotImage out = l.DecodeSlotBuf(buf.data());
  EXPECT_EQ(out.usn, img.usn);
  EXPECT_EQ(out.tag, img.tag);
  EXPECT_EQ(out.data, img.data);
  EXPECT_EQ(NodeOfTag(out.tag), 5);
}

TEST(PageLayoutTest, FormatPageHeader) {
  PageLayout l(4096, 128, 22);
  auto img = l.FormatPage(77);
  EXPECT_EQ(PageLayout::PageLsnOf(img), 0u);
  uint32_t magic;
  memcpy(&magic, img.data(), 4);
  EXPECT_EQ(magic, PageLayout::kMagic);
  SlotImage s = l.DecodeSlot(img, 0);
  EXPECT_EQ(s.usn, 0u);
  EXPECT_EQ(s.tag, kTagNone);
}

struct DbFixture {
  DbFixture() : db(MakeCfg()) {
    auto t = db.CreateTable(200);
    EXPECT_TRUE(t.ok());
    table = *t;
  }
  static DatabaseConfig MakeCfg() {
    DatabaseConfig c;
    c.machine.num_nodes = 4;
    return c;
  }
  Database db;
  std::vector<RecordId> table;
};

TEST(RecordStoreTest, TableSpansPages) {
  DbFixture f;
  EXPECT_EQ(f.table.size(), 200u);
  // 124 slots per page -> two pages.
  EXPECT_EQ(f.db.records().pages().size(), 2u);
  EXPECT_NE(f.table.front().page, f.table.back().page);
}

TEST(RecordStoreTest, SlotLineResolution) {
  DbFixture f;
  RecordId r0 = f.table[0];
  RecordId r3 = f.table[3];
  RecordId r4 = f.table[4];
  // 4 slots per line: slots 0..3 share a line, slot 4 starts the next.
  EXPECT_EQ(f.db.records().SlotLine(r0), f.db.records().SlotLine(r3));
  EXPECT_NE(f.db.records().SlotLine(r0), f.db.records().SlotLine(r4));
  // Header line is distinct from all slot lines.
  EXPECT_NE(f.db.records().HeaderLine(r0.page), f.db.records().SlotLine(r0));
}

TEST(RecordStoreTest, SlotsInLineInverse) {
  DbFixture f;
  for (uint16_t s : {0, 3, 4, 100, 123}) {
    RecordId rid{f.table[0].page, s};
    auto rids = f.db.records().SlotsInLine(f.db.records().SlotLine(rid));
    EXPECT_EQ(rids.size(), 4u);
    EXPECT_NE(std::find(rids.begin(), rids.end(), rid), rids.end());
  }
  // A non-table line resolves to nothing.
  EXPECT_TRUE(f.db.records().SlotsInLine(1u << 30).empty());
}

TEST(RecordStoreTest, WriteReadSlot) {
  DbFixture f;
  SlotImage img;
  img.usn = 9;
  img.tag = TagForNode(2);
  img.data.assign(22, 0xCD);
  ASSERT_TRUE(f.db.records().WriteSlot(1, f.table[10], img).ok());
  auto out = f.db.records().ReadSlot(3, f.table[10]);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->usn, 9u);
  EXPECT_EQ(out->tag, TagForNode(2));
  EXPECT_EQ(out->data, img.data);
  // WriteTag updates only the tag.
  ASSERT_TRUE(f.db.records().WriteTag(0, f.table[10], kTagNone).ok());
  auto out2 = f.db.records().ReadSlot(0, f.table[10]);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->tag, kTagNone);
  EXPECT_EQ(out2->data, img.data);
}

TEST(BufferManagerTest, FlushAndStableImage) {
  DbFixture f;
  SlotImage img;
  img.usn = 5;
  img.tag = kTagNone;
  img.data.assign(22, 0xEE);
  ASSERT_TRUE(f.db.records().WriteSlot(0, f.table[0], img).ok());
  f.db.buffers().MarkDirty(f.table[0].page);
  ASSERT_TRUE(f.db.buffers().FlushPage(0, f.table[0].page).ok());
  std::vector<uint8_t> stable;
  ASSERT_TRUE(
      f.db.buffers().ReadStableImage(0, f.table[0].page, &stable).ok());
  SlotImage s = f.db.records().DecodeStableSlot(stable, 0);
  EXPECT_EQ(s.data, img.data);
  EXPECT_FALSE(f.db.buffers().IsDirty(f.table[0].page));
}

TEST(BufferManagerTest, WalGateForcesUpdaterLogs) {
  DbFixture f;
  // A transactional update notes (page, node, lsn) in the WAL table; the
  // flush must force node 1's log first.
  Transaction* t = f.db.txn().Begin(1);
  ASSERT_TRUE(f.db.txn().Update(t, f.table[0],
                                std::vector<uint8_t>(22, 1)).ok());
  Lsn before = f.db.log().stable_lsn(1);
  ASSERT_TRUE(f.db.buffers().FlushPage(3, f.table[0].page).ok());
  EXPECT_GT(f.db.log().stable_lsn(1), before);
  EXPECT_GE(f.db.buffers().wal_gate_forces(), 1u);
  ASSERT_TRUE(f.db.txn().Commit(t).ok());
}

TEST(BufferManagerTest, ReinstallLostLinesOnlyTouchesLost) {
  DbFixture f;
  // Flush a known value, then overwrite in memory without flushing, crash
  // nothing: ReinstallLostLines must be a no-op (no lost lines).
  std::vector<uint8_t> image;
  auto res = f.db.buffers().ReinstallLostLines(0, f.table[0].page, &image);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(*res, 0);
  EXPECT_TRUE(image.empty());  // nothing lost, nothing read
}

TEST(BufferManagerTest, ResolveAddr) {
  DbFixture f;
  auto base = f.db.buffers().BaseOf(f.table[0].page);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(f.db.buffers().ResolveAddr(*base + 100),
            std::optional<PageId>(f.table[0].page));
  EXPECT_EQ(f.db.buffers().ResolveAddr(*base + 4096),
            std::optional<PageId>(f.table[0].page + 1));
  EXPECT_FALSE(f.db.buffers().ResolveAddr(1ull << 40).has_value());
}

TEST(WalTableTest, RequirementsTrackPerNodeMax) {
  WalTable wt(4);
  wt.NoteUpdate(7, 0, 5);
  wt.NoteUpdate(7, 0, 9);
  wt.NoteUpdate(7, 2, 3);
  auto req = wt.Requirements(7);
  ASSERT_EQ(req.size(), 2u);
  EXPECT_EQ(req[0], (std::pair<NodeId, Lsn>{0, 9}));
  EXPECT_EQ(req[1], (std::pair<NodeId, Lsn>{2, 3}));
  wt.OnNodeCrash(0);
  req = wt.Requirements(7);
  ASSERT_EQ(req.size(), 1u);
  EXPECT_EQ(req[0].first, 2);
  wt.ClearPage(7);
  EXPECT_TRUE(wt.Requirements(7).empty());
}

// Restart redo re-notes older redone records; the requirement must not drop
// below a newer update that is still volatile.
TEST(WalTableTest, OlderLsnNeverLowersRequirement) {
  WalTable wt(2);
  wt.NoteUpdate(2, 1, 29);
  wt.NoteUpdate(2, 1, 16);
  auto req = wt.Requirements(2);
  ASSERT_EQ(req.size(), 1u);
  EXPECT_EQ(req[0], (std::pair<NodeId, Lsn>{1, 29}));
}

TEST(DiskTest, ReadWriteAndCosts) {
  MachineConfig mc;
  mc.num_nodes = 2;
  Machine m(mc);
  Disk d(&m, 4096);
  std::vector<uint8_t> page(4096, 0xAB);
  SimTime t0 = m.NodeClock(0);
  ASSERT_TRUE(d.WritePage(0, 1, page).ok());
  EXPECT_EQ(m.NodeClock(0), t0 + mc.timing.disk_write_ns);
  std::vector<uint8_t> out;
  ASSERT_TRUE(d.ReadPage(1, 1, &out).ok());
  EXPECT_EQ(out, page);
  EXPECT_TRUE(d.ReadPage(0, 99, &out).IsNotFound());
  EXPECT_TRUE(d.WritePage(0, 2, std::vector<uint8_t>(100)).code() ==
              Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace smdb
