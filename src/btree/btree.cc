#include "btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "db/page_layout.h"
#include "sim/machine.h"

namespace smdb {

BTree::BTree(Machine* machine, BufferManager* buffers, LogManager* log,
             WalTable* wal_table, UsnSource* usn, LbmPolicy* lbm,
             uint32_t tree_id, bool early_commit_structural)
    : machine_(machine),
      buffers_(buffers),
      log_(log),
      wal_table_(wal_table),
      usn_(usn),
      lbm_(lbm),
      tree_id_(tree_id),
      early_commit_structural_(early_commit_structural),
      machine_line_size_(machine->line_size()),
      page_size_(buffers->page_size()) {}

uint32_t BTree::leaf_capacity() const {
  return (page_size_ / machine_line_size_ - 1) * leaf_entries_per_line();
}

uint32_t BTree::internal_capacity() const {
  return (page_size_ / machine_line_size_ - 1) * internal_entries_per_line();
}

Addr BTree::LeafEntryAddr(Addr base, uint32_t slot) const {
  uint32_t per_line = leaf_entries_per_line();
  uint32_t line = 1 + slot / per_line;
  return base + static_cast<Addr>(line) * machine_line_size_ +
         (slot % per_line) * kLeafEntryBytes;
}

Addr BTree::InternalEntryAddr(Addr base, uint32_t idx) const {
  uint32_t per_line = internal_entries_per_line();
  uint32_t line = 1 + idx / per_line;
  return base + static_cast<Addr>(line) * machine_line_size_ +
         (idx % per_line) * kInternalEntryBytes;
}

Addr BTree::BaseOf(PageId page) const {
  auto base = buffers_->BaseOf(page);
  assert(base.ok());
  return *base;
}

LineAddr BTree::HeaderLineOf(PageId page) const {
  return machine_->LineOf(BaseOf(page));
}

Result<BTree::PageHeader> BTree::ReadHeader(NodeId node, PageId page) const {
  uint8_t buf[32];
  SMDB_RETURN_IF_ERROR(machine_->Read(node, BaseOf(page), buf, sizeof(buf)));
  PageHeader h;
  std::memcpy(&h.page_id, buf + 4, 4);
  std::memcpy(&h.page_lsn, buf + 8, 8);
  h.is_leaf = buf[16] != 0;
  h.level = buf[17];
  std::memcpy(&h.nkeys, buf + 18, 2);
  std::memcpy(&h.next_leaf, buf + 20, 4);
  std::memcpy(&h.first_child, buf + 24, 4);
  std::memcpy(&h.tree_id, buf + 28, 4);
  return h;
}

Status BTree::WriteHeader(NodeId node, PageId page, const PageHeader& h) {
  uint8_t buf[32];
  std::memset(buf, 0, sizeof(buf));
  uint32_t magic = PageLayout::kMagic;
  std::memcpy(buf, &magic, 4);
  std::memcpy(buf + 4, &h.page_id, 4);
  std::memcpy(buf + 8, &h.page_lsn, 8);
  buf[16] = h.is_leaf ? 1 : 0;
  buf[17] = h.level;
  std::memcpy(buf + 18, &h.nkeys, 2);
  std::memcpy(buf + 20, &h.next_leaf, 4);
  std::memcpy(buf + 24, &h.first_child, 4);
  std::memcpy(buf + 28, &h.tree_id, 4);
  return machine_->Write(node, BaseOf(page), buf, sizeof(buf));
}

Result<LeafEntry> BTree::ReadLeafEntry(NodeId node, PageId page,
                                       uint32_t slot) const {
  uint8_t buf[kLeafEntryBytes];
  SMDB_RETURN_IF_ERROR(machine_->Read(node, LeafEntryAddr(BaseOf(page), slot),
                                      buf, sizeof(buf)));
  LeafEntry e;
  std::memcpy(&e.key, buf, 8);
  std::memcpy(&e.rid.page, buf + 8, 4);
  std::memcpy(&e.rid.slot, buf + 12, 2);
  e.state = static_cast<LeafEntryState>(buf[14]);
  std::memcpy(&e.tag, buf + 16, 2);
  std::memcpy(&e.usn, buf + 18, 8);
  return e;
}

Status BTree::WriteLeafEntry(NodeId node, PageId page, uint32_t slot,
                             const LeafEntry& e) {
  uint8_t buf[kLeafEntryBytes];
  std::memset(buf, 0, sizeof(buf));
  std::memcpy(buf, &e.key, 8);
  std::memcpy(buf + 8, &e.rid.page, 4);
  std::memcpy(buf + 12, &e.rid.slot, 2);
  buf[14] = static_cast<uint8_t>(e.state);
  std::memcpy(buf + 16, &e.tag, 2);
  std::memcpy(buf + 18, &e.usn, 8);
  return machine_->Write(node, LeafEntryAddr(BaseOf(page), slot), buf,
                         sizeof(buf));
}

Result<PageId> BTree::AllocatePage(NodeId node, bool is_leaf, uint8_t level) {
  // Format the header into the initial image so the stable copy written at
  // creation is already a well-formed (empty) tree page: a reloaded page
  // must never decode as garbage, even under the early-commit ablation.
  // The page_id field is stamped after allocation (it is diagnostic only).
  std::vector<uint8_t> image(page_size_, 0);
  {
    uint32_t magic = PageLayout::kMagic;
    std::memcpy(image.data(), &magic, 4);
    image[16] = is_leaf ? 1 : 0;
    image[17] = level;
    std::memcpy(image.data() + 28, &tree_id_, 4);
  }
  SMDB_ASSIGN_OR_RETURN(PageId page, buffers_->CreatePage(node, image));
  pages_.insert(page);
  page_list_.push_back(page);
  PageHeader h;
  h.page_id = page;
  h.is_leaf = is_leaf;
  h.level = level;
  h.tree_id = tree_id_;
  SMDB_RETURN_IF_ERROR(WriteHeader(node, page, h));
  return page;
}

Status BTree::Init(NodeId node) {
  SMDB_ASSIGN_OR_RETURN(PageId root, AllocatePage(node, /*is_leaf=*/true, 0));
  root_ = root;
  leftmost_leaf_ = root;
  // The root allocation is itself a structural change; commit it early so
  // the catalog state is durable.
  return EarlyCommitStructural(node, {root}, "create root");
}

Status BTree::DescendToLeaf(NodeId node, uint64_t key,
                            std::vector<PageId>* path) {
  path->clear();
  PageId page = root_;
  for (int depth = 0; depth < 64; ++depth) {
    if (!pages_.contains(page)) {
      return Status::Corruption("descent reached a non-tree page");
    }
    path->push_back(page);
    SMDB_ASSIGN_OR_RETURN(PageHeader h, ReadHeader(node, page));
    if (h.is_leaf) return Status::Ok();
    Addr base = BaseOf(page);
    PageId child = h.first_child;
    for (uint32_t i = 0; i < h.nkeys; ++i) {
      uint8_t buf[kInternalEntryBytes];
      SMDB_RETURN_IF_ERROR(
          machine_->Read(node, InternalEntryAddr(base, i), buf, sizeof(buf)));
      uint64_t sep;
      std::memcpy(&sep, buf, 8);
      if (key < sep) break;
      std::memcpy(&child, buf + 8, 4);
    }
    page = child;
  }
  return Status::Corruption("B-tree deeper than 64 levels");
}

Result<uint32_t> BTree::FindEntrySlot(NodeId node, PageId leaf, uint64_t key,
                                      bool include_tombstones) const {
  // A key may briefly have both a live entry and a tombstone (a
  // transaction re-inserting a key it logically deleted allocates a fresh
  // slot rather than destroying the tombstone's committed before-image).
  // Live entries take precedence.
  uint32_t cap = leaf_capacity();
  uint32_t tomb_slot = cap;  // sentinel
  for (uint32_t slot = 0; slot < cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kFree || e.key != key) continue;
    if (e.state == LeafEntryState::kLive) return slot;
    if (tomb_slot == cap) tomb_slot = slot;
  }
  if (include_tombstones && tomb_slot != cap) return tomb_slot;
  return Status::NotFound("key not in leaf");
}

Result<uint32_t> BTree::FindFreeSlot(NodeId node, PageId leaf) {
  uint32_t cap = leaf_capacity();
  for (uint32_t slot = 0; slot < cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kFree) return slot;
  }
  // Full: purge tombstones whose deleting transaction has committed (their
  // tag is null) — the space became reusable at that commit.
  uint32_t freed = 0;
  for (uint32_t slot = 0; slot < cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kTombstone && e.tag == kTagNone) {
      LeafEntry empty;
      SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, leaf, slot, empty));
      ++freed;
      ++stats_.purged_tombstones;
    }
  }
  if (freed == 0) return Status::NotFound("leaf full");
  for (uint32_t slot = 0; slot < cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kFree) return slot;
  }
  return Status::NotFound("leaf full");
}

Status BTree::EarlyCommitStructural(NodeId node,
                                    const std::vector<PageId>& pages,
                                    const std::string& description) {
  if (!early_commit_structural_) {
    if (force_structural_pages_) {
      // Reboot semantics: no structural log records exist, so the stable DB
      // itself must stay self-consistent — flush the touched pages now. The
      // old leaf comes first in `pages`, and FlushPage's WAL gate forces the
      // log records covering the entries that moved to the new right
      // sibling before any page image lands.
      std::vector<PageId> unique_pages;
      for (PageId p : pages) {
        if (std::find(unique_pages.begin(), unique_pages.end(), p) ==
            unique_pages.end()) {
          unique_pages.push_back(p);
        }
      }
      for (PageId p : unique_pages) {
        buffers_->MarkDirty(p);
        SMDB_RETURN_IF_ERROR(buffers_->FlushPage(node, p));
        ++stats_.split_page_flushes;
      }
      return Status::Ok();
    }
    // Ablation baseline: the structural change stays volatile. The
    // resulting IFA violation is shown by
    // RecoveryEdgeTest.NoEarlyCommitLosesSplitStructure; the fuzzer's case
    // generator does not reach it.
    return Status::Ok();
  }
  // Nested top-level action: stamp the touched pages, capture their
  // post-change images as physical redo information, and force the log.
  // One log force — no page flushes — makes the new structure durable
  // before any other transaction can use it.
  StructuralPayload payload;
  payload.tree_id = tree_id_;
  payload.new_page = pages.empty() ? kInvalidPage : pages.back();
  payload.description = description;
  payload.usn = usn_->Next();
  std::vector<PageId> unique_pages;
  for (PageId p : pages) {
    if (std::find(unique_pages.begin(), unique_pages.end(), p) ==
        unique_pages.end()) {
      unique_pages.push_back(p);
    }
  }
  for (PageId p : unique_pages) {
    Addr base = BaseOf(p);
    SMDB_RETURN_IF_ERROR(machine_->Write(
        node, base + PageLayout::kPageLsnOffset, &payload.usn, 8));
    std::vector<uint8_t> image(page_size_);
    SMDB_RETURN_IF_ERROR(machine_->SnoopRead(base, image.data(),
                                             image.size()));
    payload.page_images.emplace_back(p, std::move(image));
    buffers_->MarkDirty(p);
  }
  LogRecord rec;
  rec.type = LogRecordType::kStructural;
  rec.txn = kInvalidTxn;  // nested top-level action, independent of any txn
  rec.payload = std::move(payload);
  log_->Append(node, std::move(rec));
  SMDB_RETURN_IF_ERROR(log_->Force(node, node));
  ++stats_.early_commits;
  return Status::Ok();
}

Status BTree::LogIndexOp(NodeId node, TxnId txn, IndexOpPayload payload,
                         Lsn* chain, const std::vector<LineAddr>& lines,
                         bool is_clr) {
  payload.is_clr = is_clr;
  LogRecord rec;
  rec.type = LogRecordType::kIndexOp;
  rec.txn = txn;
  rec.prev_lsn = chain != nullptr ? *chain : kInvalidLsn;
  rec.payload = payload;
  Lsn lsn = log_->Append(node, std::move(rec));
  if (chain != nullptr) *chain = lsn;
  return lbm_->OnUpdateLogged(node, lsn, lines);
}

Result<std::optional<RecordId>> BTree::Lookup(NodeId node, uint64_t key) {
  ++stats_.lookups;
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  auto slot = FindEntrySlot(node, path.back(), key,
                            /*include_tombstones=*/false);
  if (!slot.ok()) {
    if (slot.status().IsNotFound()) return std::optional<RecordId>{};
    return slot.status();
  }
  SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, path.back(), *slot));
  return std::optional<RecordId>{e.rid};
}

Status BTree::Insert(NodeId node, TxnId txn, uint64_t key, RecordId value,
                     uint16_t tag, Lsn* chain) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  PageId leaf = path.back();

  // Reuse a tombstoned entry for the same key only if the delete has
  // committed (tag cleared): an uncommitted tombstone is the undo
  // information for that delete and must stay intact, so a re-insert by
  // the same transaction takes a fresh slot.
  auto existing = FindEntrySlot(node, leaf, key, /*include_tombstones=*/true);
  bool need_fresh_slot = true;
  uint32_t slot = 0;
  if (existing.ok()) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, *existing));
    if (e.state == LeafEntryState::kLive) {
      return Status::InvalidArgument("duplicate key");
    }
    if (e.tag == kTagNone) {
      slot = *existing;
      need_fresh_slot = false;
    }
  } else if (!existing.status().IsNotFound()) {
    return existing.status();
  }
  if (need_fresh_slot) {
    auto free_slot = FindFreeSlot(node, leaf);
    if (!free_slot.ok() && free_slot.status().IsNotFound()) {
      SMDB_ASSIGN_OR_RETURN(leaf, SplitForInsert(node, path, key));
      SMDB_ASSIGN_OR_RETURN(slot, FindFreeSlot(node, leaf));
    } else if (!free_slot.ok()) {
      return free_slot.status();
    } else {
      slot = *free_slot;
    }
  }

  Addr base = BaseOf(leaf);
  LineAddr header_line = machine_->LineOf(base);
  LineAddr entry_line = machine_->LineOf(LeafEntryAddr(base, slot));
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, entry_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }

  uint64_t usn = usn_->Next();
  LeafEntry e;
  e.key = key;
  e.rid = value;
  e.state = LeafEntryState::kLive;
  e.tag = tag;
  e.usn = usn;
  Status s = WriteLeafEntry(node, leaf, slot, e);
  if (s.ok()) {
    s = machine_->Write(node, base + PageLayout::kPageLsnOffset, &usn, 8);
  }
  if (s.ok()) {
    IndexOpPayload p;
    p.tree_id = tree_id_;
    p.op = IndexOpPayload::Op::kInsert;
    p.key = key;
    p.value = value;
    p.usn = usn;
    s = LogIndexOp(node, txn, p, chain, {entry_line, header_line},
                   /*is_clr=*/false);
  }
  machine_->ReleaseLine(node, entry_line);
  machine_->ReleaseLine(node, header_line);
  SMDB_RETURN_IF_ERROR(s);
  wal_table_->NoteUpdate(leaf, node, log_->last_lsn(node));
  buffers_->MarkDirty(leaf);
  ++stats_.inserts;
  return Status::Ok();
}

Status BTree::Delete(NodeId node, TxnId txn, uint64_t key, uint16_t tag,
                     Lsn* chain, bool own_key) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  PageId leaf = path.back();
  auto slot_or = FindEntrySlot(node, leaf, key, /*include_tombstones=*/false);
  if (!slot_or.ok()) return slot_or.status();
  uint32_t slot = *slot_or;

  Addr base = BaseOf(leaf);
  LineAddr header_line = machine_->LineOf(base);
  LineAddr entry_line = machine_->LineOf(LeafEntryAddr(base, slot));
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, entry_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }

  SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
  uint64_t usn = usn_->Next();
  RecordId old_rid = e.rid;
  // Deleting the transaction's *own* uncommitted insert: the entry was
  // never visible as committed, so a tombstone (whose recovery undo is an
  // unmarking) would be wrong — unmarking must only ever resurrect
  // committed data. Remove the entry physically and log it as a redo-only
  // compensation: annulment then leaves (correctly) nothing behind.
  bool own_uncommitted = own_key && e.state == LeafEntryState::kLive &&
                         e.tag != kTagNone && e.tag == tag;
  Status s;
  if (own_uncommitted) {
    LeafEntry empty;
    s = WriteLeafEntry(node, leaf, slot, empty);
  } else {
    e.state = LeafEntryState::kTombstone;
    e.tag = tag;
    e.usn = usn;
    s = WriteLeafEntry(node, leaf, slot, e);
  }
  if (s.ok()) {
    s = machine_->Write(node, base + PageLayout::kPageLsnOffset, &usn, 8);
  }
  if (s.ok()) {
    IndexOpPayload p;
    p.tree_id = tree_id_;
    p.op = IndexOpPayload::Op::kDelete;
    p.key = key;
    p.value = old_rid;
    p.usn = usn;
    s = LogIndexOp(node, txn, p, chain, {entry_line, header_line},
                   /*is_clr=*/own_uncommitted);
  }
  machine_->ReleaseLine(node, entry_line);
  machine_->ReleaseLine(node, header_line);
  SMDB_RETURN_IF_ERROR(s);
  wal_table_->NoteUpdate(leaf, node, log_->last_lsn(node));
  buffers_->MarkDirty(leaf);
  ++stats_.deletes;
  return Status::Ok();
}

Result<PageId> BTree::SplitForInsert(NodeId node, std::vector<PageId>& path,
                                     uint64_t key) {
  PageId leaf = path.back();
  // Gather all occupied entries and sort by key to compute the separator.
  uint32_t cap = leaf_capacity();
  std::vector<LeafEntry> entries;
  for (uint32_t slot = 0; slot < cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state != LeafEntryState::kFree) entries.push_back(e);
  }
  std::sort(entries.begin(), entries.end(),
            [](const LeafEntry& a, const LeafEntry& b) {
              return a.key < b.key;
            });
  size_t half = entries.size() / 2;
  uint64_t sep = entries[half].key;

  SMDB_ASSIGN_OR_RETURN(PageHeader old_h, ReadHeader(node, leaf));
  SMDB_ASSIGN_OR_RETURN(PageId right, AllocatePage(node, true, 0));

  // Rewrite the old leaf compactly with the lower half, fill the new leaf
  // with the upper half.
  uint32_t li = 0, ri = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (entries[i].key < sep) {
      SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, leaf, li++, entries[i]));
    } else {
      SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, right, ri++, entries[i]));
    }
  }
  LeafEntry empty;
  for (uint32_t slot = li; slot < cap; ++slot) {
    SMDB_RETURN_IF_ERROR(WriteLeafEntry(node, leaf, slot, empty));
  }

  PageHeader right_h;
  right_h.page_id = right;
  right_h.is_leaf = true;
  right_h.tree_id = tree_id_;
  right_h.next_leaf = old_h.next_leaf;
  SMDB_RETURN_IF_ERROR(WriteHeader(node, right, right_h));
  old_h.next_leaf = right;
  SMDB_RETURN_IF_ERROR(WriteHeader(node, leaf, old_h));

  SMDB_RETURN_IF_ERROR(
      InsertIntoParent(node, path, path.size() >= 2 ? path.size() - 2 : 0,
                       sep, right));
  ++stats_.splits;
  std::vector<PageId> touched = {leaf, right};
  for (size_t i = 0; i + 1 < path.size(); ++i) touched.push_back(path[i]);
  touched.push_back(root_);
  SMDB_RETURN_IF_ERROR(EarlyCommitStructural(node, touched, "leaf split"));
  return key < sep ? leaf : right;
}

Status BTree::InsertIntoParent(NodeId node, std::vector<PageId>& path,
                               size_t parent_index, uint64_t sep_key,
                               PageId right_child) {
  if (path.size() == 1) {
    // Split of the root: create a new root.
    SMDB_ASSIGN_OR_RETURN(PageHeader child_h, ReadHeader(node, path[0]));
    SMDB_ASSIGN_OR_RETURN(
        PageId new_root,
        AllocatePage(node, false, static_cast<uint8_t>(child_h.level + 1)));
    PageHeader h;
    h.page_id = new_root;
    h.is_leaf = false;
    h.level = static_cast<uint8_t>(child_h.level + 1);
    h.nkeys = 1;
    h.first_child = path[0];
    h.tree_id = tree_id_;
    SMDB_RETURN_IF_ERROR(WriteHeader(node, new_root, h));
    uint8_t buf[kInternalEntryBytes];
    std::memcpy(buf, &sep_key, 8);
    std::memcpy(buf + 8, &right_child, 4);
    SMDB_RETURN_IF_ERROR(machine_->Write(
        node, InternalEntryAddr(BaseOf(new_root), 0), buf, sizeof(buf)));
    root_ = new_root;
    return Status::Ok();
  }

  PageId parent = path[parent_index];
  SMDB_ASSIGN_OR_RETURN(PageHeader h, ReadHeader(node, parent));
  if (h.nkeys >= internal_capacity()) {
    return Status::NotSupported(
        "internal-node split beyond capacity (increase page size)");
  }
  // Find insert position (keys kept sorted in internal nodes).
  Addr base = BaseOf(parent);
  uint32_t pos = 0;
  for (; pos < h.nkeys; ++pos) {
    uint8_t buf[kInternalEntryBytes];
    SMDB_RETURN_IF_ERROR(
        machine_->Read(node, InternalEntryAddr(base, pos), buf, sizeof(buf)));
    uint64_t k;
    std::memcpy(&k, buf, 8);
    if (sep_key < k) break;
  }
  // Shift entries right.
  for (uint32_t i = h.nkeys; i > pos; --i) {
    uint8_t buf[kInternalEntryBytes];
    SMDB_RETURN_IF_ERROR(machine_->Read(node, InternalEntryAddr(base, i - 1),
                                        buf, sizeof(buf)));
    SMDB_RETURN_IF_ERROR(
        machine_->Write(node, InternalEntryAddr(base, i), buf, sizeof(buf)));
  }
  uint8_t buf[kInternalEntryBytes];
  std::memcpy(buf, &sep_key, 8);
  std::memcpy(buf + 8, &right_child, 4);
  SMDB_RETURN_IF_ERROR(
      machine_->Write(node, InternalEntryAddr(base, pos), buf, sizeof(buf)));
  h.nkeys++;
  return WriteHeader(node, parent, h);
}

Status BTree::ClearTag(NodeId node, uint64_t key) {
  // A key may have both a live entry and the transaction's own tombstone;
  // commit clears the tags of every entry carrying the key.
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  PageId leaf = path.back();
  uint32_t cap = leaf_capacity();
  bool found = false;
  for (uint32_t slot = 0; slot < cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kFree || e.key != key) continue;
    found = true;
    if (e.tag == kTagNone) continue;
    Addr addr = LeafEntryAddr(BaseOf(leaf), slot);
    LineAddr line = machine_->LineOf(addr);
    SMDB_RETURN_IF_ERROR(machine_->GetLine(node, line));
    uint16_t tag = kTagNone;
    Status s = machine_->Write(node, addr + 16, &tag, 2);
    machine_->ReleaseLine(node, line);
    SMDB_RETURN_IF_ERROR(s);
  }
  return found ? Status::Ok() : Status::NotFound("no entry for key");
}

Status BTree::UndoInsert(NodeId node, TxnId txn, uint64_t key, Lsn* chain,
                         bool log_clr) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  PageId leaf = path.back();
  // Remove the *live* entry for the key (FindEntrySlot prefers live over a
  // cohabiting tombstone, whose fate belongs to UndoDelete).
  auto slot_or = FindEntrySlot(node, leaf, key, /*include_tombstones=*/false);
  if (!slot_or.ok()) {
    if (!slot_or.status().IsNotFound()) return slot_or.status();
    // Nothing to undo (the insert never became visible anywhere).
    return Status::Ok();
  }
  Addr base = BaseOf(leaf);
  LineAddr header_line = machine_->LineOf(base);
  LineAddr entry_line = machine_->LineOf(LeafEntryAddr(base, *slot_or));
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, entry_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }
  uint64_t usn = usn_->Next();
  LeafEntry empty;
  Status s = WriteLeafEntry(node, leaf, *slot_or, empty);
  if (s.ok()) {
    s = machine_->Write(node, base + PageLayout::kPageLsnOffset, &usn, 8);
  }
  if (s.ok() && log_clr) {
    IndexOpPayload p;
    p.tree_id = tree_id_;
    p.op = IndexOpPayload::Op::kDelete;  // compensation for the insert
    p.key = key;
    p.usn = usn;
    s = LogIndexOp(node, txn, p, chain, {entry_line, header_line},
                   /*is_clr=*/true);
  }
  machine_->ReleaseLine(node, entry_line);
  machine_->ReleaseLine(node, header_line);
  SMDB_RETURN_IF_ERROR(s);
  wal_table_->NoteUpdate(leaf, node, log_->last_lsn(node));
  buffers_->MarkDirty(leaf);
  return Status::Ok();
}

Status BTree::UndoDelete(NodeId node, TxnId txn, uint64_t key, Lsn* chain,
                         bool log_clr) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  PageId leaf = path.back();
  // Unmark specifically the tombstoned entry (a live entry for the same
  // key may coexist while its inserting transaction is active).
  uint32_t cap = leaf_capacity();
  uint32_t found = cap;
  for (uint32_t slot = 0; slot < cap && found == cap; ++slot) {
    SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, slot));
    if (e.state == LeafEntryState::kTombstone && e.key == key) found = slot;
  }
  if (found == cap) return Status::NotFound("no tombstone for key");
  Result<uint32_t> slot_or = found;
  Addr base = BaseOf(leaf);
  LineAddr header_line = machine_->LineOf(base);
  LineAddr entry_line = machine_->LineOf(LeafEntryAddr(base, *slot_or));
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status st = machine_->GetLine(node, entry_line);
  if (!st.ok()) {
    machine_->ReleaseLine(node, header_line);
    return st;
  }
  SMDB_ASSIGN_OR_RETURN(LeafEntry e, ReadLeafEntry(node, leaf, *slot_or));
  uint64_t usn = usn_->Next();
  e.state = LeafEntryState::kLive;  // "unmark" the logically deleted record
  e.tag = kTagNone;
  e.usn = usn;
  Status s = WriteLeafEntry(node, leaf, *slot_or, e);
  if (s.ok()) {
    s = machine_->Write(node, base + PageLayout::kPageLsnOffset, &usn, 8);
  }
  if (s.ok() && log_clr) {
    IndexOpPayload p;
    p.tree_id = tree_id_;
    p.op = IndexOpPayload::Op::kInsert;  // compensation for the delete
    p.key = key;
    p.value = e.rid;
    p.usn = usn;
    s = LogIndexOp(node, txn, p, chain, {entry_line, header_line},
                   /*is_clr=*/true);
  }
  machine_->ReleaseLine(node, entry_line);
  machine_->ReleaseLine(node, header_line);
  SMDB_RETURN_IF_ERROR(s);
  wal_table_->NoteUpdate(leaf, node, log_->last_lsn(node));
  buffers_->MarkDirty(leaf);
  return Status::Ok();
}

Result<LineAddr> BTree::LineOfKey(NodeId node, uint64_t key) {
  std::vector<PageId> path;
  SMDB_RETURN_IF_ERROR(DescendToLeaf(node, key, &path));
  SMDB_ASSIGN_OR_RETURN(
      uint32_t slot,
      FindEntrySlot(node, path.back(), key, /*include_tombstones=*/true));
  return machine_->LineOf(LeafEntryAddr(BaseOf(path.back()), slot));
}

}  // namespace smdb
