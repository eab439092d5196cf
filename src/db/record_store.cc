#include "db/record_store.h"

#include <cassert>

#include "sim/machine.h"

namespace smdb {

RecordStore::RecordStore(Machine* machine, BufferManager* buffers,
                         PageLayout layout)
    : machine_(machine), buffers_(buffers), layout_(layout) {}

Result<std::vector<RecordId>> RecordStore::CreateTable(NodeId node,
                                                       size_t nrecords) {
  std::vector<RecordId> rids;
  rids.reserve(nrecords);
  size_t remaining = nrecords;
  while (remaining > 0) {
    // Format a fresh page; CreatePage assigns the id, so format with a
    // placeholder and patch after allocation (the id in the header is
    // diagnostic only).
    std::vector<uint8_t> image = layout_.FormatPage(0);
    SMDB_ASSIGN_OR_RETURN(PageId page, buffers_->CreatePage(node, image));
    pages_.insert(page);
    page_list_.push_back(page);
    uint16_t in_page = static_cast<uint16_t>(
        std::min<size_t>(remaining, layout_.slots_per_page()));
    for (uint16_t s = 0; s < in_page; ++s) {
      rids.push_back(RecordId{page, s});
    }
    remaining -= in_page;
  }
  return rids;
}

Addr RecordStore::SlotAddr(RecordId rid) const {
  auto base = buffers_->BaseOf(rid.page);
  assert(base.ok());
  return *base + layout_.SlotOffset(rid.slot);
}

LineAddr RecordStore::SlotLine(RecordId rid) const {
  return machine_->LineOf(SlotAddr(rid));
}

LineAddr RecordStore::HeaderLine(PageId page) const {
  auto base = buffers_->BaseOf(page);
  assert(base.ok());
  return machine_->LineOf(*base);
}

std::vector<RecordId> RecordStore::SlotsInLine(LineAddr line) const {
  std::vector<RecordId> out;
  Addr addr = machine_->AddrOfLine(line);
  auto page = buffers_->ResolveAddr(addr);
  if (!page.has_value() || !OwnsPage(*page)) return out;
  auto base = buffers_->BaseOf(*page);
  assert(base.ok());
  uint32_t line_index =
      static_cast<uint32_t>((addr - *base) / layout_.line_size());
  for (uint16_t slot : layout_.SlotsInLineIndex(line_index)) {
    out.push_back(RecordId{*page, slot});
  }
  return out;
}

Result<SlotImage> RecordStore::ReadSlot(NodeId node, RecordId rid) const {
  std::vector<uint8_t> buf(layout_.slot_bytes());
  SMDB_RETURN_IF_ERROR(
      machine_->Read(node, SlotAddr(rid), buf.data(), buf.size()));
  return layout_.DecodeSlotBuf(buf.data());
}

Result<SlotImage> RecordStore::SnoopSlot(RecordId rid) const {
  std::vector<uint8_t> buf(layout_.slot_bytes());
  SMDB_RETURN_IF_ERROR(
      machine_->SnoopRead(SlotAddr(rid), buf.data(), buf.size()));
  return layout_.DecodeSlotBuf(buf.data());
}

Status RecordStore::WriteSlot(NodeId node, RecordId rid,
                              const SlotImage& img) {
  std::vector<uint8_t> buf(layout_.slot_bytes());
  layout_.EncodeSlot(img, buf.data());
  return machine_->Write(node, SlotAddr(rid), buf.data(), buf.size());
}

Status RecordStore::WriteTag(NodeId node, RecordId rid, uint16_t tag) {
  // Tag field sits at offset 8 within the slot.
  return machine_->Write(node, SlotAddr(rid) + 8, &tag, sizeof(tag));
}

Status RecordStore::ClearTag(NodeId node, RecordId rid) {
  LineAddr line = SlotLine(rid);
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, line));
  Status s = WriteTag(node, rid, kTagNone);
  machine_->ReleaseLine(node, line);
  return s;
}

Status RecordStore::InstallSlot(
    NodeId node, RecordId rid, SlotImage img, UsnSource* fresh,
    SlotImage* before, const std::function<Status(uint64_t usn)>& in_section) {
  LineAddr header_line = HeaderLine(rid.page);
  LineAddr record_line = SlotLine(rid);
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, header_line));
  Status s = machine_->GetLine(node, record_line);
  if (!s.ok()) {
    machine_->ReleaseLine(node, header_line);
    return s;
  }
  if (before != nullptr) {
    Result<SlotImage> cur = ReadSlot(node, rid);
    if (cur.ok()) {
      *before = std::move(*cur);
    } else {
      s = cur.status();
    }
  }
  if (s.ok()) {
    if (fresh != nullptr) img.usn = fresh->Next();
    s = WriteSlot(node, rid, img);
  }
  if (s.ok()) s = WritePageLsn(node, rid.page, img.usn);
  if (s.ok() && in_section) s = in_section(img.usn);
  machine_->ReleaseLine(node, record_line);
  machine_->ReleaseLine(node, header_line);
  return s;
}

Status RecordStore::WritePageLsn(NodeId node, PageId page, uint64_t usn) {
  auto base = buffers_->BaseOf(page);
  if (!base.ok()) return base.status();
  return machine_->Write(node, *base + PageLayout::kPageLsnOffset, &usn,
                         sizeof(usn));
}

}  // namespace smdb
