#ifndef SMDB_DB_RECORD_STORE_H_
#define SMDB_DB_RECORD_STORE_H_

#include <functional>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "core/protocol.h"
#include "db/buffer_manager.h"
#include "db/page_layout.h"

namespace smdb {

class Machine;

/// Fixed-size-record heap storage over shared-memory pages.
///
/// RecordStore provides raw coherent slot access, the addressing the
/// recovery protocols need (slot <-> line resolution, undo-tag scans) and
/// the line-locked slot install every record write goes through. It takes
/// no record locks and writes no log records itself: the caller's log
/// append runs inside the install's critical section.
class RecordStore {
 public:
  RecordStore(Machine* machine, BufferManager* buffers, PageLayout layout);

  /// Creates `nrecords` zero-initialised records, allocating pages as
  /// needed, and returns their ids in order.
  Result<std::vector<RecordId>> CreateTable(NodeId node, size_t nrecords);

  const PageLayout& layout() const { return layout_; }

  /// True if `page` belongs to this record store.
  bool OwnsPage(PageId page) const { return pages_.contains(page); }
  const std::vector<PageId>& pages() const { return page_list_; }

  // ----------------------------------------------------------------------
  // Addressing.

  Addr SlotAddr(RecordId rid) const;
  LineAddr SlotLine(RecordId rid) const;
  LineAddr HeaderLine(PageId page) const;

  /// Record ids whose slots live in cache line `line` (empty if the line is
  /// not a data line of one of this store's pages).
  std::vector<RecordId> SlotsInLine(LineAddr line) const;

  // ----------------------------------------------------------------------
  // Coherent access (charged to `node`).

  Result<SlotImage> ReadSlot(NodeId node, RecordId rid) const;
  Status WriteSlot(NodeId node, RecordId rid, const SlotImage& img);

  /// Reads a slot via snooping: no cost, no state change (verification
  /// oracles). Fails with LineLost if the slot's line has no surviving
  /// copy.
  Result<SlotImage> SnoopSlot(RecordId rid) const;

  /// Writes only the undo tag field of a slot.
  Status WriteTag(NodeId node, RecordId rid, uint16_t tag);

  /// Updates the Page-LSN in the page's first cache line.
  Status WritePageLsn(NodeId node, PageId page, uint64_t usn);

  /// The ordered-update write of section 6, the one place its machine
  /// sequence lives. Takes the Page-LSN (header) line, then the record
  /// line, releasing the header line if the second GetLine fails. Reads
  /// the slot's current image into `before` when it is set; draws img.usn
  /// from `fresh` when that is set; writes the slot and Page-LSN = img.usn;
  /// runs `in_section` (an update's or CLR's log append and LBM hook) with
  /// that USN while both lines are held; then releases the record line and
  /// the header line.
  Status InstallSlot(
      NodeId node, RecordId rid, SlotImage img, UsnSource* fresh = nullptr,
      SlotImage* before = nullptr,
      const std::function<Status(uint64_t usn)>& in_section = nullptr);

  /// Clears the slot's undo tag under its record line's line lock.
  Status ClearTag(NodeId node, RecordId rid);

  /// Reads a slot from a stable page image previously fetched from disk.
  SlotImage DecodeStableSlot(const std::vector<uint8_t>& page_image,
                             uint16_t slot) const {
    return layout_.DecodeSlot(page_image, slot);
  }

 private:
  Machine* machine_;
  BufferManager* buffers_;
  PageLayout layout_;
  HashSet<PageId> pages_;
  std::vector<PageId> page_list_;
};

}  // namespace smdb

#endif  // SMDB_DB_RECORD_STORE_H_
