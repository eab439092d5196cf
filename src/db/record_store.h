#ifndef SMDB_DB_RECORD_STORE_H_
#define SMDB_DB_RECORD_STORE_H_

#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "db/buffer_manager.h"
#include "db/page_layout.h"

namespace smdb {

class Machine;

/// Fixed-size-record heap storage over shared-memory pages.
///
/// RecordStore provides raw coherent slot access and the addressing the
/// recovery protocols need (slot <-> line resolution, undo-tag scans). It
/// performs no locking and no logging itself: the update *protocol*
/// (record lock, line locks on the Page-LSN line and the record line,
/// in-place write, LBM logging — sections 5.1 and 6) is orchestrated by the
/// transaction layer.
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

  /// Writes only the undo tag field of a slot (used when commit clears the
  /// tags of the transaction's records).
  Status WriteTag(NodeId node, RecordId rid, uint16_t tag);

  /// Updates the Page-LSN in the page's first cache line.
  Status WritePageLsn(NodeId node, PageId page, uint64_t usn);

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
