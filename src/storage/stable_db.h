#ifndef SMDB_STORAGE_STABLE_DB_H_
#define SMDB_STORAGE_STABLE_DB_H_

#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/disk.h"

namespace smdb {

/// The stable database: the durable home of all pages (heap and index),
/// kept on shared disks. With the no-force/steal buffer policy the stable
/// database may be both behind (committed updates not yet propagated) and
/// ahead (stolen uncommitted updates propagated) of the committed state —
/// the combinations restart recovery must handle.
class StableDb {
 public:
  StableDb(Disk* disk) : disk_(disk) {}  // NOLINT: thin adapter

  uint32_t page_size() const { return disk_->page_size(); }

  Status ReadPage(NodeId node, PageId page, std::vector<uint8_t>* out) {
    return disk_->ReadPage(node, page, out);
  }

  Status WritePage(NodeId node, PageId page,
                   const std::vector<uint8_t>& data) {
    return disk_->WritePage(node, page, data);
  }

  bool Exists(PageId page) const { return disk_->Exists(page); }

  /// No-cost read-only view of the durable bytes (digests/oracles).
  const std::vector<uint8_t>* Peek(PageId page) const {
    return disk_->Peek(page);
  }

  /// Allocates a fresh page id.
  PageId AllocatePageId() { return next_page_++; }

  uint64_t reads() const { return disk_->reads(); }
  uint64_t pages_read() const { return disk_->pages_read(); }
  uint64_t writes() const { return disk_->writes(); }

 private:
  Disk* disk_;
  PageId next_page_ = 1;
};

}  // namespace smdb

#endif  // SMDB_STORAGE_STABLE_DB_H_
