#ifndef SMDB_STORAGE_DISK_H_
#define SMDB_STORAGE_DISK_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"

namespace smdb {

class Machine;

/// A shared stable-storage disk. In the paper's system model (figure 1)
/// every node is connected to all disks; contents survive any number of node
/// crashes and whole-machine reboots. I/O costs are charged to the clock of
/// the node that issues the request.
class Disk {
 public:
  Disk(Machine* machine, uint32_t page_size);

  uint32_t page_size() const { return page_size_; }

  /// Reads `page` into `out` (page_size bytes). NotFound if never written.
  Status ReadPage(NodeId node, PageId page, std::vector<uint8_t>* out);

  /// Writes `data` (page_size bytes) to `page`.
  Status WritePage(NodeId node, PageId page, const std::vector<uint8_t>& data);

  bool Exists(PageId page) const { return pages_.contains(page); }

  /// Read-only view of a page's durable bytes — no machine access, no cost
  /// (verification oracles and state digests). nullptr if never written.
  const std::vector<uint8_t>* Peek(PageId page) const {
    auto it = pages_.find(page);
    return it == pages_.end() ? nullptr : &it->second;
  }

  uint64_t reads() const { return reads_; }
  /// Distinct pages read at least once; below reads() when a page was
  /// read again.
  uint64_t pages_read() const { return pages_read_.size(); }
  uint64_t writes() const { return writes_; }

 private:
  Machine* machine_;
  uint32_t page_size_;
  HashMap<PageId, std::vector<uint8_t>> pages_;
  uint64_t reads_ = 0;
  HashSet<PageId> pages_read_;
  uint64_t writes_ = 0;
};

}  // namespace smdb

#endif  // SMDB_STORAGE_DISK_H_
