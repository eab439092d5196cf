#ifndef SMDB_DB_BUFFER_MANAGER_H_
#define SMDB_DB_BUFFER_MANAGER_H_

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "db/wal_table.h"
#include "storage/stable_db.h"
#include "wal/log_manager.h"

namespace smdb {

class Machine;

/// Manages database pages resident in shared memory under a
/// **no-force/steal** policy (section 2):
///   * no-force — committing a transaction does not flush its pages; redo
///     may therefore be needed for committed transactions at restart.
///   * steal — a dirty page holding uncommitted updates may be flushed
///     before commit (StealFlush); WAL guarantees the undo information is
///     stable first, so undo may be needed at restart.
///
/// Pages live permanently in shared memory (memory *is* the buffer pool in
/// an SM machine); the stable database on disk is their durable home. The
/// flush path enforces the write-ahead rule with the shared-memory
/// (page, LSN) table of section 6.
class BufferManager {
 public:
  BufferManager(Machine* machine, StableDb* stable_db, LogManager* log,
                WalTable* wal_table);

  /// Creates a page: allocates its shared-memory frame, installs `initial`
  /// and writes it to the stable database. `node` pays the I/O.
  Result<PageId> CreatePage(NodeId node, const std::vector<uint8_t>& initial);

  /// Shared-memory base address of `page`.
  Result<Addr> BaseOf(PageId page) const;

  /// Page whose frame covers `addr`, if any.
  std::optional<PageId> ResolveAddr(Addr addr) const;

  void MarkDirty(PageId page) {
    dirty_.insert(page);
  }
  bool IsDirty(PageId page) const {
    return dirty_.contains(page);
  }
  /// Dirty pages in ascending PageId order.
  std::vector<PageId> DirtyPages() const;

  /// Flushes `page` to the stable database, first forcing every log the WAL
  /// table requires. Used both by checkpoints and by steal flushes.
  Status FlushPage(NodeId node, PageId page);

  /// Reads the current stable (disk) image of `page`.
  Status ReadStableImage(NodeId node, PageId page, std::vector<uint8_t>* out);

  /// Re-installs the stable image of `page` into memory wholesale (Redo All
  /// and whole-machine restart paths). The image read lands in `image`.
  Status ReinstallPage(NodeId node, PageId page, std::vector<uint8_t>* image);

  /// Re-installs from the stable image only those lines of `page` that were
  /// lost in a crash, preserving surviving lines (Selective Redo path).
  /// Returns the number of lines re-installed; when it is nonzero, the image
  /// read lands in `image` (no line lost means no read).
  Result<int> ReinstallLostLines(NodeId node, PageId page,
                                 std::vector<uint8_t>* image);

  uint32_t page_size() const { return stable_db_->page_size(); }
  uint64_t steal_flushes() const { return steal_flushes_; }
  uint64_t wal_gate_forces() const { return wal_gate_forces_; }

 private:
  Machine* machine_;
  StableDb* stable_db_;
  LogManager* log_;
  WalTable* wal_table_;

  HashMap<PageId, Addr> frames_;
  std::map<Addr, PageId> by_addr_;  // frame base -> page, for ResolveAddr
  std::set<PageId> dirty_;  // ordered: steal victims and checkpoints iterate it
  uint64_t steal_flushes_ = 0;
  uint64_t wal_gate_forces_ = 0;
};

}  // namespace smdb

#endif  // SMDB_DB_BUFFER_MANAGER_H_
