#ifndef SMDB_DB_WAL_TABLE_H_
#define SMDB_DB_WAL_TABLE_H_

#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/types.h"

namespace smdb {

/// The shared-memory (page, LSN) table of section 6, used to enforce WAL
/// under the Volatile LBM policy: "Each updating node remembers an LSN equal
/// to its last update to page p. Page p can be written to the StableDB only
/// after all nodes which have updated p have forced their logs up to this
/// LSN."
///
/// Each node writes only its own column, so the table itself poses no
/// recovery problem: a crashed node's column is simply reinitialised
/// (OnNodeCrash) — its relevant log records were either forced (and the gate
/// satisfied) or lost with the updates they covered.
class WalTable {
 public:
  explicit WalTable(uint16_t num_nodes) : num_nodes_(num_nodes) {}

  /// Records that `node` updated `page` with a log record at `lsn`. The
  /// requirement only grows: an older LSN never lowers it.
  void NoteUpdate(PageId page, NodeId node, Lsn lsn);

  /// (node, lsn) pairs that must be stable before `page` may be flushed.
  std::vector<std::pair<NodeId, Lsn>> Requirements(PageId page) const;

  /// Clears all requirements for `page` (after a successful flush).
  void ClearPage(PageId page);

  /// Reinitialises `node`'s column after its crash.
  void OnNodeCrash(NodeId node);

 private:
  uint16_t num_nodes_;
  HashMap<PageId, std::vector<Lsn>> rows_;
};

}  // namespace smdb

#endif  // SMDB_DB_WAL_TABLE_H_
