#include "db/wal_table.h"

#include <algorithm>

namespace smdb {

void WalTable::NoteUpdate(PageId page, NodeId node, Lsn lsn) {
  auto& row = rows_[page];
  if (row.empty()) row.assign(num_nodes_, kInvalidLsn);
  // Keep the largest LSN: restart redo re-notes older records, and a
  // lowered requirement would let a flush skip forcing a newer update.
  row[node] = std::max(row[node], lsn);
}

std::vector<std::pair<NodeId, Lsn>> WalTable::Requirements(
    PageId page) const {
  std::vector<std::pair<NodeId, Lsn>> out;
  auto it = rows_.find(page);
  if (it == rows_.end()) return out;
  for (NodeId n = 0; n < num_nodes_; ++n) {
    if (it->second[n] != kInvalidLsn) out.emplace_back(n, it->second[n]);
  }
  return out;
}

void WalTable::ClearPage(PageId page) {
  rows_.erase(page);
}

void WalTable::OnNodeCrash(NodeId node) {
  for (auto& [page, row] : rows_) {
    (void)page;
    if (!row.empty()) row[node] = kInvalidLsn;
  }
}

}  // namespace smdb
