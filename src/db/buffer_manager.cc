#include "db/buffer_manager.h"

#include "sim/machine.h"

namespace smdb {

BufferManager::BufferManager(Machine* machine, StableDb* stable_db,
                             LogManager* log, WalTable* wal_table)
    : machine_(machine),
      stable_db_(stable_db),
      log_(log),
      wal_table_(wal_table) {}

Result<PageId> BufferManager::CreatePage(NodeId node,
                                         const std::vector<uint8_t>& initial) {
  if (initial.size() != page_size()) {
    return Status::InvalidArgument("initial image has wrong size");
  }
  PageId page = stable_db_->AllocatePageId();
  Addr base = machine_->AllocShared(page_size());
  machine_->InstallToMemory(base, initial.data(), initial.size());
  SMDB_RETURN_IF_ERROR(stable_db_->WritePage(node, page, initial));
  frames_[page] = base;
  by_addr_[base] = page;
  return page;
}

Result<Addr> BufferManager::BaseOf(PageId page) const {
  auto it = frames_.find(page);
  if (it == frames_.end()) return Status::NotFound("unknown page");
  return it->second;
}

std::optional<PageId> BufferManager::ResolveAddr(Addr addr) const {
  auto it = by_addr_.upper_bound(addr);
  if (it == by_addr_.begin()) return std::nullopt;
  --it;
  if (addr < it->first + page_size()) return it->second;
  return std::nullopt;
}

std::vector<PageId> BufferManager::DirtyPages() const {
  return {dirty_.begin(), dirty_.end()};
}

Status BufferManager::FlushPage(NodeId node, PageId page) {
  auto it = frames_.find(page);
  if (it == frames_.end()) return Status::NotFound("unknown page");
  const Addr base = it->second;

  // WAL gate (section 6): every node that updated this page must have its
  // log stable through its last update LSN for the page.
  for (const auto& [n, lsn] : wal_table_->Requirements(page)) {
    if (!log_->IsStable(n, lsn)) {
      if (!machine_->NodeAlive(n)) {
        // The updates covered by the missing log records died with the
        // node; flushing would persist unrecoverable uncommitted state.
        return Status::NodeFailed("WAL gate: updater crashed with tail");
      }
      SMDB_RETURN_IF_ERROR(log_->Force(node, n));
      ++wal_gate_forces_;
    }
  }

  std::vector<uint8_t> image(page_size());
  SMDB_RETURN_IF_ERROR(machine_->SnoopRead(base, image.data(), image.size()));
  SMDB_RETURN_IF_ERROR(stable_db_->WritePage(node, page, image));
  if (dirty_.erase(page) > 0) ++steal_flushes_;
  wal_table_->ClearPage(page);
  return Status::Ok();
}

Status BufferManager::ReadStableImage(NodeId node, PageId page,
                                      std::vector<uint8_t>* out) {
  return stable_db_->ReadPage(node, page, out);
}

Status BufferManager::ReinstallPage(NodeId node, PageId page,
                                    std::vector<uint8_t>* image) {
  auto it = frames_.find(page);
  if (it == frames_.end()) return Status::NotFound("unknown page");
  const Addr base = it->second;
  SMDB_RETURN_IF_ERROR(stable_db_->ReadPage(node, page, image));
  machine_->InstallToMemory(base, image->data(), image->size());
  return Status::Ok();
}

Result<int> BufferManager::ReinstallLostLines(NodeId node, PageId page,
                                              std::vector<uint8_t>* image) {
  auto it = frames_.find(page);
  if (it == frames_.end()) return Status::NotFound("unknown page");
  const Addr base = it->second;
  uint32_t line_size = machine_->line_size();
  uint32_t lines = page_size() / line_size;

  // First check whether any line is lost, to avoid a disk read otherwise.
  bool any_lost = false;
  for (uint32_t i = 0; i < lines && !any_lost; ++i) {
    any_lost = machine_->IsLineLost(machine_->LineOf(base) + i);
  }
  if (!any_lost) return 0;

  SMDB_RETURN_IF_ERROR(stable_db_->ReadPage(node, page, image));
  int installed = 0;
  for (uint32_t i = 0; i < lines; ++i) {
    LineAddr line = machine_->LineOf(base) + i;
    if (!machine_->IsLineLost(line)) continue;
    machine_->InstallToMemory(base + static_cast<Addr>(i) * line_size,
                              image->data() + i * line_size, line_size);
    ++installed;
  }
  return installed;
}

}  // namespace smdb
