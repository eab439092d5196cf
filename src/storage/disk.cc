#include "storage/disk.h"

#include "sim/machine.h"

namespace smdb {

Disk::Disk(Machine* machine, uint32_t page_size)
    : machine_(machine), page_size_(page_size) {}

Status Disk::ReadPage(NodeId node, PageId page, std::vector<uint8_t>* out) {
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    return Status::NotFound("page " + std::to_string(page));
  }
  *out = it->second;
  ++reads_;
  pages_read_.insert(page);
  machine_->Tick(node, machine_->config().timing.disk_read_ns);
  return Status::Ok();
}

Status Disk::WritePage(NodeId node, PageId page,
                       const std::vector<uint8_t>& data) {
  if (data.size() != page_size_) {
    return Status::InvalidArgument("bad page size");
  }
  pages_[page] = data;
  ++writes_;
  machine_->Tick(node, machine_->config().timing.disk_write_ns);
  return Status::Ok();
}

}  // namespace smdb
