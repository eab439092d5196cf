#include "sim/directory.h"

namespace smdb {

DirEntry& Directory::GetOrCreate(LineAddr line, NodeId home,
                                 uint32_t line_size) {
  auto [it, inserted] = entries_.try_emplace(line);
  if (inserted) {
    it->second.home = home;
    it->second.mem_data.assign(line_size, 0);
    it->second.mem_valid = true;  // zero-filled fresh memory is "current"
  }
  return it->second;
}

DirEntry* Directory::Find(LineAddr line) {
  auto it = entries_.find(line);
  return it == entries_.end() ? nullptr : &it->second;
}

const DirEntry* Directory::Find(LineAddr line) const {
  auto it = entries_.find(line);
  return it == entries_.end() ? nullptr : &it->second;
}

void Directory::ForEach(
    const std::function<void(LineAddr, DirEntry&)>& fn) {
  for (auto& [addr, entry] : entries_) fn(addr, entry);
}

}  // namespace smdb
