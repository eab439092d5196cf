#include "sim/cache.h"

namespace smdb {

Cache::Entry* Cache::Find(LineAddr line) {
  auto it = lines_.find(line);
  return it == lines_.end() ? nullptr : &it->second;
}

const Cache::Entry* Cache::Find(LineAddr line) const {
  auto it = lines_.find(line);
  return it == lines_.end() ? nullptr : &it->second;
}

Cache::Entry& Cache::Insert(LineAddr line, LineState state,
                            const std::vector<uint8_t>& data) {
  Entry& e = lines_[line];
  e.state = state;
  e.data = data;
  e.data.resize(line_size_, 0);
  return e;
}

void Cache::Erase(LineAddr line) {
  lines_.erase(line);
}

void Cache::Clear() { lines_.clear(); }

void Cache::ForEachLine(
    const std::function<void(LineAddr, const Entry&)>& fn) const {
  for (const auto& [addr, entry] : lines_) fn(addr, entry);
}

}  // namespace smdb
