#include "sim/line_lock.h"

#include <algorithm>

namespace smdb {

SimTime LineLockTable::Acquire(LineAddr line, NodeId node, SimTime now) {
  LockState& st = locks_[line];
  SimTime grant = std::max(now, st.free_at);
  st.holder = node;
  // Until released, the lock is logically unavailable; free_at is updated on
  // Release. Setting it to the grant time keeps back-to-back acquisitions by
  // distinct nodes strictly ordered even if the holder never releases (which
  // would be a bug the tests catch via HeldBy).
  st.free_at = grant;
  return grant;
}

void LineLockTable::Release(LineAddr line, NodeId node, SimTime now) {
  auto it = locks_.find(line);
  if (it == locks_.end() || it->second.holder != node) return;
  it->second.holder = kInvalidNode;
  it->second.free_at = std::max(it->second.free_at, now);
}

bool LineLockTable::HeldBy(LineAddr line, NodeId node) const {
  auto it = locks_.find(line);
  return it != locks_.end() && it->second.holder == node;
}

std::vector<LineAddr> LineLockTable::ReleaseAllHeldBy(NodeId node,
                                                      SimTime now) {
  std::vector<LineAddr> released;
  for (auto& [line, st] : locks_) {
    if (st.holder == node) {
      st.holder = kInvalidNode;
      st.free_at = std::max(st.free_at, now);
      released.push_back(line);
    }
  }
  return released;
}

}  // namespace smdb
