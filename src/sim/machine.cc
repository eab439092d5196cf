#include "sim/machine.h"

#include <algorithm>
#include <cassert>


namespace smdb {

Machine::Machine(MachineConfig config, Instruments* inst)
    : config_(config), inst_(inst) {
  assert(config_.num_nodes > 0 && config_.num_nodes <= kMaxNodes);
  alive_.assign(config_.num_nodes, true);
  clocks_.assign(config_.num_nodes, 0);
}

void Machine::Grow(LineAddr end) {
  if (end <= lines_.size()) return;
  LineAddr first = lines_.size();
  lines_.resize(end);
  for (LineAddr line = first; line < end; ++line) {
    lines_[line].home = static_cast<NodeId>(line % config_.num_nodes);
  }
  images_.resize(2 * end * config_.line_size, 0);
}

LineEntry& Machine::Entry(LineAddr line) {
  Grow(line + 1);
  LineEntry& e = lines_[line];
  if (!e.created) {
    e.created = true;
    e.mem_valid = true;  // zero-filled fresh memory is "current"
  }
  return e;
}

Addr Machine::AllocShared(size_t bytes) {
  Addr start = next_addr_;
  size_t lines = (bytes + config_.line_size - 1) / config_.line_size;
  next_addr_ += lines * config_.line_size;
  Grow(LineOf(next_addr_));
  return start;
}

Addr Machine::AllocLocal(NodeId node, size_t bytes) {
  Addr start = AllocShared(bytes);
  for (LineAddr line = LineOf(start); line < LineOf(next_addr_); ++line) {
    lines_[line].home = node;
  }
  return start;
}

NodeId Machine::HomeOf(LineAddr line) const {
  if (line < lines_.size()) return lines_[line].home;
  return static_cast<NodeId>(line % config_.num_nodes);
}

const uint8_t* Machine::CurrentData(LineAddr line) const {
  const LineEntry& e = lines_[line];
  if (e.lost) return nullptr;
  // Every valid cached copy holds the same bytes (see LineEntry).
  if (e.sharers != 0) return CachedImage(line);
  if (e.mem_valid) return MemImage(line);
  return nullptr;
}

void Machine::FireCoherence(CoherenceEvent::Kind kind, LineAddr line,
                            NodeId from, NodeId to, bool active_bit) {
  if (coherence_hooks_.empty()) return;
  CoherenceEvent ev{kind, line, from, to, active_bit};
  for (const auto& hook : coherence_hooks_) hook(ev);
}

Status Machine::ReadLine(NodeId node, LineAddr line, const uint8_t** data) {
  if (!alive_[node]) return Status::NodeFailed("read from crashed node");
  LineEntry& e = Entry(line);
  if (e.lost) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("read of lost line");
  }
  if (e.cached_by(node)) {
    ++stats_.local_hits;
    Tick(node, config_.timing.cache_hit_ns);
    *data = CachedImage(line);
    return Status::Ok();
  }
  // Miss. Find the current data. The whole miss service (downgrades,
  // remote transfers, memory fetches) is coherence traffic for the
  // profiler's phase accounting.
  ProfScope coherence(inst_, ProfPhase::kCoherence);
  if (e.owner != kInvalidNode && e.owner != node) {
    // Exclusive at a remote cache: downgrade it to shared (wr sharing —
    // history H_wr). The hook fires before the transfer completes so Stable
    // LBM can force the departing node's log.
    FireCoherence(CoherenceEvent::Kind::kDowngrade, line, e.owner, node,
                  e.active_bit);
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kDowngrade,
                      .node = node,
                      .peer = e.owner,
                      .ts = NodeClock(node),
                      .a = line});
    e.owner = kInvalidNode;
    e.sharers |= (1ULL << node);
    ++stats_.downgrades;
    ++stats_.remote_transfers;
    if (e.last_writer != kInvalidNode && e.last_writer != node) {
      ++stats_.replications;
      SMDB_EMIT(inst_, {.kind = TraceEventKind::kReplication,
                        .node = node,
                        .peer = e.last_writer,
                        .ts = NodeClock(node),
                        .a = line});
    }
    Tick(node, config_.timing.remote_transfer_ns);
  } else if (e.sharers != 0) {
    // Shared at one or more remote caches: copy from one of them.
    e.sharers |= (1ULL << node);
    ++stats_.remote_transfers;
    if (e.last_writer != kInvalidNode && e.last_writer != node) {
      ++stats_.replications;
      SMDB_EMIT(inst_, {.kind = TraceEventKind::kReplication,
                        .node = node,
                        .peer = e.last_writer,
                        .ts = NodeClock(node),
                        .a = line});
    }
    Tick(node, config_.timing.remote_transfer_ns);
  } else if (e.mem_valid) {
    std::memcpy(CachedImage(line), MemImage(line), config_.line_size);
    e.sharers |= (1ULL << node);
    ++stats_.memory_fetches;
    Tick(node, config_.timing.memory_access_ns);
  } else {
    // No cached copy and stale/absent memory: only reachable after a crash,
    // and such lines are flagged lost during low-level recovery.
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("no valid copy");
  }
  *data = CachedImage(line);
  return Status::Ok();
}

Status Machine::AcquireExclusive(NodeId node, LineAddr line,
                                 bool for_line_lock) {
  if (!alive_[node]) return Status::NodeFailed("access from crashed node");
  LineEntry& e = Entry(line);
  if (e.lost) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("exclusive request for lost line");
  }
  if (e.owner == node) {
    Tick(node, config_.timing.cache_hit_ns);
    return Status::Ok();  // already exclusive here
  }

  // Fetch current data if we do not hold a valid copy. From here on
  // (fetch, invalidations, migration) is coherence miss service.
  ProfScope coherence(inst_, ProfPhase::kCoherence);
  SimTime cost = 0;
  if (e.cached_by(node)) {
    cost = config_.timing.cache_hit_ns;
  } else if (CurrentData(line) == nullptr) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("no valid copy");
  } else if (e.sharers != 0) {
    cost = config_.timing.remote_transfer_ns;
    ++stats_.remote_transfers;
  } else {
    std::memcpy(CachedImage(line), MemImage(line), config_.line_size);
    cost = config_.timing.memory_access_ns;
    ++stats_.memory_fetches;
  }

  // Invalidate every other copy (write-invalidate semantics; getline does
  // this under either coherence protocol since it needs mutual exclusion).
  uint64_t others = e.sharers & ~(1ULL << node);
  bool migrated = false;
  while (others != 0) {
    NodeId s = static_cast<NodeId>(__builtin_ctzll(others));
    others &= others - 1;
    FireCoherence(CoherenceEvent::Kind::kInvalidate, line, s, node,
                  e.active_bit);
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kInvalidation,
                      .node = node,
                      .peer = s,
                      .ts = NodeClock(node),
                      .a = line});
    ++stats_.invalidations;
    if (e.last_writer == s && s != node) migrated = true;
    Tick(node, config_.timing.cpu_op_ns);
  }
  if (e.last_writer != kInvalidNode && e.last_writer != node &&
      !for_line_lock) {
    migrated = true;  // dirty data now held solely by a different node
  }
  if (migrated) {
    ++stats_.migrations;
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kMigration,
                      .node = node,
                      .peer = e.last_writer,
                      .ts = NodeClock(node),
                      .a = line});
  }

  e.sharers = (1ULL << node);
  e.owner = node;
  Tick(node, cost);
  return Status::Ok();
}

Status Machine::WriteSpan(NodeId node, LineAddr line, uint32_t offset,
                          const uint8_t* data, size_t len) {
  LineEntry& e = Entry(line);
  if (config_.coherence == CoherenceKind::kWriteBroadcast &&
      !e.cached_by(node) && !e.lost) {
    // A broadcast machine first obtains a valid copy (shared), then updates
    // every copy in place; no invalidation ever occurs.
    const uint8_t* unused = nullptr;
    SMDB_RETURN_IF_ERROR(ReadLine(node, line, &unused));
  }
  if (config_.coherence == CoherenceKind::kWriteBroadcast &&
      e.cached_by(node)) {
    // Write-broadcast: update every valid copy in place; all stay valid.
    if (e.lost) {
      ++stats_.lost_line_references;
      stats_.last_lost_reference = line;
      return Status::LineLost("write to lost line");
    }
    // The one cached image is every sharer's copy; each remote copy still
    // costs its update message.
    std::memcpy(CachedImage(line) + offset, data, len);
    for (int i = 1; i < e.num_sharers(); ++i) {
      ++stats_.broadcast_updates;
      Tick(node, config_.timing.cpu_op_ns);
    }
    e.owner = (e.num_sharers() == 1) ? node : kInvalidNode;
    e.mem_valid = false;
    e.last_writer = node;
    Tick(node, config_.timing.cache_hit_ns);
    return Status::Ok();
  }
  // Write-invalidate path (also the write-broadcast path when the writer
  // holds no copy yet: it must first fetch the line).
  SMDB_RETURN_IF_ERROR(AcquireExclusive(node, line, /*for_line_lock=*/false));
  std::memcpy(CachedImage(line) + offset, data, len);
  e.mem_valid = false;
  e.last_writer = node;
  if (config_.coherence == CoherenceKind::kWriteBroadcast) {
    // After the initial fetch the writer holds the only copy; subsequent
    // broadcast writes take the in-place path above.
    e.owner = node;
  }
  return Status::Ok();
}

Status Machine::Read(NodeId node, Addr addr, void* out, size_t len) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  ++stats_.reads;
  while (len > 0) {
    LineAddr line = LineOf(addr);
    uint32_t offset = static_cast<uint32_t>(addr % config_.line_size);
    size_t chunk = std::min<size_t>(len, config_.line_size - offset);
    const uint8_t* data = nullptr;
    SMDB_RETURN_IF_ERROR(ReadLine(node, line, &data));
    std::memcpy(dst, data + offset, chunk);
    dst += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Machine::Write(NodeId node, Addr addr, const void* data, size_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  ++stats_.writes;
  while (len > 0) {
    LineAddr line = LineOf(addr);
    uint32_t offset = static_cast<uint32_t>(addr % config_.line_size);
    size_t chunk = std::min<size_t>(len, config_.line_size - offset);
    SMDB_RETURN_IF_ERROR(WriteSpan(node, line, offset, src, chunk));
    src += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status Machine::GetLine(NodeId node, LineAddr line) {
  if (!alive_[node]) return Status::NodeFailed("getline from crashed node");
  LineEntry& e = Entry(line);
  if (e.lost) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("getline on lost line");
  }
  // Queue behind the previous holder's release. free_at becomes the grant
  // time (a release raises it to the release time), which keeps
  // back-to-back acquisitions by distinct nodes strictly ordered even if a
  // holder never releases.
  const SimTime now = NodeClock(node);
  const SimTime wait = std::max(now, e.lock_free_at) - now;
  e.lock_holder = node;
  e.lock_free_at = now + wait;
  if (wait > 0) {
    ProfScope line_wait(inst_, ProfPhase::kLineWait);
    Tick(node, wait);
  }
  // Under write-invalidate the grant brings the line exclusive into the
  // local cache (the KSR-1 semantics). A write-broadcast machine has no
  // exclusive state: the lock itself provides the mutual exclusion and the
  // grant merely ensures a valid local copy, leaving other sharers valid.
  Status s;
  if (config_.coherence == CoherenceKind::kWriteBroadcast) {
    const uint8_t* data = nullptr;
    s = ReadLine(node, line, &data);
  } else {
    s = AcquireExclusive(node, line, /*for_line_lock=*/true);
  }
  if (!s.ok()) {
    Unlock(e, node, NodeClock(node));
    return s;
  }
  Tick(node, config_.timing.line_lock_grant_ns);
  ++stats_.line_lock_acquires;
  stats_.line_lock_wait_ns += wait;
  stats_.line_lock_total_ns += NodeClock(node) - now;
  return Status::Ok();
}

void Machine::Unlock(LineEntry& e, NodeId node, SimTime now) {
  if (e.lock_holder != node) return;
  e.lock_holder = kInvalidNode;
  e.lock_free_at = std::max(e.lock_free_at, now);
}

void Machine::ReleaseLine(NodeId node, LineAddr line) {
  if (line < lines_.size()) Unlock(lines_[line], node, NodeClock(node));
  Tick(node, config_.timing.cpu_op_ns);
}

void Machine::InstallToMemory(Addr addr, const void* data, size_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    LineAddr line = LineOf(addr);
    uint32_t offset = static_cast<uint32_t>(addr % config_.line_size);
    size_t chunk = std::min<size_t>(len, config_.line_size - offset);
    LineEntry& e = Entry(line);
    // Drop every cached copy: DMA bypasses the caches, and the install is
    // the new authoritative version.
    e.sharers = 0;
    e.owner = kInvalidNode;
    std::memcpy(MemImage(line) + offset, src, chunk);
    e.mem_valid = true;
    e.lost = false;
    e.last_writer = kInvalidNode;
    e.active_bit = false;
    src += chunk;
    addr += chunk;
    len -= chunk;
  }
}

Status Machine::SnoopRead(Addr addr, void* out, size_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    LineAddr line = addr / config_.line_size;
    uint32_t offset = static_cast<uint32_t>(addr % config_.line_size);
    size_t chunk = std::min<size_t>(len, config_.line_size - offset);
    if (FindLine(line) == nullptr) {
      std::memset(dst, 0, chunk);  // never-touched memory reads as zero
    } else {
      const uint8_t* data = CurrentData(line);
      if (data == nullptr) return Status::LineLost("snoop of lost line");
      std::memcpy(dst, data + offset, chunk);
    }
    dst += chunk;
    addr += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

void Machine::SetLineActive(LineAddr line, bool active) {
  Entry(line).active_bit = active;
}

bool Machine::LineActive(LineAddr line) const {
  const LineEntry* e = FindLine(line);
  return e != nullptr && e->active_bit;
}

void Machine::CrashNode(NodeId node) {
  assert(node < config_.num_nodes);
  if (!alive_[node]) return;
  alive_[node] = false;
  ++stats_.node_crashes;

  for (LineAddr line = 0; line < lines_.size(); ++line) {
    LineEntry& e = lines_[line];
    // Hardware flushes outstanding requests of the failed node, releasing
    // any line locks it held.
    Unlock(e, node, clocks_[node]);
    if (!e.created) continue;
    // Destroy the node's cached copies and home memory; restore the
    // directory to a state consistent with the surviving caches (FLASH
    // low-level recovery).
    if (e.cached_by(node)) {
      e.sharers &= ~(1ULL << node);
      if (e.owner == node) e.owner = kInvalidNode;
    }
    if (e.home == node) {
      e.mem_valid = false;
      std::memset(MemImage(line), 0, config_.line_size);
    }
    bool home_alive = e.home < config_.num_nodes && alive_[e.home];
    if (!e.lost && e.sharers == 0 && !(e.mem_valid && home_alive)) {
      e.lost = true;
      ++stats_.lines_lost;
    }
  }

  SMDB_EMIT(inst_, {.kind = TraceEventKind::kCrash,
                 .node = node,
                 .ts = clocks_[node]});
  CrashEvent ev{node};
  for (const auto& hook : crash_hooks_) hook(ev);
}

void Machine::RestartNode(NodeId node) {
  assert(node < config_.num_nodes);
  if (alive_[node]) return;
  alive_[node] = true;  // with a cold cache: the crash cleared its bits
  clocks_[node] = GlobalTime();
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kNodeUp,
                 .node = node,
                 .ts = clocks_[node]});
}

void Machine::RebootAll() {
  SimTime t = GlobalTime();
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) {
      SMDB_EMIT(inst_,
                {.kind = TraceEventKind::kNodeDown, .node = n, .ts = t});
    }
  }
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    alive_[n] = true;
    clocks_[n] = t;
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kNodeUp, .node = n, .ts = t});
  }
  for (LineAddr line = 0; line < lines_.size(); ++line) {
    LineEntry& e = lines_[line];
    if (!e.created) continue;
    e.sharers = 0;
    e.owner = kInvalidNode;
    e.mem_valid = false;
    std::memset(MemImage(line), 0, config_.line_size);
    if (!e.lost) {
      e.lost = true;
      ++stats_.lines_lost;
    }
    e.active_bit = false;
    e.last_writer = kInvalidNode;
  }
}

std::vector<NodeId> Machine::AliveNodes() const {
  std::vector<NodeId> out;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) out.push_back(n);
  }
  return out;
}

bool Machine::ProbeLine(LineAddr line) const {
  const LineEntry* e = FindLine(line);
  if (e == nullptr) return false;
  if (e->lost) return false;
  if (e->sharers != 0) return true;
  return e->mem_valid && e->home < config_.num_nodes && alive_[e->home];
}

bool Machine::IsLineLost(LineAddr line) const {
  const LineEntry* e = FindLine(line);
  return e != nullptr && e->lost;
}

void Machine::DiscardLine(LineAddr line) {
  if (FindLine(line) == nullptr) return;
  LineEntry& e = lines_[line];
  e.sharers = 0;
  e.owner = kInvalidNode;
  e.mem_valid = false;
  e.lost = true;
  e.active_bit = false;
  e.last_writer = kInvalidNode;
}

void Machine::DiscardRange(Addr addr, size_t len) {
  LineAddr first = LineOf(addr);
  LineAddr last = LineOf(addr + len - 1);
  for (LineAddr l = first; l <= last; ++l) DiscardLine(l);
}

void Machine::SyncClocks() {
  SimTime t = GlobalTime();
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) clocks_[n] = t;
  }
}

NodeId Machine::EarliestOf(const std::vector<NodeId>& nodes) const {
  NodeId best = nodes.front();
  for (NodeId n : nodes) {
    if (clocks_[n] < clocks_[best]) best = n;
  }
  return best;
}

SimTime Machine::GlobalTime() const {
  SimTime t = 0;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) t = std::max(t, clocks_[n]);
  }
  return t;
}

}  // namespace smdb
