#include "sim/machine.h"

#include <algorithm>
#include <cassert>

#include "obs/observatory.h"
#include "obs/trace.h"

namespace smdb {

Machine::Machine(MachineConfig config) : config_(config) {
  assert(config_.num_nodes > 0 && config_.num_nodes <= kMaxNodes);
  caches_.reserve(config_.num_nodes);
  for (uint16_t i = 0; i < config_.num_nodes; ++i) {
    caches_.emplace_back(config_.line_size);
  }
  alive_.assign(config_.num_nodes, true);
  clocks_.assign(config_.num_nodes, 0);
}

Addr Machine::AllocShared(size_t bytes) {
  Addr start = next_addr_;
  size_t lines = (bytes + config_.line_size - 1) / config_.line_size;
  next_addr_ += lines * config_.line_size;
  return start;
}

Addr Machine::AllocLocal(NodeId node, size_t bytes) {
  Addr start = next_addr_;
  size_t lines = (bytes + config_.line_size - 1) / config_.line_size;
  for (size_t i = 0; i < lines; ++i) {
    home_override_[LineOf(start) + i] = node;
  }
  next_addr_ += lines * config_.line_size;
  return start;
}

NodeId Machine::HomeOf(LineAddr line) const {
  auto it = home_override_.find(line);
  if (it != home_override_.end()) return it->second;
  return static_cast<NodeId>(line % config_.num_nodes);
}

const std::vector<uint8_t>* Machine::CurrentData(const DirEntry& e,
                                                 LineAddr line) const {
  if (e.lost) return nullptr;
  // Prefer a cached copy (owner first, then any sharer).
  if (e.owner != kInvalidNode) {
    const Cache::Entry* ce = caches_[e.owner].Find(line);
    assert(ce != nullptr);
    return &ce->data;
  }
  if (e.sharers != 0) {
    NodeId n = static_cast<NodeId>(__builtin_ctzll(e.sharers));
    const Cache::Entry* ce = caches_[n].Find(line);
    assert(ce != nullptr);
    return &ce->data;
  }
  if (e.mem_valid) return &e.mem_data;
  return nullptr;
}

void Machine::FireCoherence(CoherenceEvent::Kind kind, LineAddr line,
                            NodeId from, NodeId to, bool active_bit) {
  if (coherence_hooks_.empty()) return;
  CoherenceEvent ev{kind, line, from, to, active_bit};
  for (const auto& hook : coherence_hooks_) hook(ev);
}

Status Machine::ReadLine(NodeId node, LineAddr line,
                         const std::vector<uint8_t>** data) {
  if (!alive_[node]) return Status::NodeFailed("read from crashed node");
  DirEntry& e = Entry(line);
  if (e.lost) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("read of lost line");
  }
  Cache& cache = caches_[node];
  if (e.cached_by(node)) {
    ++stats_.local_hits;
    Tick(node, config_.timing.cache_hit_ns);
    *data = &cache.Find(line)->data;
    return Status::Ok();
  }
  // Miss. Find the current data. The whole miss service (downgrades,
  // remote transfers, memory fetches) is coherence traffic for the
  // profiler's phase accounting.
  ProfScope coherence(prof_, ProfPhase::kCoherence);
  if (e.owner != kInvalidNode && e.owner != node) {
    // Exclusive at a remote cache: downgrade it to shared (wr sharing —
    // history H_wr). The hook fires before the transfer completes so Stable
    // LBM can force the departing node's log.
    FireCoherence(CoherenceEvent::Kind::kDowngrade, line, e.owner, node,
                  e.active_bit);
    SMDB_TRACE(tracer_, {.kind = TraceEventKind::kDowngrade,
                         .node = node,
                         .peer = e.owner,
                         .ts = NodeClock(node),
                         .a = line});
    Cache::Entry* owner_entry = caches_[e.owner].Find(line);
    assert(owner_entry != nullptr);
    owner_entry->state = LineState::kShared;
    cache.Insert(line, LineState::kShared, owner_entry->data);
    e.owner = kInvalidNode;
    e.sharers |= (1ULL << node);
    ++stats_.downgrades;
    ++stats_.remote_transfers;
    if (e.last_writer != kInvalidNode && e.last_writer != node) {
      ++stats_.replications;
      SMDB_TRACE(tracer_, {.kind = TraceEventKind::kReplication,
                           .node = node,
                           .peer = e.last_writer,
                           .ts = NodeClock(node),
                           .a = line});
    }
    Tick(node, config_.timing.remote_transfer_ns);
  } else if (e.sharers != 0) {
    // Shared at one or more remote caches: copy from one of them.
    const std::vector<uint8_t>* src = CurrentData(e, line);
    assert(src != nullptr);
    cache.Insert(line, LineState::kShared, *src);
    e.sharers |= (1ULL << node);
    ++stats_.remote_transfers;
    if (e.last_writer != kInvalidNode && e.last_writer != node) {
      ++stats_.replications;
      SMDB_TRACE(tracer_, {.kind = TraceEventKind::kReplication,
                           .node = node,
                           .peer = e.last_writer,
                           .ts = NodeClock(node),
                           .a = line});
    }
    Tick(node, config_.timing.remote_transfer_ns);
  } else if (e.mem_valid) {
    cache.Insert(line, LineState::kShared, e.mem_data);
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
  *data = &cache.Find(line)->data;
  return Status::Ok();
}

Status Machine::AcquireExclusive(NodeId node, LineAddr line,
                                 bool for_line_lock) {
  if (!alive_[node]) return Status::NodeFailed("access from crashed node");
  DirEntry& e = Entry(line);
  if (e.lost) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("exclusive request for lost line");
  }
  Cache& cache = caches_[node];
  Cache::Entry* mine = cache.Find(line);
  if (mine != nullptr && mine->state == LineState::kExclusive) {
    Tick(node, config_.timing.cache_hit_ns);
    return Status::Ok();  // already exclusive here
  }

  // Fetch current data if we do not hold a valid copy. From here on
  // (fetch, invalidations, migration) is coherence miss service.
  ProfScope coherence(prof_, ProfPhase::kCoherence);
  std::vector<uint8_t> data;
  SimTime cost = 0;
  if (mine != nullptr) {
    data = mine->data;
    cost = config_.timing.cache_hit_ns;
  } else {
    const std::vector<uint8_t>* src = CurrentData(e, line);
    if (src == nullptr) {
      ++stats_.lost_line_references;
      stats_.last_lost_reference = line;
      return Status::LineLost("no valid copy");
    }
    data = *src;
    if (e.sharers != 0 || e.owner != kInvalidNode) {
      cost = config_.timing.remote_transfer_ns;
      ++stats_.remote_transfers;
    } else {
      cost = config_.timing.memory_access_ns;
      ++stats_.memory_fetches;
    }
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
    SMDB_TRACE(tracer_, {.kind = TraceEventKind::kInvalidation,
                         .node = node,
                         .peer = s,
                         .ts = NodeClock(node),
                         .a = line});
    caches_[s].Erase(line);
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
    SMDB_TRACE(tracer_, {.kind = TraceEventKind::kMigration,
                         .node = node,
                         .peer = e.last_writer,
                         .ts = NodeClock(node),
                         .a = line});
  }

  cache.Insert(line, LineState::kExclusive, data);
  e.sharers = (1ULL << node);
  e.owner = node;
  Tick(node, cost);
  return Status::Ok();
}

Status Machine::WriteSpan(NodeId node, LineAddr line, uint32_t offset,
                          const uint8_t* data, size_t len) {
  DirEntry& e = Entry(line);
  if (config_.coherence == CoherenceKind::kWriteBroadcast &&
      !e.cached_by(node) && !e.lost) {
    // A broadcast machine first obtains a valid copy (shared), then updates
    // every copy in place; no invalidation ever occurs.
    const std::vector<uint8_t>* unused = nullptr;
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
    uint64_t sharers = e.sharers;
    while (sharers != 0) {
      NodeId s = static_cast<NodeId>(__builtin_ctzll(sharers));
      sharers &= sharers - 1;
      Cache::Entry* ce = caches_[s].Find(line);
      assert(ce != nullptr);
      std::memcpy(ce->data.data() + offset, data, len);
      if (s != node) {
        ++stats_.broadcast_updates;
        Tick(node, config_.timing.cpu_op_ns);
      }
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
  Cache::Entry* ce = caches_[node].Find(line);
  std::memcpy(ce->data.data() + offset, data, len);
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
    const std::vector<uint8_t>* data = nullptr;
    SMDB_RETURN_IF_ERROR(ReadLine(node, line, &data));
    std::memcpy(dst, data->data() + offset, chunk);
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
  DirEntry& e = Entry(line);
  if (e.lost) {
    ++stats_.lost_line_references;
    stats_.last_lost_reference = line;
    return Status::LineLost("getline on lost line");
  }
  SimTime now = NodeClock(node);
  SimTime grant = line_locks_.Acquire(line, node, now);
  SimTime wait = grant - now;
  clocks_[node] = std::max(clocks_[node], grant);
  // Under write-invalidate the grant brings the line exclusive into the
  // local cache (the KSR-1 semantics). A write-broadcast machine has no
  // exclusive state: the lock itself provides the mutual exclusion and the
  // grant merely ensures a valid local copy, leaving other sharers valid.
  bool local_exclusive = e.owner == node;
  Status s;
  if (config_.coherence == CoherenceKind::kWriteBroadcast) {
    const std::vector<uint8_t>* data = nullptr;
    s = ReadLine(node, line, &data);
  } else {
    s = AcquireExclusive(node, line, /*for_line_lock=*/true);
  }
  if (!s.ok()) {
    line_locks_.Release(line, node, NodeClock(node));
    return s;
  }
  SimTime grant_cost = local_exclusive
                           ? config_.timing.line_lock_grant_ns
                           : config_.timing.line_lock_grant_ns;
  Tick(node, grant_cost);
  ++stats_.line_lock_acquires;
  stats_.line_lock_wait_ns += wait;
  stats_.line_lock_total_ns += NodeClock(node) - now;
  return Status::Ok();
}

void Machine::ReleaseLine(NodeId node, LineAddr line) {
  line_locks_.Release(line, node, NodeClock(node));
  Tick(node, config_.timing.cpu_op_ns);
}

void Machine::InstallToMemory(Addr addr, const void* data, size_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    LineAddr line = LineOf(addr);
    uint32_t offset = static_cast<uint32_t>(addr % config_.line_size);
    size_t chunk = std::min<size_t>(len, config_.line_size - offset);
    DirEntry& e = Entry(line);
    // Drop every cached copy: DMA bypasses the caches, and the install is
    // the new authoritative version.
    uint64_t sharers = e.sharers;
    while (sharers != 0) {
      NodeId s = static_cast<NodeId>(__builtin_ctzll(sharers));
      sharers &= sharers - 1;
      caches_[s].Erase(line);
    }
    e.sharers = 0;
    e.owner = kInvalidNode;
    if (e.mem_data.size() != config_.line_size) {
      e.mem_data.assign(config_.line_size, 0);
    }
    std::memcpy(e.mem_data.data() + offset, src, chunk);
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
    const DirEntry* e = directory_.Find(line);
    if (e == nullptr) {
      std::memset(dst, 0, chunk);  // never-touched memory reads as zero
    } else {
      const std::vector<uint8_t>* data = CurrentData(*e, line);
      if (data == nullptr) return Status::LineLost("snoop of lost line");
      std::memcpy(dst, data->data() + offset, chunk);
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
  const DirEntry* e = directory_.Find(line);
  return e != nullptr && e->active_bit;
}

void Machine::CrashNode(NodeId node) {
  assert(node < config_.num_nodes);
  if (!alive_[node]) return;
  alive_[node] = false;
  ++stats_.node_crashes;

  // Hardware flushes outstanding requests of the failed node, releasing any
  // line locks it held.
  line_locks_.ReleaseAllHeldBy(node, clocks_[node]);

  // Destroy the node's cache and home memory; restore the directory to a
  // state consistent with the surviving caches (FLASH low-level recovery).
  caches_[node].Clear();
  directory_.ForEach([&](LineAddr line, DirEntry& e) {
    (void)line;
    if (e.cached_by(node)) {
      e.sharers &= ~(1ULL << node);
      if (e.owner == node) e.owner = kInvalidNode;
    }
    if (e.home == node) {
      e.mem_valid = false;
      std::fill(e.mem_data.begin(), e.mem_data.end(), 0);
    }
    bool home_alive = e.home < config_.num_nodes && alive_[e.home];
    if (!e.lost && e.sharers == 0 && !(e.mem_valid && home_alive)) {
      e.lost = true;
      ++stats_.lines_lost;
    }
  });

  SMDB_TRACE(tracer_, {.kind = TraceEventKind::kCrash,
                       .node = node,
                       .ts = clocks_[node]});
  SMDB_OBS(obs_, OnNodeDown(node, clocks_[node]));
  CrashEvent ev{node};
  for (const auto& hook : crash_hooks_) hook(ev);
}

void Machine::RestartNode(NodeId node) {
  assert(node < config_.num_nodes);
  if (alive_[node]) return;
  alive_[node] = true;
  caches_[node].Clear();
  clocks_[node] = GlobalTime();
  SMDB_OBS(obs_, OnNodeUp(node, clocks_[node]));
}

void Machine::RebootAll() {
  SimTime t = GlobalTime();
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) SMDB_OBS(obs_, OnNodeDown(n, t));
  }
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    caches_[n].Clear();
    alive_[n] = true;
    clocks_[n] = t;
    SMDB_OBS(obs_, OnNodeUp(n, t));
  }
  directory_.ForEach([&](LineAddr line, DirEntry& e) {
    (void)line;
    e.sharers = 0;
    e.owner = kInvalidNode;
    e.mem_valid = false;
    std::fill(e.mem_data.begin(), e.mem_data.end(), 0);
    if (!e.lost) {
      e.lost = true;
      ++stats_.lines_lost;
    }
    e.active_bit = false;
    e.last_writer = kInvalidNode;
  });
}

std::vector<NodeId> Machine::AliveNodes() const {
  std::vector<NodeId> out;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) out.push_back(n);
  }
  return out;
}

bool Machine::ProbeLine(LineAddr line) const {
  const DirEntry* e = directory_.Find(line);
  if (e == nullptr) return false;
  if (e->lost) return false;
  if (e->sharers != 0) return true;
  return e->mem_valid && e->home < config_.num_nodes && alive_[e->home];
}

bool Machine::IsLineLost(LineAddr line) const {
  const DirEntry* e = directory_.Find(line);
  return e != nullptr && e->lost;
}

void Machine::DiscardLine(LineAddr line) {
  DirEntry* e = directory_.Find(line);
  if (e == nullptr) return;
  uint64_t sharers = e->sharers;
  while (sharers != 0) {
    NodeId s = static_cast<NodeId>(__builtin_ctzll(sharers));
    sharers &= sharers - 1;
    caches_[s].Erase(line);
  }
  e->sharers = 0;
  e->owner = kInvalidNode;
  e->mem_valid = false;
  e->lost = true;
  e->active_bit = false;
  e->last_writer = kInvalidNode;
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

SimTime Machine::GlobalTime() const {
  SimTime t = 0;
  for (uint16_t n = 0; n < config_.num_nodes; ++n) {
    if (alive_[n]) t = std::max(t, clocks_[n]);
  }
  return t;
}

}  // namespace smdb
