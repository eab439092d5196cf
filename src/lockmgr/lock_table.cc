#include "lockmgr/lock_table.h"

#include <cassert>

#include "sim/machine.h"

namespace smdb {
namespace {

/// Maximum linear-probe distance. Bounding the probe chain makes lookups
/// correct even after crashed (lost) LCB lines have been re-initialised to
/// empty: a lookup never stops early at an empty slot, it always scans the
/// full window.
constexpr uint32_t kProbeLimit = 32;

uint64_t HashName(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

LockTable::LockTable(Machine* machine, LogManager* log,
                     LockTableConfig config, bool log_lock_ops,
                     Instruments* inst)
    : machine_(machine),
      log_(log),
      inst_(inst),
      config_(config),
      log_lock_ops_(log_lock_ops),
      codec_(machine->line_size(), config.two_line_lcb) {
  base_ = machine_->AllocShared(static_cast<size_t>(config_.buckets) *
                                codec_.bytes());
}

LineAddr LockTable::SlotFirstLine(uint32_t slot) const {
  return machine_->LineOf(SlotBase(slot));
}

Result<Lcb> LockTable::ReadLcb(NodeId node, uint32_t slot) {
  std::vector<uint8_t> buf(codec_.bytes());
  SMDB_RETURN_IF_ERROR(
      machine_->Read(node, SlotBase(slot), buf.data(), buf.size()));
  return codec_.Decode(buf.data());
}

Status LockTable::WriteLcb(NodeId node, uint32_t slot, const Lcb& lcb) {
  std::vector<uint8_t> buf(codec_.bytes());
  codec_.Encode(lcb, buf.data());
  return machine_->Write(node, SlotBase(slot), buf.data(), buf.size());
}

Result<uint32_t> LockTable::FindSlot(NodeId node, uint64_t name,
                                     bool create) {
  uint32_t h = static_cast<uint32_t>(HashName(name) % config_.buckets);
  uint32_t limit = std::min(kProbeLimit, config_.buckets);
  uint32_t first_empty = config_.buckets;  // sentinel
  for (uint32_t i = 0; i < limit; ++i) {
    uint32_t slot = (h + i) % config_.buckets;
    auto existing = machine_->ReadValue<uint64_t>(node, SlotBase(slot));
    if (!existing.ok()) {
      if (existing.status().IsLineLost()) continue;  // skip, keep probing
      return existing.status();
    }
    if (*existing == name) return slot;
    if (*existing == 0 && first_empty == config_.buckets) first_empty = slot;
  }
  if (create && first_empty != config_.buckets) return first_empty;
  if (create) {
    ++stats_.capacity_rejections;
    return Status::TryAgain("lock table probe window full");
  }
  return Status::NotFound("no LCB for name");
}

Status LockTable::LogLockOp(NodeId node, TxnId txn, uint64_t name,
                            LockMode mode, LockOpPayload::Op op,
                            Lsn* chain_prev) {
  if (!log_lock_ops_) return Status::Ok();
  LogRecord rec;
  rec.type = LogRecordType::kLockOp;
  rec.txn = txn;
  rec.prev_lsn = chain_prev != nullptr ? *chain_prev : kInvalidLsn;
  rec.payload = LockOpPayload{name, mode, op};
  Lsn lsn = log_->Append(node, std::move(rec));
  if (chain_prev != nullptr) *chain_prev = lsn;
  ++stats_.lock_log_records;
  return Status::Ok();
}

bool LockTable::PromoteWaiters(Lcb& lcb) {
  bool changed = false;
  while (!lcb.waiters.empty() &&
         lcb.holders.size() < codec_.holders_capacity()) {
    const LockEntry head = lcb.waiters.front();
    bool ok = true;
    for (const auto& h : lcb.holders) {
      // A waiter may be upgrading a lock it already holds; its own holder
      // entry does not conflict with it.
      if (h.txn == head.txn) continue;
      if (!Compatible(h.mode, head.mode)) {
        ok = false;
        break;
      }
    }
    if (!ok) break;
    LockEntry* mine = lcb.FindHolder(head.txn);
    if (mine != nullptr) {
      mine->mode = head.mode;  // upgrade in place
    } else {
      lcb.holders.push_back(head);
    }
    lcb.waiters.erase(lcb.waiters.begin());
    changed = true;
  }
  return changed;
}

Result<LockResult> LockTable::Acquire(NodeId node, TxnId txn, uint64_t name,
                                      LockMode mode, Lsn* chain_prev) {
  ProfScope lock_wait(inst_, ProfPhase::kLockWait);
  SMDB_ASSIGN_OR_RETURN(uint32_t slot, FindSlot(node, name, /*create=*/true));
  LineAddr l0 = SlotFirstLine(slot);
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, l0));
  if (codec_.lines() == 2) {
    Status s = machine_->GetLine(node, l0 + 1);
    if (!s.ok()) {
      machine_->ReleaseLine(node, l0);
      return s;
    }
  }
  auto release_lines = [&] {
    if (codec_.lines() == 2) machine_->ReleaseLine(node, l0 + 1);
    machine_->ReleaseLine(node, l0);
  };

  auto lcb_or = ReadLcb(node, slot);
  if (!lcb_or.ok()) {
    release_lines();
    return lcb_or.status();
  }
  Lcb lcb = std::move(*lcb_or);
  if (lcb.empty()) lcb.name = name;

  LockEntry* mine = lcb.FindHolder(txn);
  if (mine != nullptr) {
    if (mine->mode == LockMode::kExclusive || mine->mode == mode) {
      release_lines();  // already held at sufficient strength
      return LockResult::kGranted;
    }
    // Upgrade S -> X: allowed immediately only as the sole holder.
    if (lcb.holders.size() == 1) {
      SMDB_RETURN_IF_ERROR(LogLockOp(node, txn, name, mode,
                                     LockOpPayload::Op::kAcquire, chain_prev));
      mine->mode = LockMode::kExclusive;
      Status s = WriteLcb(node, slot, lcb);
      release_lines();
      if (!s.ok()) return s;
      ++stats_.acquires;
      SMDB_EMIT(inst_, {.kind = TraceEventKind::kLockAcquire,
                        .node = node,
                        .txn = txn,
                        .ts = machine_->NodeClock(node),
                        .a = name,
                        .b = static_cast<uint64_t>(mode),
                        .label = "upgrade"});
      return LockResult::kGranted;
    }
    // Fall through to queueing the upgrade.
  } else if (lcb.CanGrant(txn, mode) &&
             lcb.holders.size() < codec_.holders_capacity()) {
    // The logical log record is written on node `node` *before* the LCB
    // update becomes visible (and thus before the LCB line can migrate):
    // the Volatile LBM policy for the lock table.
    SMDB_RETURN_IF_ERROR(LogLockOp(node, txn, name, mode,
                                   LockOpPayload::Op::kAcquire, chain_prev));
    lcb.holders.push_back(LockEntry{txn, mode});
    Status s = WriteLcb(node, slot, lcb);
    release_lines();
    if (!s.ok()) return s;
    ++stats_.acquires;
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kLockAcquire,
                      .node = node,
                      .txn = txn,
                      .ts = machine_->NodeClock(node),
                      .a = name,
                      .b = static_cast<uint64_t>(mode)});
    return LockResult::kGranted;
  }

  // Conflict: queue the request (also logged, per section 4.2.2).
  if (lcb.FindWaiter(txn) == nullptr) {
    if (lcb.waiters.size() >= codec_.waiters_capacity()) {
      release_lines();
      ++stats_.capacity_rejections;
      return Status::TryAgain("LCB waiter list full");
    }
    SMDB_RETURN_IF_ERROR(LogLockOp(node, txn, name, mode,
                                   LockOpPayload::Op::kQueue, chain_prev));
    lcb.waiters.push_back(LockEntry{txn, mode});
    Status s = WriteLcb(node, slot, lcb);
    release_lines();
    if (!s.ok()) return s;
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kLockQueued,
                      .node = node,
                      .txn = txn,
                      .ts = machine_->NodeClock(node),
                      .a = name,
                      .b = static_cast<uint64_t>(mode)});
  } else {
    release_lines();
  }
  ++stats_.queued;
  return LockResult::kQueued;
}

Result<LockResult> LockTable::PollGrant(NodeId node, TxnId txn, uint64_t name,
                                        LockMode mode, Lsn* chain_prev) {
  ProfScope lock_wait(inst_, ProfPhase::kLockWait);
  SMDB_ASSIGN_OR_RETURN(uint32_t slot, FindSlot(node, name, /*create=*/false));
  SMDB_ASSIGN_OR_RETURN(Lcb lcb, ReadLcb(node, slot));
  LockEntry* mine = lcb.FindHolder(txn);
  if (mine == nullptr) return LockResult::kQueued;
  if (mine->mode != mode && mine->mode != LockMode::kExclusive) {
    return LockResult::kQueued;  // upgrade still pending
  }
  // First observation of the promotion: log the acquisition so recovery can
  // redo it if the LCB is destroyed.
  SMDB_RETURN_IF_ERROR(LogLockOp(node, txn, name, mode,
                                 LockOpPayload::Op::kAcquire, chain_prev));
  ++stats_.acquires;
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kLockAcquire,
                    .node = node,
                    .txn = txn,
                    .ts = machine_->NodeClock(node),
                    .a = name,
                    .b = static_cast<uint64_t>(mode),
                    .label = "poll"});
  return LockResult::kGranted;
}

Status LockTable::Release(NodeId node, TxnId txn, uint64_t name,
                          Lsn* chain_prev) {
  ++release_epoch_;
  auto slot_or = FindSlot(node, name, /*create=*/false);
  if (!slot_or.ok()) {
    // Already reclaimed (e.g. restart recovery dropped the lock): release
    // is idempotent.
    if (slot_or.status().IsNotFound()) return Status::Ok();
    return slot_or.status();
  }
  uint32_t slot = *slot_or;
  LineAddr l0 = SlotFirstLine(slot);
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, l0));
  if (codec_.lines() == 2) {
    Status s = machine_->GetLine(node, l0 + 1);
    if (!s.ok()) {
      machine_->ReleaseLine(node, l0);
      return s;
    }
  }
  auto release_lines = [&] {
    if (codec_.lines() == 2) machine_->ReleaseLine(node, l0 + 1);
    machine_->ReleaseLine(node, l0);
  };

  auto lcb_or = ReadLcb(node, slot);
  if (!lcb_or.ok()) {
    release_lines();
    return lcb_or.status();
  }
  Lcb lcb = std::move(*lcb_or);
  SMDB_RETURN_IF_ERROR(
      LogLockOp(node, txn, name, LockMode::kNone,
                LockOpPayload::Op::kRelease, chain_prev));
  // Remove both held and queued entries: a transaction aborting while an
  // upgrade request is queued is simultaneously a holder and a waiter.
  bool changed = false;
  for (size_t i = 0; i < lcb.holders.size(); ++i) {
    if (lcb.holders[i].txn == txn) {
      lcb.holders.erase(lcb.holders.begin() + i);
      changed = true;
      break;
    }
  }
  for (size_t i = 0; i < lcb.waiters.size(); ++i) {
    if (lcb.waiters[i].txn == txn) {
      lcb.waiters.erase(lcb.waiters.begin() + i);
      changed = true;
      break;
    }
  }
  changed |= PromoteWaiters(lcb);
  if (lcb.holders.empty() && lcb.waiters.empty()) {
    // Reclaim the slot: the space freed by the release is reusable for
    // other lock names (full-window probing makes deletion safe).
    lcb = Lcb{};
    changed = true;
  }
  Status s = changed ? WriteLcb(node, slot, lcb) : Status::Ok();
  release_lines();
  if (!s.ok()) return s;
  ++stats_.releases;
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kLockRelease,
                    .node = node,
                    .txn = txn,
                    .ts = machine_->NodeClock(node),
                    .a = name});
  return Status::Ok();
}

Result<LockMode> LockTable::HeldMode(NodeId node, TxnId txn, uint64_t name) {
  auto slot_or = FindSlot(node, name, /*create=*/false);
  if (!slot_or.ok()) {
    if (slot_or.status().IsNotFound()) return LockMode::kNone;
    return slot_or.status();
  }
  SMDB_ASSIGN_OR_RETURN(Lcb lcb, ReadLcb(node, *slot_or));
  LockEntry* mine = lcb.FindHolder(txn);
  return mine == nullptr ? LockMode::kNone : mine->mode;
}

Result<std::vector<LockEntry>> LockTable::Holders(NodeId node,
                                                  uint64_t name) {
  auto slot_or = FindSlot(node, name, /*create=*/false);
  if (!slot_or.ok()) {
    if (slot_or.status().IsNotFound()) return std::vector<LockEntry>{};
    return slot_or.status();
  }
  SMDB_ASSIGN_OR_RETURN(Lcb lcb, ReadLcb(node, *slot_or));
  return lcb.holders;
}

Result<Lcb> LockTable::GetLcb(NodeId node, uint64_t name) {
  auto slot_or = FindSlot(node, name, /*create=*/false);
  if (!slot_or.ok()) {
    if (slot_or.status().IsNotFound()) return Lcb{};
    return slot_or.status();
  }
  return ReadLcb(node, *slot_or);
}

Result<int> LockTable::DropTxnLocks(NodeId node,
                                    const std::set<TxnId>& txns) {
  ++release_epoch_;
  int removed = 0;
  for (uint32_t slot = 0; slot < config_.buckets; ++slot) {
    auto name_or = machine_->ReadValue<uint64_t>(node, SlotBase(slot));
    if (!name_or.ok()) {
      if (name_or.status().IsLineLost()) continue;
      return name_or.status();
    }
    if (*name_or == 0) continue;
    auto lcb_or = ReadLcb(node, slot);
    if (!lcb_or.ok()) {
      if (lcb_or.status().IsLineLost()) continue;  // partial two-line loss
      return lcb_or.status();
    }
    Lcb lcb = std::move(*lcb_or);
    bool changed = false;
    auto drop = [&](std::vector<LockEntry>& list) {
      for (size_t i = 0; i < list.size();) {
        if (txns.contains(list[i].txn)) {
          list.erase(list.begin() + i);
          changed = true;
          ++removed;
        } else {
          ++i;
        }
      }
    };
    drop(lcb.holders);
    drop(lcb.waiters);
    changed |= PromoteWaiters(lcb);
    if (lcb.holders.empty() && lcb.waiters.empty() && changed) {
      lcb = Lcb{};  // reclaim the slot
    }
    if (changed) {
      LineAddr l0 = SlotFirstLine(slot);
      SMDB_RETURN_IF_ERROR(machine_->GetLine(node, l0));
      Status s = WriteLcb(node, slot, lcb);
      machine_->ReleaseLine(node, l0);
      SMDB_RETURN_IF_ERROR(s);
    }
  }
  return removed;
}

Status LockTable::RebuildLcb(NodeId node, const Lcb& lcb) {
  ++release_epoch_;
  SMDB_ASSIGN_OR_RETURN(uint32_t slot,
                        FindSlot(node, lcb.name, /*create=*/true));
  // A waiter may have been promoted just before the crash without the
  // waiting node having observed it yet; promote eagerly so no waiter is
  // stranded (a stranded waiter would never be re-promoted: promotions
  // happen only on releases).
  Lcb fixed = lcb;
  PromoteWaiters(fixed);
  LineAddr l0 = SlotFirstLine(slot);
  SMDB_RETURN_IF_ERROR(machine_->GetLine(node, l0));
  Status s = WriteLcb(node, slot, fixed);
  machine_->ReleaseLine(node, l0);
  return s;
}

int LockTable::ClearLostLines() {
  ++release_epoch_;
  int cleared = 0;
  std::vector<uint8_t> zeros(machine_->line_size(), 0);
  LineAddr first = machine_->LineOf(base_);
  size_t total_lines = static_cast<size_t>(config_.buckets) * codec_.lines();
  for (size_t i = 0; i < total_lines; ++i) {
    LineAddr line = first + i;
    if (machine_->IsLineLost(line)) {
      machine_->InstallToMemory(machine_->AddrOfLine(line), zeros.data(),
                                zeros.size());
      ++cleared;
    }
  }
  return cleared;
}

std::vector<Lcb> LockTable::SnapshotAll(int* lost_lcbs) const {
  std::vector<Lcb> out;
  int lost = 0;
  std::vector<uint8_t> buf(codec_.bytes());
  for (uint32_t slot = 0; slot < config_.buckets; ++slot) {
    Status s = machine_->SnoopRead(SlotBase(slot), buf.data(), buf.size());
    if (!s.ok()) {
      ++lost;
      continue;
    }
    Lcb lcb = codec_.Decode(buf.data());
    if (!lcb.empty() && (!lcb.holders.empty() || !lcb.waiters.empty())) {
      out.push_back(std::move(lcb));
    }
  }
  if (lost_lcbs != nullptr) *lost_lcbs = lost;
  return out;
}

std::vector<LineAddr> LockTable::LostLines() const {
  std::vector<LineAddr> out;
  LineAddr first = machine_->LineOf(base_);
  size_t total_lines = static_cast<size_t>(config_.buckets) * codec_.lines();
  for (size_t i = 0; i < total_lines; ++i) {
    if (machine_->IsLineLost(first + i)) out.push_back(first + i);
  }
  return out;
}

}  // namespace smdb
