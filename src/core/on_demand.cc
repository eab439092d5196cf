#include "core/on_demand.h"

#include <algorithm>

#include "core/database.h"
#include "core/stable_state.h"

namespace smdb {

OnDemandRecovery::OnDemandRecovery(Database* db) : db_(db) {}

OnDemandRecovery::~OnDemandRecovery() = default;

RecoveryManager::Ctx& OnDemandRecovery::Begin() {
  std::map<NodeId, uint64_t> inherited = PendingDeadTags();
  if (active_) Close();
  active_ = false;
  tagged_ = false;
  whole_pages_ = false;
  in_discharge_ = false;
  indexed_ = false;
  ctx_ = RecoveryManager::Ctx{};
  ctx_.inherited_dead_tags = std::move(inherited);
  redo_.clear();
  redo_done_.clear();
  undo_ = RecoveryManager::UndoWork{};
  undo_done_.clear();
  records_.clear();
  keys_.clear();
  sweep_order_.clear();
  sweep_rids_.clear();
  sweep_keys_.clear();
  sweep_pos_ = 0;
  pending_pages_.clear();
  discharged_rids_.clear();
  discharged_keys_.clear();
  seeded_rids_.clear();
  seeded_keys_.clear();
  eng_ = TxnManager::UndoEngagement{};
  usn_owner_.clear();
  reconstructor_.reset();
  return ctx_;
}

void OnDemandRecovery::Close() {
  // Reads the clock without syncing it: closing must not move simulated
  // time. A superseding crash can take the node with the latest clock, or
  // every node, out of GlobalTime; the span never shrinks below what the
  // crash-time work measured.
  SimTime now = db_->machine().GlobalTime();
  if (now >= ctx_.t0 + ctx_.out.recovery_time_ns) {
    ctx_.out.recovery_time_ns = now - ctx_.t0;
  }
  if (close_hook_) close_hook_(ctx_.out);
}

Status OnDemandRecovery::Activate(std::vector<LogRecord> redo,
                                  RecoveryManager::UndoWork undo,
                                  RestartKind scheme, bool serve) {
  redo_ = std::move(redo);
  undo_ = std::move(undo);
  redo_done_.assign(redo_.size(), false);
  undo_done_.assign(undo_.to_undo.size(), false);
  tagged_ = scheme == RestartKind::kSelectiveRedo;
  whole_pages_ = scheme == RestartKind::kRedoAll;
  if (!serve) return Drain();

  // New transactions descend the index as soon as the window opens, so the
  // tree's routing structure is redone now.
  SMDB_RETURN_IF_ERROR(db_->recovery().TimedPhase(
      ctx_, RecoveryPhase::kRedo, [&] { return RedoStructural(); }));
  // Everything minted after this instant is post-crash traffic: the
  // deferred tag handling must not classify (let alone undo) those tags.
  ctx_.tag_scan_usn_cutoff = db_->usn().current();
  for (PageId p : db_->records().pages()) pending_pages_.insert(p);
  active_ = true;
  return Status::Ok();
}

void OnDemandRecovery::BuildIndex() {
  if (indexed_) return;
  indexed_ = true;
  for (size_t i = 0; i < redo_.size(); ++i) {
    const LogRecord& rec = redo_[i];
    if (rec.type == LogRecordType::kStructural) continue;
    if (rec.type == LogRecordType::kUpdate) {
      records_[rec.update().rid].redo.push_back(i);
    } else {
      keys_[{rec.index_op().tree_id, rec.index_op().key}].redo.push_back(i);
    }
  }
  for (size_t i = 0; i < undo_.to_undo.size(); ++i) {
    const LogRecord& rec = undo_.to_undo[i];
    if (rec.type == LogRecordType::kUpdate) {
      records_[rec.update().rid].undo.push_back(i);
    } else {
      keys_[{rec.index_op().tree_id, rec.index_op().key}].undo.push_back(i);
    }
  }

  if (tagged_) {
    // Owner map + committed-value reconstructor for the per-object tag
    // discharge (the full deferred scan builds its own).
    usn_owner_ = db_->recovery().StableUsnOwners();
    reconstructor_ = db_->recovery().MakeReconstructor(ctx_);
  }

  // Sweep order: objects by their smallest pending-obligation USN, so the
  // background drain follows the global log order.
  auto min_usn = [&](const Pending& p) {
    uint64_t lo = UINT64_MAX;
    if (!p.redo.empty()) lo = std::min(lo, redo_[p.redo.front()].usn());
    if (!p.undo.empty()) lo = std::min(lo, undo_.to_undo[p.undo.back()].usn());
    return lo;
  };
  for (const auto& [rid, p] : records_) {
    sweep_rids_.push_back(rid);
    sweep_order_.push_back({min_usn(p), {false, sweep_rids_.size() - 1}});
  }
  for (const auto& [key, p] : keys_) {
    sweep_keys_.push_back(key);
    sweep_order_.push_back({min_usn(p), {true, sweep_keys_.size() - 1}});
  }
  std::sort(sweep_order_.begin(), sweep_order_.end());
}

size_t OnDemandRecovery::pending_objects() {
  if (!active_) return 0;
  BuildIndex();
  return records_.size() + keys_.size();
}

std::map<NodeId, uint64_t> OnDemandRecovery::PendingDeadTags() const {
  std::map<NodeId, uint64_t> out;
  if (!active_ || !tagged_) return out;
  out = ctx_.inherited_dead_tags;
  for (NodeId n : ctx_.dead_set) {
    uint64_t& cutoff = out[n];
    cutoff = std::max(cutoff, ctx_.tag_scan_usn_cutoff);
  }
  return out;
}

void OnDemandRecovery::CountDischarge(Via via) {
  ++(via == Via::kTouch ? ctx_.out.first_touch_discharges
                        : ctx_.out.sweep_discharges);
}

Status OnDemandRecovery::EnsureHeapPage(NodeId performer, PageId page) {
  auto it = pending_pages_.find(page);
  if (it == pending_pages_.end()) return Status::Ok();
  SMDB_RETURN_IF_ERROR(
      db_->recovery().ReloadPage(ctx_, performer, page, whole_pages_));
  pending_pages_.erase(it);
  return Status::Ok();
}

Status OnDemandRecovery::LoadHeapPages() {
  // Table order, each page a first touch has not loaded yet on the
  // survivor that is free first.
  RecoveryManager& rm = db_->recovery();
  for (PageId p : db_->records().pages()) {
    SMDB_RETURN_IF_ERROR(EnsureHeapPage(rm.EarliestSurvivor(ctx_), p));
  }
  return Status::Ok();
}

Status OnDemandRecovery::RedoStructural() {
  // Structural changes first: index redo descends the tree, so the tree's
  // routing structure must be re-established before any entry-level record
  // is replayed (a reloaded pre-split root routes into garbage). The
  // Page-LSN and entry-USN guards make the two-phase order equivalent to a
  // strict USN-ordered replay.
  RecoveryManager& rm = db_->recovery();
  for (size_t i = 0; i < redo_.size(); ++i) {
    if (redo_done_[i] || redo_[i].type != LogRecordType::kStructural) continue;
    SMDB_RETURN_IF_ERROR(
        rm.ApplyRedoStructural(ctx_, rm.EarliestSurvivor(ctx_), redo_[i]));
    redo_done_[i] = true;
  }
  return Status::Ok();
}

Status OnDemandRecovery::Redo(NodeId performer, size_t i) {
  if (redo_done_[i]) return Status::Ok();
  const LogRecord& rec = redo_[i];
  RecoveryManager& rm = db_->recovery();
  SMDB_RETURN_IF_ERROR(rec.type == LogRecordType::kUpdate
                           ? rm.ApplyRedoUpdate(ctx_, performer, rec)
                           : rm.ApplyRedoIndexOp(ctx_, performer, rec));
  redo_done_[i] = true;
  return Status::Ok();
}

Status OnDemandRecovery::Undo(NodeId performer, size_t i) {
  if (undo_done_[i]) return Status::Ok();
  const LogRecord& rec = undo_.to_undo[i];
  TxnManager& txn = db_->txn();
  SMDB_RETURN_IF_ERROR(rec.type == LogRecordType::kUpdate
                           ? txn.ApplyUndoUpdate(performer, rec, &eng_)
                           : txn.ApplyUndoIndexOp(performer, rec, &eng_));
  undo_done_[i] = true;
  ++ctx_.out.undo_applied;
  return Status::Ok();
}

Status OnDemandRecovery::SeedRecord(NodeId performer, RecordId rid) {
  seeded_rids_.insert(rid);
  SMDB_ASSIGN_OR_RETURN(SlotImage cur,
                        db_->records().ReadSlot(performer, rid));
  auto c = undo_.clr_slots.find(cur.usn);
  if (c != undo_.clr_slots.end() && c->second.second == rid) {
    eng_.records[rid] = c->second.first;
  }
  return Status::Ok();
}

Status OnDemandRecovery::SeedKey(NodeId performer, KeyId key) {
  seeded_keys_.insert(key);
  SMDB_ASSIGN_OR_RETURN(auto entry,
                        db_->index().GetEntry(performer, key.second));
  if (!entry.has_value()) return Status::Ok();
  auto c = undo_.clr_keys.find(entry->usn);
  if (c != undo_.clr_keys.end() && c->second.second == key) {
    eng_.keys[key] = c->second.first;
  }
  return Status::Ok();
}

Status OnDemandRecovery::TouchRecord(NodeId performer, RecordId rid) {
  if (!active_ || in_discharge_) return Status::Ok();
  if (discharged_rids_.contains(rid)) return Status::Ok();
  BuildIndex();
  return DischargeRecord(performer, rid, Via::kTouch);
}

Status OnDemandRecovery::TouchKey(NodeId performer, uint32_t tree_id,
                                  uint64_t key) {
  if (!active_ || in_discharge_) return Status::Ok();
  KeyId id{tree_id, key};
  if (discharged_keys_.contains(id)) return Status::Ok();
  BuildIndex();
  return DischargeKey(performer, id, Via::kTouch);
}

Status OnDemandRecovery::DischargeRecord(NodeId performer, RecordId rid,
                                         Via via) {
  in_discharge_ = true;
  Status s = [&]() -> Status {
    SMDB_RETURN_IF_ERROR(EnsureHeapPage(performer, rid.page));
    auto it = records_.find(rid);
    if (it != records_.end()) {
      for (size_t i : it->second.redo) SMDB_RETURN_IF_ERROR(Redo(performer, i));
      if (!it->second.undo.empty() && !seeded_rids_.contains(rid)) {
        SMDB_RETURN_IF_ERROR(SeedRecord(performer, rid));
      }
      for (size_t i : it->second.undo) SMDB_RETURN_IF_ERROR(Undo(performer, i));
      records_.erase(it);
    }
    // Even a record with no logged obligations can carry a dead node's tag
    // (a purely volatile update that migrated to a surviving cache).
    if (tagged_) SMDB_RETURN_IF_ERROR(DischargeRecordTag(performer, rid));
    return Status::Ok();
  }();
  in_discharge_ = false;
  SMDB_RETURN_IF_ERROR(s);
  discharged_rids_.insert(rid);
  CountDischarge(via);
  return Status::Ok();
}

Status OnDemandRecovery::DischargeKey(NodeId performer, KeyId key, Via via) {
  in_discharge_ = true;
  Status s = [&]() -> Status {
    auto it = keys_.find(key);
    if (it != keys_.end()) {
      for (size_t i : it->second.redo) SMDB_RETURN_IF_ERROR(Redo(performer, i));
      if (!it->second.undo.empty() && !seeded_keys_.contains(key)) {
        SMDB_RETURN_IF_ERROR(SeedKey(performer, key));
      }
      for (size_t i : it->second.undo) SMDB_RETURN_IF_ERROR(Undo(performer, i));
      keys_.erase(it);
    }
    if (tagged_) SMDB_RETURN_IF_ERROR(DischargeKeyTag(performer, key));
    return Status::Ok();
  }();
  in_discharge_ = false;
  SMDB_RETURN_IF_ERROR(s);
  discharged_keys_.insert(key);
  CountDischarge(via);
  return Status::Ok();
}

Status OnDemandRecovery::DischargeRecordTag(NodeId performer, RecordId rid) {
  SMDB_ASSIGN_OR_RETURN(SlotImage img,
                        db_->records().ReadSlot(performer, rid));
  if (img.tag == kTagNone) return Status::Ok();
  NodeId tagged = NodeOfTag(img.tag);
  if (!ctx_.DeadTag(tagged, img.usn)) return Status::Ok();
  RecoveryManager& rm = db_->recovery();
  return rm.ResolveRecordTag(
      performer, rid, rm.StaleCommittedTag(ctx_, usn_owner_, img.usn, tagged),
      *reconstructor_);
}

Status OnDemandRecovery::DischargeKeyTag(NodeId performer, KeyId key) {
  RecoveryManager& rm = db_->recovery();
  // Snapshot first, then resolve each entry — a key can carry both a live
  // entry and a tombstone, with independent fates (same as the full scan).
  SMDB_ASSIGN_OR_RETURN(auto refs,
                        db_->index().EntriesForKey(performer, key.second));
  for (const auto& ref : refs) {
    if (ref.entry.tag == kTagNone) continue;
    NodeId tagged = NodeOfTag(ref.entry.tag);
    if (!ctx_.DeadTag(tagged, ref.entry.usn)) continue;
    SMDB_RETURN_IF_ERROR(rm.ResolveIndexTag(
        performer, ref,
        rm.StaleCommittedTag(ctx_, usn_owner_, ref.entry.usn, tagged)));
  }
  return Status::Ok();
}

Result<int> OnDemandRecovery::SweepStep(int max_objects) {
  if (!active_) return 0;
  BuildIndex();
  Instruments* inst = &db_->instruments();
  int done = 0;
  while (done < max_objects && sweep_pos_ < sweep_order_.size()) {
    auto [usn, which] = sweep_order_[sweep_pos_++];
    (void)usn;
    if (!which.first) {
      RecordId rid = sweep_rids_[which.second];
      if (discharged_rids_.contains(rid)) continue;  // first touch beat us
      ProfRoot root(inst, ProfPhase::kSweep);
      SMDB_RETURN_IF_ERROR(DischargeRecord(
          db_->recovery().EarliestSurvivor(ctx_), rid, Via::kSweep));
    } else {
      KeyId key = sweep_keys_[which.second];
      if (discharged_keys_.contains(key)) continue;
      ProfRoot root(inst, ProfPhase::kSweep);
      SMDB_RETURN_IF_ERROR(DischargeKey(db_->recovery().EarliestSurvivor(ctx_),
                                        key, Via::kSweep));
    }
    ++done;
  }
  if (sweep_pos_ >= sweep_order_.size() && records_.empty() && keys_.empty()) {
    SMDB_RETURN_IF_ERROR(FinishResidual());
  }
  return done;
}

Status OnDemandRecovery::FinishResidual() {
  in_discharge_ = true;
  Status s = [&]() -> Status {
    // Pages no pending object referenced still need their stable images
    // back before anything (verification, checkpoints) reads them.
    SMDB_RETURN_IF_ERROR(LoadHeapPages());
    // Tags on objects that never had logged obligations (purely volatile
    // migrated updates) are only found by the full scan.
    if (tagged_) SMDB_RETURN_IF_ERROR(db_->recovery().TagScanUndo(ctx_));
    return Status::Ok();
  }();
  in_discharge_ = false;
  SMDB_RETURN_IF_ERROR(s);
  Deactivate();
  return Status::Ok();
}

Status OnDemandRecovery::Drain() {
  RecoveryManager& rm = db_->recovery();
  in_discharge_ = true;
  Status s = [&]() -> Status {
    // 1. Heap pages, in table order (the eager prefix reloads them itself).
    if (active_) {
      SMDB_RETURN_IF_ERROR(rm.TimedPhase(ctx_, RecoveryPhase::kReload,
                                         [&] { return LoadHeapPages(); }));
    }
    // 2. Redo, global USN order — the cross-object order matters (page
    // LSNs, logical index ops). Entry-level replay stays in global USN
    // order regardless of stream count (the partitioned streams change
    // *who* performs each record, not *when*): the applied/skipped
    // decisions depend only on coherent page state, not on the performer.
    SMDB_RETURN_IF_ERROR(rm.TimedPhase(ctx_, RecoveryPhase::kRedo, [&] {
      SMDB_RETURN_IF_ERROR(RedoStructural());
      for (size_t i = 0; i < redo_.size(); ++i) {
        if (redo_done_[i]) continue;
        SMDB_RETURN_IF_ERROR(Redo(rm.RedoPerformer(ctx_, redo_[i]), i));
      }
      return Status::Ok();
    }));
    // 3. Undo: engagement seeding first (first occurrence per object over
    // the reverse-USN list), then the applies in the same order. The
    // apply order is the exact reverse-USN global order for every stream
    // count — each undo allocates a fresh USN for its CLR, so the
    // allocation order (and therefore all recovered page bytes) must be
    // stream-count-invariant. Partitioning changes only the performer.
    SMDB_RETURN_IF_ERROR(rm.TimedPhase(ctx_, RecoveryPhase::kUndo, [&] {
      for (size_t i = 0; i < undo_.to_undo.size(); ++i) {
        if (undo_done_[i]) continue;
        const LogRecord& rec = undo_.to_undo[i];
        if (rec.type == LogRecordType::kUpdate) {
          RecordId rid = rec.update().rid;
          if (seeded_rids_.contains(rid)) continue;
          SMDB_RETURN_IF_ERROR(SeedRecord(rm.UndoPerformer(ctx_, rec), rid));
        } else {
          KeyId key{rec.index_op().tree_id, rec.index_op().key};
          if (seeded_keys_.contains(key)) continue;
          SMDB_RETURN_IF_ERROR(SeedKey(rm.UndoPerformer(ctx_, rec), key));
        }
      }
      for (size_t i = 0; i < undo_.to_undo.size(); ++i) {
        if (undo_done_[i]) continue;
        SMDB_RETURN_IF_ERROR(Undo(rm.UndoPerformer(ctx_, undo_.to_undo[i]), i));
      }
      return Status::Ok();
    }));
    // 4. Tag scan (in a Recovering window, post-crash tags are excluded by
    // the USN cutoff).
    if (!tagged_) return Status::Ok();
    return rm.TimedPhase(ctx_, RecoveryPhase::kTagScan,
                         [&] { return rm.TagScanUndo(ctx_); });
  }();
  in_discharge_ = false;
  return s;
}

Status OnDemandRecovery::DrainAll() {
  if (!active_) return Status::Ok();
  SMDB_RETURN_IF_ERROR(Drain());
  Deactivate();
  return Status::Ok();
}

void OnDemandRecovery::Deactivate() {
  active_ = false;
  records_.clear();
  keys_.clear();
  SMDB_EMIT(&db_->instruments(),
            {.kind = TraceEventKind::kRecoveryDrained,
             .ts = db_->machine().GlobalTime()});
  Close();
}

}  // namespace smdb
