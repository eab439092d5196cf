#include "core/on_demand.h"

#include <algorithm>

#include "core/database.h"
#include "core/stable_state.h"

namespace smdb {

namespace {

uint64_t UsnOf(const LogRecord& rec) {
  return rec.type == LogRecordType::kUpdate ? rec.update().usn
                                            : rec.index_op().usn;
}

}  // namespace

OnDemandRecovery::OnDemandRecovery(Database* db) : db_(db) {}

OnDemandRecovery::~OnDemandRecovery() = default;

void OnDemandRecovery::Reset() {
  active_ = false;
  tagged_ = false;
  in_discharge_ = false;
  ctx_ = RecoveryManager::Ctx{};
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
  stats_ = Stats{};
}

Status OnDemandRecovery::Activate(const RecoveryManager::Ctx& ctx,
                                  std::vector<LogRecord> entry_redo,
                                  RecoveryManager::UndoWork undo) {
  Reset();
  ctx_ = ctx;
  // The context outlives crash-time recovery; transaction pointers do not.
  ctx_.crashed_active.clear();
  ctx_.surviving_active.clear();
  ctx_.lazy = true;
  // Everything minted after this instant is post-crash traffic: the
  // deferred tag handling must not classify (let alone undo) those tags.
  ctx_.tag_scan_usn_cutoff = db_->usn().current();
  restart_ = db_->config().recovery.restart;
  tagged_ = db_->config().recovery.undo_tagging() &&
            restart_ == RestartKind::kSelectiveRedo;

  redo_ = std::move(entry_redo);
  undo_ = std::move(undo);
  redo_done_.assign(redo_.size(), false);
  undo_done_.assign(undo_.to_undo.size(), false);

  for (size_t i = 0; i < redo_.size(); ++i) {
    const LogRecord& rec = redo_[i];
    if (rec.type == LogRecordType::kStructural) {
      redo_done_[i] = true;  // applied in the eager prefix
      continue;
    }
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

  // Heap pages load lazily; index pages were reloaded in the eager prefix
  // (redo, undo, and every new transaction descend the tree).
  for (PageId p : db_->records().pages()) pending_pages_.insert(p);

  if (tagged_) {
    // Stable-log USN owner map + committed-value reconstructor for the
    // per-object tag discharge (the full deferred scan rebuilds its own).
    for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
      db_->log().ForEachStable(n, [&](const LogRecord& rec) {
        if (rec.type == LogRecordType::kUpdate) {
          usn_owner_[rec.update().usn] = rec.txn;
        } else if (rec.type == LogRecordType::kIndexOp) {
          usn_owner_[rec.index_op().usn] = rec.txn;
        }
      });
    }
    reconstructor_ = std::make_unique<StableStateReconstructor>(
        &db_->machine(), &db_->log(), &db_->buffers(), &db_->records(),
        ctx_.uncommitted_ids);
  }

  // Sweep order: objects by their smallest pending-obligation USN, so the
  // background drain follows the global log order.
  auto min_usn = [&](const Pending& p) {
    uint64_t lo = UINT64_MAX;
    if (!p.redo.empty()) lo = std::min(lo, UsnOf(redo_[p.redo.front()]));
    if (!p.undo.empty()) {
      lo = std::min(lo, UsnOf(undo_.to_undo[p.undo.back()]));
    }
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

  stats_.objects_total = records_.size() + keys_.size();
  active_ = true;
  return Status::Ok();
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

bool OnDemandRecovery::StaleCommittedTag(uint64_t usn, NodeId tagged) const {
  auto it = usn_owner_.find(usn);
  if (it != usn_owner_.end()) {
    return !ctx_.uncommitted_ids.contains(it->second);
  }
  // Same truncation argument as the eager tag scan: at or below the tagged
  // node's reclaim high-water mark the record's transaction finished (the
  // commit beat the tag-clear); above it the record only ever existed in
  // the lost volatile tail — uncommitted.
  return usn <= db_->log().max_truncated_usn(tagged);
}

void OnDemandRecovery::CountDischarge(Via via) {
  switch (via) {
    case Via::kTouch: ++stats_.first_touch_discharges; break;
    case Via::kSweep: ++stats_.sweep_discharges; break;
    case Via::kDrain: ++stats_.drain_discharges; break;
  }
}

Status OnDemandRecovery::EnsureHeapPage(NodeId performer, PageId page) {
  auto it = pending_pages_.find(page);
  if (it == pending_pages_.end()) return Status::Ok();
  if (restart_ == RestartKind::kRedoAll) {
    // Redo All discarded every line; bring back the full stable image.
    SMDB_RETURN_IF_ERROR(db_->buffers().ReinstallPage(performer, page));
  } else {
    // Selective Redo re-materialises only the lines actually lost.
    SMDB_ASSIGN_OR_RETURN(
        int n, db_->buffers().ReinstallLostLines(performer, page));
    (void)n;
  }
  pending_pages_.erase(it);
  ++stats_.pages_loaded_lazily;
  return Status::Ok();
}

Status OnDemandRecovery::TouchRecord(NodeId performer, RecordId rid) {
  if (!active_ || in_discharge_) return Status::Ok();
  if (discharged_rids_.contains(rid)) return Status::Ok();
  return DischargeRecord(performer, rid, Via::kTouch);
}

Status OnDemandRecovery::TouchKey(NodeId performer, uint32_t tree_id,
                                  uint64_t key) {
  if (!active_ || in_discharge_) return Status::Ok();
  KeyId id{tree_id, key};
  if (discharged_keys_.contains(id)) return Status::Ok();
  return DischargeKey(performer, id, Via::kTouch);
}

Status OnDemandRecovery::DischargeRecord(NodeId performer, RecordId rid,
                                         Via via) {
  in_discharge_ = true;
  Status s = [&]() -> Status {
    SMDB_RETURN_IF_ERROR(EnsureHeapPage(performer, rid.page));
    auto it = records_.find(rid);
    if (it != records_.end()) {
      for (size_t i : it->second.redo) {
        if (redo_done_[i]) continue;
        SMDB_RETURN_IF_ERROR(
            db_->recovery().ApplyRedoUpdate(ctx_, performer, redo_[i]));
        redo_done_[i] = true;
      }
      // Engagement seeding right before the object's first undo — the same
      // resume-the-CLR-chain discipline as the eager pass (see
      // UndoCrashedFromStableLogs), just per object.
      if (!it->second.undo.empty() && seeded_rids_.insert(rid).second) {
        SMDB_ASSIGN_OR_RETURN(SlotImage cur,
                              db_->records().ReadSlot(performer, rid));
        auto c = undo_.clr_slots.find(cur.usn);
        if (c != undo_.clr_slots.end() && c->second.second == rid) {
          eng_.records[rid] = c->second.first;
        }
      }
      for (size_t i : it->second.undo) {
        if (undo_done_[i]) continue;
        SMDB_RETURN_IF_ERROR(
            db_->txn().ApplyUndoUpdate(performer, undo_.to_undo[i], &eng_));
        undo_done_[i] = true;
      }
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
      for (size_t i : it->second.redo) {
        if (redo_done_[i]) continue;
        SMDB_RETURN_IF_ERROR(
            db_->recovery().ApplyRedoIndexOp(ctx_, performer, redo_[i]));
        redo_done_[i] = true;
      }
      if (!it->second.undo.empty() && seeded_keys_.insert(key).second) {
        SMDB_ASSIGN_OR_RETURN(auto entry,
                              db_->index().GetEntry(performer, key.second));
        if (entry.has_value()) {
          auto c = undo_.clr_keys.find(entry->usn);
          if (c != undo_.clr_keys.end() && c->second.second == key) {
            eng_.keys[key] = c->second.first;
          }
        }
      }
      for (size_t i : it->second.undo) {
        if (undo_done_[i]) continue;
        SMDB_RETURN_IF_ERROR(
            db_->txn().ApplyUndoIndexOp(performer, undo_.to_undo[i], &eng_));
        undo_done_[i] = true;
      }
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
  RecordStore& rs = db_->records();
  Machine& m = db_->machine();
  SMDB_ASSIGN_OR_RETURN(SlotImage img, rs.ReadSlot(performer, rid));
  if (img.tag == kTagNone) return Status::Ok();
  NodeId tagged = NodeOfTag(img.tag);
  if (!ctx_.DeadTag(tagged, img.usn)) return Status::Ok();
  if (StaleCommittedTag(img.usn, tagged)) {
    // Commit happened; only the tag-clear was lost. Clear it now.
    LineAddr line = rs.SlotLine(rid);
    SMDB_RETURN_IF_ERROR(m.GetLine(performer, line));
    Status st = rs.WriteTag(performer, rid, kTagNone);
    m.ReleaseLine(performer, line);
    return st;
  }
  // Undo: install the last committed value (from stable store).
  SMDB_ASSIGN_OR_RETURN(SlotImage committed,
                        reconstructor_->CommittedValue(performer, rid));
  LineAddr header_line = rs.HeaderLine(rid.page);
  LineAddr record_line = rs.SlotLine(rid);
  SMDB_RETURN_IF_ERROR(m.GetLine(performer, header_line));
  Status st = m.GetLine(performer, record_line);
  if (!st.ok()) {
    m.ReleaseLine(performer, header_line);
    return st;
  }
  uint64_t usn = db_->usn().Next();
  SlotImage img2;
  img2.usn = usn;
  img2.tag = kTagNone;
  img2.data = committed.data;
  Status w = rs.WriteSlot(performer, rid, img2);
  if (w.ok()) w = rs.WritePageLsn(performer, rid.page, usn);
  m.ReleaseLine(performer, record_line);
  m.ReleaseLine(performer, header_line);
  SMDB_RETURN_IF_ERROR(w);
  db_->buffers().MarkDirty(rid.page);
  return Status::Ok();
}

Status OnDemandRecovery::DischargeKeyTag(NodeId performer, KeyId key) {
  BTree& index = db_->index();
  // Snapshot first, then resolve each entry — a key can carry both a live
  // entry and a tombstone, with independent fates (same as the full scan).
  SMDB_ASSIGN_OR_RETURN(auto refs, index.EntriesForKey(performer, key.second));
  for (const auto& ref : refs) {
    if (ref.entry.tag == kTagNone) continue;
    NodeId tagged = NodeOfTag(ref.entry.tag);
    if (!ctx_.DeadTag(tagged, ref.entry.usn)) continue;
    if (StaleCommittedTag(ref.entry.usn, tagged)) {
      SMDB_RETURN_IF_ERROR(index.ClearTag(performer, key.second));
    } else if (ref.entry.state == LeafEntryState::kLive) {
      // Undo of an uncommitted insert: physical removal.
      SMDB_RETURN_IF_ERROR(index.RemoveEntryAt(performer, ref.leaf, ref.slot));
    } else {
      // Undo of an uncommitted logical delete: unmark.
      SMDB_RETURN_IF_ERROR(index.UnmarkEntryAt(performer, ref.leaf, ref.slot));
    }
  }
  return Status::Ok();
}

Result<int> OnDemandRecovery::SweepStep(int max_objects) {
  if (!active_) return 0;
  Instruments* inst = &db_->instruments();
  int done = 0;
  while (done < max_objects && sweep_pos_ < sweep_order_.size()) {
    auto [usn, which] = sweep_order_[sweep_pos_++];
    (void)usn;
    if (!which.first) {
      RecordId rid = sweep_rids_[which.second];
      if (discharged_rids_.contains(rid)) continue;  // first touch beat us
      ProfRoot root(inst, ProfPhase::kSweep);
      SMDB_RETURN_IF_ERROR(
          DischargeRecord(ctx_.NextSurvivor(), rid, Via::kSweep));
    } else {
      KeyId key = sweep_keys_[which.second];
      if (discharged_keys_.contains(key)) continue;
      ProfRoot root(inst, ProfPhase::kSweep);
      SMDB_RETURN_IF_ERROR(
          DischargeKey(ctx_.NextSurvivor(), key, Via::kSweep));
    }
    ++done;
  }
  if (sweep_pos_ >= sweep_order_.size() && pending_objects() == 0) {
    SMDB_RETURN_IF_ERROR(FinishResidual());
  }
  return done;
}

Status OnDemandRecovery::FinishResidual() {
  in_discharge_ = true;
  Status s = [&]() -> Status {
    // Pages no pending object referenced still need their stable images
    // back before anything (verification, checkpoints) reads them.
    for (PageId p : db_->records().pages()) {
      SMDB_RETURN_IF_ERROR(EnsureHeapPage(ctx_.NextSurvivor(), p));
    }
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

Status OnDemandRecovery::DrainAll() {
  if (!active_) return Status::Ok();
  RecoveryManager& rm = db_->recovery();
  const size_t remaining = records_.size() + keys_.size();
  in_discharge_ = true;
  Status s = [&]() -> Status {
    // 1. Remaining heap pages, in table order (the eager reload order).
    for (PageId p : db_->records().pages()) {
      SMDB_RETURN_IF_ERROR(EnsureHeapPage(ctx_.NextSurvivor(), p));
    }
    // 2. Remaining entry-level redo, global USN order — the cross-object
    // order matters (page LSNs, logical index ops), exactly as in the
    // eager replay.
    for (size_t i = 0; i < redo_.size(); ++i) {
      if (redo_done_[i]) continue;
      const LogRecord& rec = redo_[i];
      NodeId performer = rm.RedoPerformer(ctx_, rec);
      if (rec.type == LogRecordType::kUpdate) {
        SMDB_RETURN_IF_ERROR(rm.ApplyRedoUpdate(ctx_, performer, rec));
      } else {
        SMDB_RETURN_IF_ERROR(rm.ApplyRedoIndexOp(ctx_, performer, rec));
      }
      redo_done_[i] = true;
    }
    // 3. Remaining undo: engagement seeding first (first occurrence per
    // object over the reverse-USN list), then the applies in the same
    // order — the eager pass's exact discipline.
    for (size_t i = 0; i < undo_.to_undo.size(); ++i) {
      if (undo_done_[i]) continue;
      const LogRecord& rec = undo_.to_undo[i];
      if (rec.type == LogRecordType::kUpdate) {
        RecordId rid = rec.update().rid;
        if (!seeded_rids_.insert(rid).second) continue;
        SMDB_ASSIGN_OR_RETURN(
            SlotImage cur,
            db_->records().ReadSlot(rm.UndoPerformer(ctx_, rec), rid));
        auto c = undo_.clr_slots.find(cur.usn);
        if (c != undo_.clr_slots.end() && c->second.second == rid) {
          eng_.records[rid] = c->second.first;
        }
      } else {
        const IndexOpPayload& op = rec.index_op();
        KeyId key{op.tree_id, op.key};
        if (!seeded_keys_.insert(key).second) continue;
        SMDB_ASSIGN_OR_RETURN(
            auto entry,
            db_->index().GetEntry(rm.UndoPerformer(ctx_, rec), op.key));
        if (!entry.has_value()) continue;
        auto c = undo_.clr_keys.find(entry->usn);
        if (c != undo_.clr_keys.end() && c->second.second == key) {
          eng_.keys[key] = c->second.first;
        }
      }
    }
    for (size_t i = 0; i < undo_.to_undo.size(); ++i) {
      if (undo_done_[i]) continue;
      const LogRecord& rec = undo_.to_undo[i];
      NodeId performer = rm.UndoPerformer(ctx_, rec);
      if (rec.type == LogRecordType::kUpdate) {
        SMDB_RETURN_IF_ERROR(db_->txn().ApplyUndoUpdate(performer, rec, &eng_));
      } else {
        SMDB_RETURN_IF_ERROR(
            db_->txn().ApplyUndoIndexOp(performer, rec, &eng_));
      }
      undo_done_[i] = true;
    }
    // 4. Deferred tag scan (post-crash tags excluded by the USN cutoff).
    if (tagged_) SMDB_RETURN_IF_ERROR(rm.TagScanUndo(ctx_));
    return Status::Ok();
  }();
  in_discharge_ = false;
  SMDB_RETURN_IF_ERROR(s);
  stats_.drain_discharges += remaining;
  records_.clear();
  keys_.clear();
  Deactivate();
  return Status::Ok();
}

void OnDemandRecovery::Deactivate() {
  active_ = false;
  SMDB_EMIT(&db_->instruments(),
            {.kind = TraceEventKind::kRecoveryDrained,
             .ts = db_->machine().GlobalTime()});
}

}  // namespace smdb
