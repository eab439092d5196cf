#include "txn/txn_manager.h"

#include <algorithm>
#include <cassert>

#include "db/page_layout.h"
#include "sim/machine.h"
#include "wal/group_commit.h"

namespace smdb {

TxnManager::TxnManager(Machine* machine, LogManager* log, LockTable* locks,
                       RecordStore* records, BTree* index, WalTable* wal_table,
                       BufferManager* buffers, LbmPolicy* lbm, UsnSource* usn,
                       RecoveryConfig config, Instruments* inst)
    : machine_(machine),
      log_(log),
      locks_(locks),
      records_(records),
      index_(index),
      wal_table_(wal_table),
      buffers_(buffers),
      lbm_(lbm),
      usn_(usn),
      inst_(inst),
      config_(config) {
  next_seq_.assign(machine_->num_nodes(), 0);
}

Transaction* TxnManager::Begin(NodeId node) {
  TxnId id = MakeTxnId(node, ++next_seq_[node]);
  auto txn = std::make_unique<Transaction>();
  txn->id = id;
  txn->begin_seq = ++begin_counter_;
  txn->begin_ts = machine_->NodeClock(node);
  Transaction* ptr = txn.get();
  txns_[id] = std::move(txn);
  LogRecord rec;
  rec.type = LogRecordType::kBegin;
  rec.txn = id;
  rec.payload = BeginPayload{};
  ptr->last_lsn = log_->Append(node, std::move(rec));
  ptr->first_lsn = ptr->last_lsn;
  ++stats_.begins;
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kTxnBegin,
                    .node = node,
                    .txn = id,
                    .ts = machine_->NodeClock(node),
                    .a = ptr->first_lsn,
                    .begin_ts = ptr->begin_ts});
  for (auto* obs : observers_) obs->OnBegin(id);
  return ptr;
}

Transaction* TxnManager::Find(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

std::vector<Transaction*> TxnManager::ActiveOn(NodeId node) {
  std::vector<Transaction*> out;
  for (auto& [id, txn] : txns_) {
    if (txn->state == TxnState::kActive && txn->node() == node) {
      out.push_back(txn.get());
    }
  }
  return out;
}

std::vector<Transaction*> TxnManager::ActiveAll() {
  std::vector<Transaction*> out;
  for (auto& [id, txn] : txns_) {
    if (txn->state == TxnState::kActive) out.push_back(txn.get());
  }
  return out;
}

bool TxnManager::WouldDeadlock(Transaction* txn, uint64_t name) {
  // DFS over the waits-for graph: txn -> holders(name) -> what they wait
  // for -> ... A cycle back to txn means the queue attempt would deadlock.
  std::set<TxnId> visited;
  std::vector<uint64_t> frontier = {name};
  while (!frontier.empty()) {
    uint64_t n = frontier.back();
    frontier.pop_back();
    auto holders = locks_->Holders(txn->node(), n);
    if (!holders.ok()) continue;
    for (const auto& h : *holders) {
      if (h.txn == txn->id) return true;
      if (!visited.insert(h.txn).second) continue;
      auto it = waiting_for_.find(h.txn);
      if (it != waiting_for_.end()) frontier.push_back(it->second);
    }
  }
  return false;
}

Status TxnManager::AcquireLock(Transaction* txn, uint64_t name,
                               LockMode mode) {
  if (txn->granted_locks.contains(name)) {
    // Fast path re-acquire; the lock table resolves upgrades.
    if (mode == LockMode::kShared) return Status::Ok();
  }
  auto res_or = locks_->Acquire(txn->node(), txn->id, name, mode,
                                &txn->last_lsn);
  if (!res_or.ok()) {
    if (res_or.status().IsTryAgain()) {
      // Capacity rejection (full waiter list / probe window): the caller
      // must re-issue the acquire. The transaction is logically waiting on
      // `name` even though it holds no queue slot, so register the edge for
      // deadlock detection (a spinner holding other locks can deadlock with
      // a queued waiter).
      if (WouldDeadlock(txn, name)) {
        ++stats_.deadlock_aborts;
        return Status::Deadlock("waits-for cycle (while spinning)");
      }
      waiting_for_[txn->id] = name;
    }
    return res_or.status();
  }
  LockResult res = *res_or;
  if (res == LockResult::kGranted) {
    txn->granted_locks.insert(name);
    txn->queued_locks.erase(name);
    waiting_for_.erase(txn->id);
    return Status::Ok();
  }
  txn->queued_locks.insert(name);
  if (WouldDeadlock(txn, name)) {
    ++stats_.deadlock_aborts;
    return Status::Deadlock("waits-for cycle");
  }
  waiting_for_[txn->id] = name;
  return Status::Busy("lock queued");
}

Result<LockResult> TxnManager::PollLock(Transaction* txn, uint64_t name,
                                        LockMode mode) {
  SMDB_ASSIGN_OR_RETURN(
      LockResult res,
      locks_->PollGrant(txn->node(), txn->id, name, mode, &txn->last_lsn));
  if (res == LockResult::kGranted) {
    txn->granted_locks.insert(name);
    txn->queued_locks.erase(name);
    waiting_for_.erase(txn->id);
  }
  return res;
}

Result<std::vector<uint8_t>> TxnManager::Read(Transaction* txn, RecordId rid) {
  SMDB_RETURN_IF_ERROR(
      AcquireLock(txn, RecordLockName(rid), LockMode::kShared));
  if (touch_record_) SMDB_RETURN_IF_ERROR(touch_record_(txn->node(), rid));
  SlotImage img;
  {
    ProfScope apply(inst_, ProfPhase::kApply);
    SMDB_ASSIGN_OR_RETURN(img, records_->ReadSlot(txn->node(), rid));
  }
  ++stats_.reads;
  return img.data;
}

Result<std::vector<uint8_t>> TxnManager::DirtyRead(NodeId node, RecordId rid) {
  if (touch_record_) SMDB_RETURN_IF_ERROR(touch_record_(node, rid));
  ProfScope apply(inst_, ProfPhase::kApply);
  SMDB_ASSIGN_OR_RETURN(SlotImage img, records_->ReadSlot(node, rid));
  return img.data;
}

Status TxnManager::DoUpdate(Transaction* txn, RecordId rid,
                            const std::vector<uint8_t>& value) {
  ProfScope apply(inst_, ProfPhase::kApply);
  NodeId node = txn->node();
  SlotImage img;
  img.tag = config_.undo_tagging() ? TagForNode(node) : kTagNone;
  img.data = value;
  // Ordered-update-logging via line locks (section 6): the log record is
  // written while the lines are pinned locally, which enforces Volatile
  // LBM.
  SlotImage cur;
  Lsn lsn = kInvalidLsn;
  SMDB_RETURN_IF_ERROR(records_->InstallSlot(
      node, rid, std::move(img), usn_, &cur, [&](uint64_t usn) {
        LogRecord rec;
        rec.type = LogRecordType::kUpdate;
        rec.txn = txn->id;
        rec.prev_lsn = txn->last_lsn;
        UpdatePayload up;
        up.rid = rid;
        up.usn = usn;
        up.before_usn = cur.usn;
        up.before = cur.data;
        up.after = value;
        rec.payload = std::move(up);
        lsn = log_->Append(node, std::move(rec));
        txn->last_lsn = lsn;
        return lbm_->OnUpdateLogged(node, lsn,
                                    {records_->SlotLine(rid),
                                     records_->HeaderLine(rid.page)});
      }));
  wal_table_->NoteUpdate(rid.page, node, lsn);
  buffers_->MarkDirty(rid.page);
  if (config_.undo_tagging()) ++stats_.undo_tag_writes;
  return Status::Ok();
}

Status TxnManager::Update(Transaction* txn, RecordId rid,
                          const std::vector<uint8_t>& value) {
  if (value.size() != records_->layout().record_data_size()) {
    return Status::InvalidArgument("value size != record size");
  }
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, RecordLockName(rid),
                                   LockMode::kExclusive));
  if (touch_record_) SMDB_RETURN_IF_ERROR(touch_record_(txn->node(), rid));
  SMDB_RETURN_IF_ERROR(DoUpdate(txn, rid, value));
  txn->updated_records.push_back(rid);
  ++stats_.updates;
  for (auto* obs : observers_) obs->OnUpdate(txn->id, rid, value);
  return Status::Ok();
}

Status TxnManager::IndexInsert(Transaction* txn, uint64_t key,
                               RecordId value) {
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, KeyLockName(index_->tree_id(), key),
                                   LockMode::kExclusive));
  if (touch_key_) {
    SMDB_RETURN_IF_ERROR(touch_key_(txn->node(), index_->tree_id(), key));
  }
  uint16_t tag =
      config_.undo_tagging() ? TagForNode(txn->node()) : kTagNone;
  {
    ProfScope descent(inst_, ProfPhase::kIndexDescent);
    SMDB_RETURN_IF_ERROR(index_->Insert(txn->node(), txn->id, key, value,
                                        tag, &txn->last_lsn));
  }
  txn->index_keys.emplace_back(index_->tree_id(), key);
  for (auto* obs : observers_) {
    obs->OnIndexInsert(txn->id, index_->tree_id(), key, value);
  }
  return Status::Ok();
}

Status TxnManager::IndexDelete(Transaction* txn, uint64_t key) {
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, KeyLockName(index_->tree_id(), key),
                                   LockMode::kExclusive));
  if (touch_key_) {
    SMDB_RETURN_IF_ERROR(touch_key_(txn->node(), index_->tree_id(), key));
  }
  uint16_t tag =
      config_.undo_tagging() ? TagForNode(txn->node()) : kTagNone;
  const std::pair<uint32_t, uint64_t> tree_key(index_->tree_id(), key);
  const bool own_key =
      std::find(txn->index_keys.begin(), txn->index_keys.end(), tree_key) !=
      txn->index_keys.end();
  {
    ProfScope descent(inst_, ProfPhase::kIndexDescent);
    SMDB_RETURN_IF_ERROR(index_->Delete(txn->node(), txn->id, key, tag,
                                        &txn->last_lsn, own_key));
  }
  txn->index_keys.push_back(tree_key);
  for (auto* obs : observers_) {
    obs->OnIndexDelete(txn->id, index_->tree_id(), key);
  }
  return Status::Ok();
}

Result<std::optional<RecordId>> TxnManager::IndexLookup(Transaction* txn,
                                                        uint64_t key) {
  SMDB_RETURN_IF_ERROR(AcquireLock(txn, KeyLockName(index_->tree_id(), key),
                                   LockMode::kShared));
  if (touch_key_) {
    SMDB_RETURN_IF_ERROR(touch_key_(txn->node(), index_->tree_id(), key));
  }
  ProfScope descent(inst_, ProfPhase::kIndexDescent);
  return index_->Lookup(txn->node(), key);
}

Status TxnManager::Commit(Transaction* txn) {
  assert(txn->state == TxnState::kActive);
  NodeId node = txn->node();

  // 1. Commit record + force: the durable commit point. With the
  // group-commit pipeline the force is deferred — the record joins the
  // node's pending batch and the transaction stays kActive (holding its
  // locks) until a covering force lands. Acknowledgement strictly after
  // durability preserves IFA: no observer learns of the commit while a
  // crash could still annul it.
  LogRecord rec;
  rec.type = LogRecordType::kCommit;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.payload = CommitPayload{};
  txn->last_lsn = log_->Append(node, std::move(rec));
  if (gc_ != nullptr) {
    SMDB_RETURN_IF_ERROR(gc_->EnqueueCommit(node, txn->id, txn->last_lsn));
    if (!log_->IsStable(node, txn->last_lsn)) {
      SMDB_EMIT(inst_, {.kind = TraceEventKind::kTxnCommitWait,
                        .node = node,
                        .txn = txn->id,
                        .ts = machine_->NodeClock(node),
                        .a = txn->last_lsn});
      return Status::Busy("commit pending group force");
    }
    // The enqueue itself tripped the size bound (or the record was already
    // covered): complete immediately.
    gc_->DropCommit(txn->id);
    return FinishCommit(txn);
  }
  SMDB_RETURN_IF_ERROR(log_->Force(node, node));
  return FinishCommit(txn);
}

Status TxnManager::PollCommit(Transaction* txn) {
  if (gc_ == nullptr) {
    return Status::InvalidArgument("group commit is not enabled");
  }
  if (txn->state == TxnState::kCommitted) return Status::Ok();
  if (txn->state != TxnState::kActive) {
    return Status::InvalidArgument("polled transaction is not pending");
  }
  NodeId node = txn->node();
  SMDB_RETURN_IF_ERROR(gc_->Poll(node));
  if (!log_->IsStable(node, txn->last_lsn)) {
    return Status::Busy("commit pending group force");
  }
  gc_->DropCommit(txn->id);
  return FinishCommit(txn);
}

SimTime TxnManager::CommitWakeTime(const Transaction* txn) const {
  if (gc_ == nullptr || txn->state != TxnState::kActive) return 0;
  if (log_->IsStable(txn->node(), txn->last_lsn)) return 0;
  return gc_->DeadlineAt(txn->node());
}

Status TxnManager::FinishCommit(Transaction* txn) {
  NodeId node = txn->node();

  // 2. Clear undo tags ("once the data is no longer active, the node ID is
  // assigned a null value"). Safe after the commit point: the restart
  // procedure checks the stable log before undoing a tagged record, so a
  // crash in this window cannot roll back committed data.
  if (config_.undo_tagging()) {
    std::set<RecordId> seen(txn->updated_records.begin(),
                            txn->updated_records.end());
    // During on-demand recovery, discharge each object's lazy obligations
    // before clearing its tag — a tag clear must never race with a pending
    // redo/undo for the same object.
    if (touch_record_) {
      for (RecordId rid : seen) SMDB_RETURN_IF_ERROR(touch_record_(node, rid));
    }
    if (touch_key_) {
      for (const auto& [tree, key] : txn->index_keys) {
        SMDB_RETURN_IF_ERROR(touch_key_(node, tree, key));
      }
    }
    for (RecordId rid : seen) {
      SMDB_RETURN_IF_ERROR(records_->ClearTag(node, rid));
    }
    std::set<std::pair<uint32_t, uint64_t>> keys(txn->index_keys.begin(),
                                                 txn->index_keys.end());
    ProfScope descent(inst_, ProfPhase::kIndexDescent);
    for (const auto& [tree, key] : keys) {
      (void)tree;
      Status s = index_->ClearTag(node, key);
      // The entry may have been physically removed already (a delete of
      // this transaction's own insert); nothing to clear then.
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }

  // 3. Strict 2PL: release all locks only now.
  return Complete(txn, End::kCommit);
}

Status TxnManager::Complete(Transaction* txn, End end) {
  const NodeId node = txn->node();
  const bool commit = end == End::kCommit || end == End::kResolvedCommit;
  if (end == End::kCommit || end == End::kAbort) {
    std::set<uint64_t> names = txn->granted_locks;
    names.insert(txn->queued_locks.begin(), txn->queued_locks.end());
    for (uint64_t name : names) {
      SMDB_RETURN_IF_ERROR(locks_->Release(node, txn->id, name,
                                           &txn->last_lsn));
    }
  }
  txn->granted_locks.clear();
  txn->queued_locks.clear();
  waiting_for_.erase(txn->id);
  txn->state = commit ? TxnState::kCommitted : TxnState::kAborted;
  if (commit) {
    ++stats_.commits;
  } else if (end == End::kAbort) {
    ++stats_.aborts;
  }
  const char* label = end == End::kResolvedCommit ? "resolved"
                      : end == End::kAnnulled     ? "annulled"
                                                  : nullptr;
  SMDB_EMIT(inst_, {.kind = commit ? TraceEventKind::kTxnCommit
                                   : TraceEventKind::kTxnAbort,
                    .node = node,
                    .txn = txn->id,
                    .ts = machine_->NodeClock(node),
                    .label = label,
                    .begin_ts = txn->begin_ts});
  for (auto* obs : observers_) {
    if (commit) {
      obs->OnCommit(txn->id);
    } else {
      obs->OnAbort(txn->id);
    }
  }
  return Status::Ok();
}

Status TxnManager::ResolvePendingCommits() {
  resolved_commit_ids_.clear();
  if (gc_ == nullptr) return Status::Ok();
  for (const auto& [node, pc] : gc_->PendingCommits()) {
    if (!log_->IsStable(node, pc.lsn)) continue;
    Transaction* txn = Find(pc.txn);
    gc_->DropCommit(pc.txn);
    if (txn == nullptr || txn->state != TxnState::kActive) continue;
    // The commit record is durable, so the transaction is committed — its
    // log decides — whether or not its node survived. We cannot run the
    // normal acknowledgement here: the node may be dead, and even on a
    // live node the machine is mid-crash (a line holding one of the
    // transaction's records may have migrated to the crashed node and not
    // be restored yet). Complete the bookkeeping only; RecoverLockTable
    // drops the LCB entries via resolved_commit_ids(), and leftover undo
    // tags are cleared lazily by the tag scan's stale-committed path
    // (identical to a crash landing between a synchronous commit's force
    // and its tag clears).
    SMDB_RETURN_IF_ERROR(Complete(txn, End::kResolvedCommit));
    resolved_commit_ids_.insert(txn->id);
  }
  return Status::Ok();
}

bool TxnManager::TryFinishDurablePendingCommit(Transaction* txn) {
  if (gc_ == nullptr || txn->state != TxnState::kActive) return false;
  Lsn lsn = gc_->PendingCommitLsn(txn->id);
  if (lsn == kInvalidLsn) return false;
  if (!log_->IsStable(txn->node(), lsn)) return false;
  gc_->DropCommit(txn->id);
  return FinishCommit(txn).ok();
}

Status TxnManager::ApplyUndoUpdate(NodeId performer, const LogRecord& rec,
                                   UndoEngagement* eng) {
  const UpdatePayload& u = rec.update();
  assert(!u.is_clr);
  SMDB_ASSIGN_OR_RETURN(SlotImage cur, records_->ReadSlot(performer, u.rid));
  auto it = eng->records.find(u.rid);
  bool engaged = it != eng->records.end() && it->second == rec.txn;
  if (cur.usn == u.usn) engaged = true;
  if (!engaged) {
    // Either the update never reached the surviving copy, or a later
    // (committed or compensating) version legitimately overwrote it.
    return Status::Ok();
  }
  eng->records[u.rid] = rec.txn;
  // Install the before image as a compensation update on the performer's
  // log (redo-only; never undone).
  SlotImage img;
  img.data = u.before;
  Lsn lsn = kInvalidLsn;
  SMDB_RETURN_IF_ERROR(records_->InstallSlot(
      performer, u.rid, std::move(img), usn_, nullptr, [&](uint64_t usn) {
        LogRecord clr;
        clr.type = LogRecordType::kUpdate;
        clr.txn = rec.txn;
        UpdatePayload cp;
        cp.rid = u.rid;
        cp.usn = usn;
        cp.before_usn = cur.usn;
        cp.before = cur.data;
        cp.after = u.before;
        cp.is_clr = true;
        clr.payload = std::move(cp);
        lsn = log_->Append(performer, std::move(clr));
        return lbm_->OnUpdateLogged(performer, lsn,
                                    {records_->SlotLine(u.rid),
                                     records_->HeaderLine(u.rid.page)});
      }));
  wal_table_->NoteUpdate(u.rid.page, performer, lsn);
  buffers_->MarkDirty(u.rid.page);
  return Status::Ok();
}

Status TxnManager::ApplyUndoIndexOp(NodeId performer, const LogRecord& rec,
                                    UndoEngagement* eng) {
  const IndexOpPayload& op = rec.index_op();
  assert(!op.is_clr);
  SMDB_ASSIGN_OR_RETURN(auto entry, index_->GetEntry(performer, op.key));
  auto mkey = std::make_pair(op.tree_id, op.key);
  auto it = eng->keys.find(mkey);
  bool engaged = it != eng->keys.end() && it->second == rec.txn;
  if (entry.has_value() && entry->usn == op.usn) engaged = true;
  if (!engaged) return Status::Ok();
  eng->keys[mkey] = rec.txn;
  if (op.op == IndexOpPayload::Op::kInsert) {
    return index_->UndoInsert(performer, rec.txn, op.key, nullptr,
                              /*log_clr=*/true);
  }
  if (!entry.has_value()) return Status::Ok();  // nothing left to unmark
  Status s = index_->UndoDelete(performer, rec.txn, op.key, nullptr,
                                /*log_clr=*/true);
  // An engaged chain being *resumed* (recovery re-undo) may land on a delete
  // whose compensation already ran — the entry is live again and there is no
  // tombstone left. Skipping it continues the chain at the next older record.
  if (s.IsNotFound()) return Status::Ok();
  return s;
}

Status TxnManager::Abort(Transaction* txn) {
  assert(txn->state == TxnState::kActive);
  NodeId node = txn->node();

  if (gc_ != nullptr) {
    // Withdraw a pending group commit before undoing anything. Once the
    // commit record is durable the transaction is committed — its log
    // decides — and can no longer abort.
    Lsn pending = gc_->PendingCommitLsn(txn->id);
    if (pending != kInvalidLsn) {
      if (log_->IsStable(node, pending)) {
        return Status::InvalidArgument("cannot abort: commit already durable");
      }
      gc_->DropCommit(txn->id);
      // The withdrawn record leaves an LSN gap and txn->last_lsn keeps
      // pointing at it; both are harmless — redo is USN-guarded and no
      // recovery scan follows prev_lsn chains or requires contiguity.
      log_->AnnulVolatile(node, pending);
    }
  }

  // Collect this transaction's loggable operations from its own (intact)
  // log, from its first record on: checkpoints never truncate past an
  // active transaction's first record.
  std::vector<LogRecord> ops;
  log_->ForEachFrom(node, txn->first_lsn, [&](const LogRecord& rec) {
    if (rec.txn == txn->id && rec.undoable()) ops.push_back(rec);
  });
  // During on-demand recovery, discharge lazy obligations on every object
  // this rollback will touch, so the undo's before-images land on fully
  // recovered state.
  for (const LogRecord& rec : ops) {
    if (rec.type == LogRecordType::kUpdate) {
      if (touch_record_) {
        SMDB_RETURN_IF_ERROR(touch_record_(node, rec.update().rid));
      }
    } else if (touch_key_) {
      SMDB_RETURN_IF_ERROR(
          touch_key_(node, rec.index_op().tree_id, rec.index_op().key));
    }
  }
  UndoEngagement eng;
  for (auto it = ops.rbegin(); it != ops.rend(); ++it) {
    if (it->type == LogRecordType::kUpdate) {
      SMDB_RETURN_IF_ERROR(ApplyUndoUpdate(node, *it, &eng));
    } else {
      SMDB_RETURN_IF_ERROR(ApplyUndoIndexOp(node, *it, &eng));
    }
  }

  LogRecord rec;
  rec.type = LogRecordType::kAbort;
  rec.txn = txn->id;
  rec.prev_lsn = txn->last_lsn;
  rec.payload = AbortPayload{};
  txn->last_lsn = log_->Append(node, std::move(rec));
  return Complete(txn, End::kAbort);
}

void TxnManager::MarkCrashAnnulled(Transaction* txn) {
  if (txn->state != TxnState::kActive) return;
  if (gc_ != nullptr) gc_->DropCommit(txn->id);
  (void)Complete(txn, End::kAnnulled);  // releases nothing, cannot fail
}

}  // namespace smdb
