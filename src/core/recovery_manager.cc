#include "core/recovery_manager.h"

#include <algorithm>
#include <sstream>

#include "common/hash.h"
#include "core/database.h"
#include "core/on_demand.h"
#include "core/stable_state.h"
#include "db/page_layout.h"
#include "obs/instruments.h"

namespace smdb {

const char* RecoveryPhaseName(RecoveryPhase phase) {
  switch (phase) {
    case RecoveryPhase::kLogAnalysis: return "log_analysis";
    case RecoveryPhase::kReboot: return "reboot";
    case RecoveryPhase::kReload: return "reload";
    case RecoveryPhase::kRedo: return "redo";
    case RecoveryPhase::kUndo: return "undo";
    case RecoveryPhase::kTagScan: return "tag_scan";
    case RecoveryPhase::kLockRebuild: return "lock_rebuild";
  }
  return "unknown";
}

std::string RecoveryOutcome::ToString() const {
  std::ostringstream os;
  os << "crashed=[";
  for (size_t i = 0; i < crashed_nodes.size(); ++i) {
    if (i > 0) os << ",";
    os << crashed_nodes[i];
  }
  os << "] annulled=" << annulled.size() << " preserved=" << preserved.size()
     << " forced_aborts=" << forced_aborts.size()
     << " redo_applied=" << redo_applied << " redo_skipped=" << redo_skipped
     << " undo_applied=" << undo_applied
     << " pages_reloaded=" << pages_reloaded
     << " lines_reinstalled=" << lines_reinstalled
     << " stable_reads=" << stable_reads
     << " lcb_lines_cleared=" << lcb_lines_cleared
     << " lcbs_rebuilt=" << lcbs_rebuilt << " locks_dropped=" << locks_dropped
     << " tags_scanned=" << tags_scanned << " tag_undos=" << tag_undos
     << " recovery_time_ns=" << recovery_time_ns;
  for (size_t i = 0; i < kNumRecoveryPhases; ++i) {
    if (phase_ns[i] == 0) continue;
    os << " " << RecoveryPhaseName(static_cast<RecoveryPhase>(i))
       << "_ns=" << phase_ns[i];
  }
  if (first_touch_discharges != 0) {
    os << " first_touch_discharges=" << first_touch_discharges;
  }
  if (sweep_discharges != 0) os << " sweep_discharges=" << sweep_discharges;
  os << (whole_machine_restart ? " WHOLE-MACHINE-RESTART" : "");
  return os.str();
}

RecoveryManager::RecoveryManager(Database* db) : db_(db) {}

namespace {

/// splitmix64 finaliser: spreads index keys across worker streams.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t KeyPartition(const IndexOpPayload& op) {
  return Mix64(op.key ^ (uint64_t{op.tree_id} << 32));
}

/// Pins stream i to survivors[i % survivors]: with W <= survivors each
/// stream owns a distinct node clock; with W > survivors the extra streams
/// share performers (the simulated machine has no more parallelism to
/// give, but determinism is preserved).
void PinStreams(std::vector<NodeId>* streams, uint32_t num_streams,
                const std::vector<NodeId>& survivors) {
  streams->clear();
  for (uint32_t i = 0; i < num_streams; ++i) {
    streams->push_back(survivors[i % survivors.size()]);
  }
}

}  // namespace

NodeId RecoveryManager::EarliestSurvivor(const Ctx& ctx) const {
  return db_->machine().EarliestOf(ctx.survivors);
}

const std::vector<uint8_t>* RecoveryManager::StableImage(Ctx& ctx,
                                                         NodeId performer,
                                                         PageId page) {
  auto it = ctx.stable_images.find(page);
  if (it != ctx.stable_images.end()) return &it->second;
  std::vector<uint8_t> image;
  if (!db_->buffers().ReadStableImage(performer, page, &image).ok()) {
    return nullptr;
  }
  ++ctx.out.stable_reads;
  return &ctx.stable_images.emplace(page, std::move(image)).first->second;
}

std::unique_ptr<StableStateReconstructor> RecoveryManager::MakeReconstructor(
    Ctx& ctx) {
  return std::make_unique<StableStateReconstructor>(
      &db_->machine(), &db_->log(), &db_->records(), ctx.uncommitted_ids,
      [this, &ctx](NodeId performer, PageId page) {
        return StableImage(ctx, performer, page);
      });
}

NodeId RecoveryManager::RedoPerformer(const Ctx& ctx,
                                      const LogRecord& rec) const {
  if (ctx.num_streams <= 1) {
    // Legacy serial rule: a surviving node replays its own records.
    return db_->machine().NodeAlive(rec.node) ? rec.node
                                              : EarliestSurvivor(ctx);
  }
  if (rec.type == LogRecordType::kUpdate) {
    return ctx.StreamPerformer(rec.update().rid.page);
  }
  return ctx.StreamPerformer(KeyPartition(rec.index_op()));
}

NodeId RecoveryManager::UndoPerformer(const Ctx& ctx,
                                      const LogRecord& rec) const {
  if (ctx.num_streams <= 1) return EarliestSurvivor(ctx);
  if (rec.type == LogRecordType::kUpdate) {
    return ctx.StreamPerformer(rec.update().rid.page);
  }
  return ctx.StreamPerformer(KeyPartition(rec.index_op()));
}

Status RecoveryManager::BuildContext(const std::vector<NodeId>& crashed,
                                     Ctx* ctx) {
  ctx->crashed = crashed;
  ctx->crashed_set.insert(crashed.begin(), crashed.end());
  for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
    if (db_->machine().NodeAlive(n)) {
      ctx->survivors.push_back(n);
    } else {
      // Includes nodes still down from earlier crashes, not just the new
      // ones: their stale tags and residual log records are equally live.
      ctx->dead_set.insert(n);
    }
  }
  // survivors may be empty (every node failed); Run falls back to a
  // whole-machine restart in that case.
  // In a real system the crashed nodes' active transactions are identified
  // from the (recovered) lock table and the stable logs; the TxnManager's
  // transaction table stands in for that analysis here.
  for (NodeId c : ctx->crashed) {
    for (Transaction* t : db_->txn().ActiveOn(c)) {
      ctx->crashed_active.push_back(t);
      ctx->crashed_active_ids.insert(t->id);
      ctx->out.annulled.push_back(t->id);
    }
  }
  for (Transaction* t : db_->txn().ActiveAll()) {
    ctx->uncommitted_ids.insert(t->id);
    if (!ctx->crashed_set.contains(t->node())) {
      ctx->surviving_active.push_back(t);
      ctx->preserved_ids.insert(t->id);
      ctx->out.preserved.push_back(t->id);
    }
  }
  // Transactions visible in any stable log without a commit *or abort*
  // record are uncommitted too (e.g. an abort whose CLRs died with the
  // volatile tail). A stable Abort record implies the CLRs are stable as
  // well (log forces move the whole tail), so such transactions are fully
  // handled by the repeating-history redo pass. Every node's stable log is
  // scanned — not just the newly-crashed ones' — because a steal flush can
  // strand an uncommitted update in the stable database long after its
  // transaction's node crashed (or crashed and restarted), and the
  // compensations a previous recovery wrote for it are themselves volatile
  // until flushed or forced.
  const uint16_t num_nodes = db_->machine().num_nodes();
  for (NodeId c = 0; c < num_nodes; ++c) {
    std::set<TxnId> begun, finished;
    db_->log().ForEachStable(c, [&](const LogRecord& rec) {
      if (rec.txn == kInvalidTxn) return;
      if (rec.type == LogRecordType::kCommit ||
          rec.type == LogRecordType::kAbort) {
        finished.insert(rec.txn);
      } else {
        begun.insert(rec.txn);
      }
    });
    std::set<TxnId> tail_finished;
    if (db_->machine().NodeAlive(c)) {
      // A live node's volatile tail is intact and authoritative: an abort
      // record there means the rollback already ran on this node's own log.
      // (A volatile-only *commit* is a pending group commit — unacknowledged
      // by construction, and excluding it from the uncommitted set here is
      // right: its node is alive, nothing needs redoing or undoing, and it
      // completes when its batch is forced after recovery.) Without
      // this, a normally-aborted transaction whose pre-abort updates were
      // forced stable would be re-flagged and re-undone on every recovery.
      // RebootAll destroys these tails, so the exclusions are recorded in
      // volatile_finished and revoked there.
      db_->log().ForEachAll(c, [&](const LogRecord& rec) {
        if (rec.type == LogRecordType::kCommit ||
            rec.type == LogRecordType::kAbort) {
          tail_finished.insert(rec.txn);
        }
      });
    }
    for (TxnId t : begun) {
      if (finished.contains(t)) continue;
      if (tail_finished.contains(t)) {
        ctx->volatile_finished.insert(t);
      } else {
        ctx->uncommitted_ids.insert(t);
      }
    }
  }
  return Status::Ok();
}

Status RecoveryManager::TimedPhase(Ctx& ctx, RecoveryPhase phase,
                                   const std::function<Status()>& body) {
  Machine& m = db_->machine();
  const SimTime t0 = m.GlobalTime();
  Status s = body();
  const SimTime dt = m.GlobalTime() - t0;
  ctx.out.phase_ns[static_cast<size_t>(phase)] += dt;
  if (!ctx.survivors.empty()) {
    SMDB_EMIT(&db_->instruments(),
              {.kind = TraceEventKind::kRecoveryPhase,
               .node = ctx.survivors.front(),
               .ts = t0,
               .dur = dt,
               .label = RecoveryPhaseName(phase)});
  }
  return s;
}

Status RecoveryManager::ApplyRedoUpdate(Ctx& ctx, NodeId performer,
                                        const LogRecord& rec) {
  const UpdatePayload& u = rec.update();
  RecordStore& rs = db_->records();
  SMDB_ASSIGN_OR_RETURN(SlotImage cur, rs.ReadSlot(performer, u.rid));
  if (cur.usn >= u.usn) {
    ++ctx.out.redo_skipped;
    return Status::Ok();
  }
  ++ctx.out.redo_applied;
  uint16_t tag = kTagNone;
  if (!u.is_clr && db_->config().recovery.undo_tagging() &&
      ctx.uncommitted_ids.contains(rec.txn)) {
    tag = TagForNode(TxnNode(rec.txn));
  }
  SlotImage img;
  img.usn = u.usn;
  img.tag = tag;
  img.data = u.after;
  SMDB_RETURN_IF_ERROR(rs.InstallSlot(performer, u.rid, std::move(img)));
  // The redone update's log record lives on rec.node; if that node was not
  // lost in the crash, the WAL gate must still cover it before any future
  // flush. Keyed on the crash-time dead set, not current liveness: lazy
  // discharge can run after the node restarted, and a restart does not
  // resurrect the lost volatile tail.
  if (!ctx.dead_set.contains(rec.node)) {
    db_->wal_table().NoteUpdate(u.rid.page, rec.node, rec.lsn);
  }
  db_->buffers().MarkDirty(u.rid.page);
  return Status::Ok();
}

Status RecoveryManager::ApplyRedoIndexOp(Ctx& ctx, NodeId performer,
                                         const LogRecord& rec) {
  const IndexOpPayload& op = rec.index_op();
  uint16_t tag = kTagNone;
  if (!op.is_clr && db_->config().recovery.undo_tagging() &&
      ctx.uncommitted_ids.contains(rec.txn)) {
    tag = TagForNode(TxnNode(rec.txn));
  }
  // RedoIndexOp is internally USN-guarded; count its effect by probing.
  SMDB_ASSIGN_OR_RETURN(auto before, db_->index().GetEntry(performer, op.key));
  bool would_apply = !before.has_value() || before->usn < op.usn;
  SMDB_RETURN_IF_ERROR(db_->index().RedoIndexOp(performer, op, tag));
  if (would_apply) {
    ++ctx.out.redo_applied;
  } else {
    ++ctx.out.redo_skipped;
  }
  return Status::Ok();
}

Status RecoveryManager::ApplyRedoStructural(Ctx& ctx, NodeId performer,
                                            const LogRecord& rec) {
  const StructuralPayload& sp = rec.structural();
  (void)performer;
  for (const auto& [page, image] : sp.page_images) {
    auto base = db_->buffers().BaseOf(page);
    if (!base.ok()) return base.status();
    uint64_t cur_lsn = 0;
    Status s = db_->machine().SnoopRead(
        *base + PageLayout::kPageLsnOffset, &cur_lsn, 8);
    // A spliced page's surviving Page-LSN vouches only for the lines that
    // survived — a reinstalled pre-split entry line can hide behind a
    // post-split header. Install the image unconditionally; the sorted
    // entry-level replay re-applies anything newer.
    if (s.ok() && cur_lsn >= sp.usn && !ctx.spliced_pages.contains(page)) {
      ++ctx.out.redo_skipped;
      continue;  // this or a later state is already in place
    }
    // Header lost or pre-change state: install the post-change image.
    // Sorted replay re-applies any higher-USN entry updates afterwards.
    db_->machine().InstallToMemory(*base, image.data(), image.size());
    db_->buffers().MarkDirty(page);
    ctx.installed_pages.insert(page);
    ++ctx.out.redo_applied;
  }
  return Status::Ok();
}

Status RecoveryManager::CollectRedoRecords(std::vector<LogRecord>* out) {
  Machine& m = db_->machine();
  // Gather the redo-relevant records from every reachable log, then apply
  // them in global USN order. Record updates are order-free under the USN
  // guard (each carries the full after-image), but logical index operations
  // are not: a delete replayed before the insert it follows would be
  // dropped. Strict 2PL makes USN order consistent with the original
  // execution order on every object, so a single sorted pass repeats
  // history exactly.
  std::vector<LogRecord>& records = *out;
  for (NodeId n = 0; n < m.num_nodes(); ++n) {
    Lsn start = db_->log().checkpoint_lsn(n);
    db_->log().ForEachAll(n, [&](const LogRecord& rec) {
      if (rec.lsn <= start && start != kInvalidLsn) return;
      if (rec.usn() != 0) records.push_back(rec);
    });
  }
  // USNs are globally unique, so this order is total and deterministic.
  std::sort(records.begin(), records.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.usn() < b.usn();
            });
  return Status::Ok();
}

Status RecoveryManager::ReloadPage(Ctx& ctx, NodeId performer, PageId page,
                                   bool whole) {
  BufferManager& buffers = db_->buffers();
  std::vector<uint8_t> image;
  if (whole) {
    SMDB_RETURN_IF_ERROR(buffers.ReinstallPage(performer, page, &image));
  } else {
    // ProbeLine ("cache miss with I/O disabled") decides lost-ness inside
    // ReinstallLostLines.
    SMDB_ASSIGN_OR_RETURN(int n,
                          buffers.ReinstallLostLines(performer, page, &image));
    if (n == 0) return Status::Ok();
    ctx.out.lines_reinstalled += n;
    // A partial reinstall splices stable-image lines into surviving ones;
    // the page's surviving Page-LSN no longer describes every line, so
    // structural redo must not skip on it (see Ctx).
    const size_t lines_per_page =
        buffers.page_size() / db_->machine().line_size();
    if (static_cast<size_t>(n) < lines_per_page) {
      ctx.spliced_pages.insert(page);
    }
  }
  ++ctx.out.pages_reloaded;
  ++ctx.out.stable_reads;
  ctx.installed_pages.insert(page);
  ctx.stable_images.insert_or_assign(page, std::move(image));
  return Status::Ok();
}

Status RecoveryManager::ReloadPages(Ctx& ctx, const std::vector<PageId>& pages,
                                    bool whole) {
  for (PageId p : pages) {
    SMDB_RETURN_IF_ERROR(ReloadPage(ctx, EarliestSurvivor(ctx), p, whole));
  }
  return Status::Ok();
}

Status RecoveryManager::HandOff(Ctx& ctx, RestartKind scheme, bool serve) {
  std::vector<LogRecord> redo;
  UndoWork undo;
  SMDB_RETURN_IF_ERROR(CollectRedoRecords(&redo));
  SMDB_RETURN_IF_ERROR(CollectUndoWork(ctx, &undo));
  return db_->on_demand().Activate(std::move(redo), std::move(undo), scheme,
                                   serve);
}

Status RecoveryManager::CollectUndoWork(Ctx& ctx, UndoWork* out) {
  // Collect every non-CLR update/index record of uncommitted dead
  // transactions from every stable log, to undo in reverse USN order.
  // Surviving active transactions are excluded — their (stolen) updates are
  // exactly what IFA preserves. The all-node scan re-derives undo work left
  // over from earlier crashes whose compensations were since lost; the
  // engagement guard in ApplyUndo* turns already-compensated records into
  // no-ops, so re-undoing is safe.
  // The reverse-USN sort puts the per-node scans in a single deterministic
  // order (USNs are globally unique).
  std::vector<LogRecord> to_undo;
  for (NodeId c = 0; c < db_->machine().num_nodes(); ++c) {
    db_->log().ForEachStable(c, [&](const LogRecord& rec) {
      if (!ctx.uncommitted_ids.contains(rec.txn)) return;
      if (ctx.preserved_ids.contains(rec.txn)) return;
      if (rec.undoable()) to_undo.push_back(rec);
    });
  }
  std::sort(to_undo.begin(), to_undo.end(),
            [](const LogRecord& a, const LogRecord& b) {
              return a.usn() > b.usn();  // reverse order
            });

  // The CLR maps for resuming half-done compensation chains (see UndoWork).
  std::set<TxnId> undo_txns;
  for (const LogRecord& rec : to_undo) undo_txns.insert(rec.txn);
  std::map<uint64_t, std::pair<TxnId, RecordId>> clr_slots;
  std::map<uint64_t, std::pair<TxnId, std::pair<uint32_t, uint64_t>>>
      clr_keys;
  // USNs are globally unique, so the per-node maps are disjoint and the
  // merge order is irrelevant.
  for (NodeId n = 0; n < db_->machine().num_nodes(); ++n) {
    std::map<uint64_t, std::pair<TxnId, RecordId>> node_clr_slots;
    std::map<uint64_t, std::pair<TxnId, std::pair<uint32_t, uint64_t>>>
        node_clr_keys;
    db_->log().ForEachAll(n, [&](const LogRecord& rec) {
      if (!undo_txns.contains(rec.txn)) return;
      if (rec.type == LogRecordType::kUpdate && rec.update().is_clr) {
        node_clr_slots[rec.update().usn] = {rec.txn, rec.update().rid};
      } else if (rec.type == LogRecordType::kIndexOp &&
                 rec.index_op().is_clr) {
        const IndexOpPayload& op = rec.index_op();
        node_clr_keys[op.usn] = {rec.txn, {op.tree_id, op.key}};
      }
    });
    clr_slots.merge(node_clr_slots);
    clr_keys.merge(node_clr_keys);
  }
  out->to_undo = std::move(to_undo);
  out->clr_slots = std::move(clr_slots);
  out->clr_keys = std::move(clr_keys);
  return Status::Ok();
}

HashMap<uint64_t, TxnId> RecoveryManager::StableUsnOwners() {
  HashMap<uint64_t, TxnId> usn_owner;
  for (NodeId c = 0; c < db_->machine().num_nodes(); ++c) {
    HashMap<uint64_t, TxnId> node_owner;
    // Structural USNs join the map too; they stamp only Page-LSNs, never a
    // slot or an entry, so no tag lookup can hit one.
    db_->log().ForEachStable(c, [&](const LogRecord& rec) {
      if (uint64_t usn = rec.usn()) node_owner[usn] = rec.txn;
    });
    usn_owner.merge(node_owner);
  }
  return usn_owner;
}

bool RecoveryManager::StaleCommittedTag(
    const Ctx& ctx, const HashMap<uint64_t, TxnId>& usn_owner, uint64_t usn,
    NodeId tagged) {
  auto it = usn_owner.find(usn);
  if (it != usn_owner.end()) {
    return !ctx.uncommitted_ids.contains(it->second);
  }
  // Not in any stable log. A tagged USN was appended to the tagged node's
  // own log, which is USN-monotone in LSN order: at or below that node's
  // truncation high-water mark, the record was reclaimed by a checkpoint
  // (only finished transactions' records are; the commit beat the
  // tag-clear). Above the mark, it only ever existed in the node's lost
  // volatile tail — uncommitted.
  return usn <= db_->log().max_truncated_usn(tagged);
}

Status RecoveryManager::ResolveRecordTag(
    NodeId p, RecordId rid, bool stale,
    StableStateReconstructor& reconstructor) {
  RecordStore& rs = db_->records();
  // Commit happened; only the tag-clear was lost. Clear it now.
  if (stale) return rs.ClearTag(p, rid);
  // Undo: install the last committed value (from stable store) under a
  // fresh USN.
  SMDB_ASSIGN_OR_RETURN(SlotImage committed,
                        reconstructor.CommittedValue(p, rid));
  committed.tag = kTagNone;
  SMDB_RETURN_IF_ERROR(
      rs.InstallSlot(p, rid, std::move(committed), &db_->usn()));
  db_->buffers().MarkDirty(rid.page);
  return Status::Ok();
}

Status RecoveryManager::ResolveIndexTag(NodeId p, const BTree::EntryRef& ref,
                                        bool stale) {
  BTree& index = db_->index();
  if (stale) return index.ClearTag(p, ref.entry.key);
  // Undo of an uncommitted insert: physically remove this entry. Undo of
  // an uncommitted logical delete: unmark it. Both work in place (no
  // compaction), so other (leaf, slot) references stay valid.
  if (ref.entry.state == LeafEntryState::kLive) {
    return index.RemoveEntryAt(p, ref.leaf, ref.slot);
  }
  return index.UnmarkEntryAt(p, ref.leaf, ref.slot);
}

Status RecoveryManager::TagScanUndo(Ctx& ctx) {
  Machine& m = db_->machine();
  RecordStore& rs = db_->records();
  BTree& index = db_->index();

  std::unique_ptr<StableStateReconstructor> reconstructor =
      MakeReconstructor(ctx);
  const HashMap<uint64_t, TxnId> usn_owner = StableUsnOwners();
  auto stale_committed_tag = [&](uint64_t usn, NodeId tagged) {
    return StaleCommittedTag(ctx, usn_owner, usn, tagged);
  };

  // The scan is split into a collect phase and an apply phase. Collection
  // walks each survivor's cache in node order (survivor caches can share
  // replicated lines, so the same record may be found by several scanners —
  // first finder wins, like the legacy interleaved scan). Application then
  // runs in a *canonical* order — heap undos by record id, index undos by
  // (leaf, slot), stale-tag clears last — independent of which survivor
  // found what. That matters because every tag undo allocates a fresh
  // global USN: a canonical apply order makes the USN assignment (and
  // therefore all recovered page bytes) identical for every stream count,
  // which is what the differential oracle checks.
  struct HeapCand {
    RecordId rid;
    uint64_t usn = 0;  // observed at collect time, drives classification
    NodeId found_on = 0;
    bool stale_clear = false;
  };
  struct IdxCand {
    BTree::EntryRef ref;
    NodeId found_on = 0;
    bool stale_clear = false;
  };
  std::vector<HeapCand> heap_cands;
  std::vector<IdxCand> idx_cands;
  std::set<RecordId> seen_rids;
  std::set<std::pair<PageId, uint16_t>> seen_slots;

  // Collects the dead-tagged records and index entries of one line. A line
  // in `found_on`'s cache is read there; an uncached line (found_on =
  // kInvalidNode) is snooped from memory and its undos go to the
  // EarliestSurvivor at apply time.
  auto collect = [&](LineAddr line, NodeId found_on) -> Status {
    ++ctx.out.tags_scanned;
    // --- Heap records ---
    for (RecordId rid : rs.SlotsInLine(line)) {
      SMDB_ASSIGN_OR_RETURN(SlotImage img, found_on == kInvalidNode
                                               ? rs.SnoopSlot(rid)
                                               : rs.ReadSlot(found_on, rid));
      if (img.tag == kTagNone) continue;
      NodeId tagged = NodeOfTag(img.tag);
      // A tag minted after the crash (usn above the cutoff) belongs to a
      // restarted node's new traffic, not to this recovery.
      if (!ctx.DeadTag(tagged, img.usn)) continue;
      if (!seen_rids.insert(rid).second) continue;
      HeapCand c;
      c.rid = rid;
      c.usn = img.usn;
      c.found_on = found_on;
      c.stale_clear = stale_committed_tag(img.usn, tagged);
      heap_cands.push_back(c);
    }
    // --- Index entries ---
    for (const auto& ref : index.EntriesInLine(line)) {
      if (ref.entry.tag == kTagNone) continue;
      NodeId tagged = NodeOfTag(ref.entry.tag);
      if (!ctx.DeadTag(tagged, ref.entry.usn)) continue;
      if (!seen_slots.insert({ref.leaf, ref.slot}).second) continue;
      IdxCand c;
      c.ref = ref;
      c.found_on = found_on;
      c.stale_clear = stale_committed_tag(ref.entry.usn, tagged);
      idx_cands.push_back(c);
    }
    return Status::Ok();
  };

  // A scan deferred into a Recovering window can run after restarts: a
  // restarted node's new traffic can have pulled a tagged line into its
  // cache, so its cache is scanned too, after the crash-time survivors'.
  // (At crash time every live node is a survivor.)
  std::vector<NodeId> scanners = ctx.survivors;
  for (NodeId n : m.AliveNodes()) {
    if (std::find(scanners.begin(), scanners.end(), n) == scanners.end()) {
      scanners.push_back(n);
    }
  }
  for (NodeId s : scanners) {
    // Snapshot the resident lines first (collection itself reads only).
    std::vector<LineAddr> lines;
    m.ForEachCachedLine(s, [&](LineAddr line) { lines.push_back(line); });
    for (LineAddr line : lines) SMDB_RETURN_IF_ERROR(collect(line, s));
  }
  // Lines this restart installed into memory that no cache has pulled back
  // since. A structural page image can carry a dead node's uncommitted
  // entry (the split copied it), and installing the image dropped the
  // surviving copy of its line, so no cache walk would find the tag.
  const uint32_t lines_per_page =
      db_->buffers().page_size() / m.line_size();
  for (PageId page : ctx.installed_pages) {
    SMDB_ASSIGN_OR_RETURN(Addr base, db_->buffers().BaseOf(page));
    for (uint32_t i = 0; i < lines_per_page; ++i) {
      const LineAddr line = m.LineOf(base) + i;
      const LineEntry* e = m.FindLine(line);
      if (e == nullptr || e->sharers != 0 || !e->mem_valid) continue;
      SMDB_RETURN_IF_ERROR(collect(line, kInvalidNode));
    }
  }

  std::sort(heap_cands.begin(), heap_cands.end(),
            [](const HeapCand& a, const HeapCand& b) { return a.rid < b.rid; });
  std::sort(idx_cands.begin(), idx_cands.end(),
            [](const IdxCand& a, const IdxCand& b) {
              return std::pair{a.ref.leaf, a.ref.slot} <
                     std::pair{b.ref.leaf, b.ref.slot};
            });

  // Serial keeps the finding survivor as performer (the legacy
  // assignment; a line found in memory goes to the EarliestSurvivor); W > 1
  // routes each undo to its partition's stream.
  auto serial_performer = [&](NodeId found_on) {
    return found_on != kInvalidNode ? found_on : EarliestSurvivor(ctx);
  };
  auto heap_performer = [&](const HeapCand& c) {
    return ctx.num_streams <= 1 ? serial_performer(c.found_on)
                                : ctx.StreamPerformer(c.rid.page);
  };
  auto idx_performer = [&](const IdxCand& c) {
    return ctx.num_streams <= 1 ? serial_performer(c.found_on)
                                : ctx.StreamPerformer(Mix64(c.ref.entry.key));
  };

  // Owning transaction of a tagged USN, for the tag-decision trace (and
  // forensics); kInvalidTxn when the record only ever lived in a lost tail.
  auto owner_of = [&](uint64_t usn) {
    auto it = usn_owner.find(usn);
    return it != usn_owner.end() ? it->second : kInvalidTxn;
  };
  for (const HeapCand& c : heap_cands) {
    NodeId p = heap_performer(c);
    SMDB_RETURN_IF_ERROR(
        ResolveRecordTag(p, c.rid, c.stale_clear, *reconstructor));
    if (!c.stale_clear) {
      ++ctx.out.tag_undos;
      ++ctx.out.undo_applied;
    }
    SMDB_EMIT(&db_->instruments(),
              {.kind = TraceEventKind::kTagDecision,
               .node = p,
               .txn = owner_of(c.usn),
               .ts = m.NodeClock(p),
               .a = (static_cast<uint64_t>(c.rid.page) << 16) | c.rid.slot,
               .b = c.usn,
               .label = c.stale_clear ? "heap-stale" : "heap-undo"});
  }
  for (const IdxCand& c : idx_cands) {
    NodeId p = idx_performer(c);
    SMDB_RETURN_IF_ERROR(ResolveIndexTag(p, c.ref, c.stale_clear));
    if (!c.stale_clear) {
      ++ctx.out.tag_undos;
      ++ctx.out.undo_applied;
    }
    SMDB_EMIT(&db_->instruments(),
              {.kind = TraceEventKind::kTagDecision,
               .node = p,
               .txn = owner_of(c.ref.entry.usn),
               .ts = m.NodeClock(p),
               .a = c.ref.entry.key,
               .b = c.ref.entry.usn,
               .label = c.stale_clear ? "index-stale" : "index-undo"});
  }
  return Status::Ok();
}

Status RecoveryManager::RecoverLockTable(Ctx& ctx) {
  LockTable& locks = db_->locks();
  NodeId performer = EarliestSurvivor(ctx);

  ctx.out.lcb_lines_cleared = locks.ClearLostLines();

  // 1. Release every lock of every crashed transaction that survived in
  // LCBs on live nodes (IFA lock guarantee 1). Posthumously-resolved group
  // commits (dead node, durable commit record) join the drop set: their
  // transactions are committed but could not release locks through their
  // dead node's log.
  std::set<TxnId> drop_ids = ctx.crashed_active_ids;
  drop_ids.insert(db_->txn().resolved_commit_ids().begin(),
                  db_->txn().resolved_commit_ids().end());
  if (!drop_ids.empty()) {
    SMDB_ASSIGN_OR_RETURN(int dropped,
                          locks.DropTxnLocks(performer, drop_ids));
    ctx.out.locks_dropped = dropped;
  }

  // 2. Rebuild lock state of surviving active transactions whose LCBs were
  // destroyed (IFA lock guarantee 2), by folding each survivor's logical
  // lock-op records — acquisitions (read and write), queued requests and
  // releases — into per-name LCB images.
  if (!db_->config().recovery.log_lock_ops) return Status::Ok();

  std::map<uint64_t, Lcb> folded;
  std::set<TxnId> surviving_ids;
  for (Transaction* t : ctx.surviving_active) surviving_ids.insert(t->id);

  // Fold each survivor's lock-op records in survivor order — the fold is
  // order-sensitive (acquire/queue/release replay).
  for (NodeId s : ctx.survivors) {
    if (ctx.dead_set.contains(s)) continue;
    std::vector<LogRecord> lock_ops;
    db_->log().ForEachAll(s, [&](const LogRecord& rec) {
      if (rec.type != LogRecordType::kLockOp) return;
      if (!surviving_ids.contains(rec.txn)) return;
      lock_ops.push_back(rec);
    });
    for (const LogRecord& rec : lock_ops) {
      const LockOpPayload& op = rec.lock_op();
      Lcb& lcb = folded[op.lock_name];
      lcb.name = op.lock_name;
      auto erase_txn = [&](std::vector<LockEntry>& list) {
        for (size_t i = 0; i < list.size(); ++i) {
          if (list[i].txn == rec.txn) {
            list.erase(list.begin() + i);
            return;
          }
        }
      };
      switch (op.op) {
        case LockOpPayload::Op::kAcquire:
          erase_txn(lcb.holders);
          erase_txn(lcb.waiters);
          lcb.holders.push_back(LockEntry{rec.txn, op.mode});
          break;
        case LockOpPayload::Op::kQueue:
          erase_txn(lcb.waiters);
          lcb.waiters.push_back(LockEntry{rec.txn, op.mode});
          break;
        case LockOpPayload::Op::kRelease:
          erase_txn(lcb.holders);
          erase_txn(lcb.waiters);
          break;
      }
    }
  }

  for (auto& [name, expected] : folded) {
    if (expected.holders.empty() && expected.waiters.empty()) continue;
    SMDB_ASSIGN_OR_RETURN(Lcb current, locks.GetLcb(performer, name));
    auto same = [](const std::vector<LockEntry>& a,
                   const std::vector<LockEntry>& b) {
      if (a.size() != b.size()) return false;
      for (const auto& e : a) {
        if (std::find(b.begin(), b.end(), e) == b.end()) return false;
      }
      return true;
    };
    if (same(current.holders, expected.holders) &&
        same(current.waiters, expected.waiters)) {
      continue;  // LCB survived intact
    }
    SMDB_RETURN_IF_ERROR(locks.RebuildLcb(performer, expected));
    ++ctx.out.lcbs_rebuilt;
  }
  return Status::Ok();
}

Result<RecoveryOutcome> RecoveryManager::Run(
    const std::vector<NodeId>& crashed) {
  // Every recovery runs on the restart engine's context. A crash during a
  // Recovering window supersedes the previous recovery: its undischarged
  // obligations are re-derived from stable logs and the transaction table
  // by this run. Its dead nodes' tags are not derivable once such a node
  // restarts, so the new context inherits them.
  OnDemandRecovery& engine = db_->on_demand();
  Ctx& ctx = engine.Begin();
  ctx.num_streams =
      std::max<uint32_t>(1, db_->config().recovery.recovery_streams);
  Machine& m = db_->machine();
  m.SyncClocks();
  ctx.t0 = m.GlobalTime();
  // BuildContext performs no machine operations — its log scans are pure
  // host-side reads — so timing it as the analysis phase costs nothing and
  // changes nothing (dt is 0 in simulated time, but the span marks where
  // analysis sits in the recovery timeline).
  SMDB_RETURN_IF_ERROR(TimedPhase(
      ctx, RecoveryPhase::kLogAnalysis,
      [&] { return BuildContext(crashed, &ctx); }));
  ctx.out.crashed_nodes = ctx.crashed;

  Status s;
  if (ctx.survivors.empty()) {
    // Every node failed: there is no survivor left to run the distributed
    // recovery schemes, so this is a whole-machine crash regardless of the
    // configured protocol. The machine reboots and restarts from stable
    // storage. All active transactions were on crashed nodes, so they are
    // annulled (not "unnecessarily aborted") and IFA holds trivially.
    for (NodeId n = 0; n < m.num_nodes(); ++n) ctx.survivors.push_back(n);
    PinStreams(&ctx.streams, ctx.num_streams, ctx.survivors);
    s = RunRebootAll(ctx);
  } else {
    PinStreams(&ctx.streams, ctx.num_streams, ctx.survivors);
    // Only the IFA schemes serve traffic while recovering: the baselines'
    // contracts assume a fully recovered state on return.
    const bool serve = db_->config().recovery.on_demand;
    switch (db_->config().recovery.restart) {
      case RestartKind::kRedoAll:
        s = RunRedoAll(ctx, serve);
        break;
      case RestartKind::kSelectiveRedo:
        s = RunSelectiveRedo(ctx, serve);
        break;
      case RestartKind::kRebootAll:
        s = RunRebootAll(ctx);
        break;
      case RestartKind::kAbortDependents:
        s = RunAbortDependents(ctx);
        break;
    }
  }
  SMDB_RETURN_IF_ERROR(s);

  // Annul the crashed transactions (their effects are undone now). A
  // Recovering window keeps the context; the transaction pointers must not
  // outlive this call.
  for (Transaction* t : ctx.crashed_active) {
    db_->txn().MarkCrashAnnulled(t);
  }
  ctx.crashed_active.clear();
  ctx.surviving_active.clear();

  m.SyncClocks();
  ctx.out.recovery_time_ns = m.GlobalTime() - ctx.t0;
  // Crash-time envelope span (the per-phase spans nest inside it in the
  // Chrome trace view). survivors is never empty here: the
  // whole-machine-restart path repopulates it with every node.
  SMDB_EMIT(&db_->instruments(),
            {.kind = TraceEventKind::kRecoveryPhase,
             .node = ctx.survivors.front(),
             .ts = ctx.t0,
             .dur = ctx.out.recovery_time_ns,
             .label = "recovery"});
  // An eager recovery drained inside the prefix, so its ledger closes now;
  // a Recovering window keeps it open until its drain ends.
  if (!engine.active()) engine.Close();
  return ctx.out;
}

}  // namespace smdb
