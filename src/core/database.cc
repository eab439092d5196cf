#include "core/database.h"

#include "core/on_demand.h"
#include "core/recovery_manager.h"
#include "db/page_layout.h"
#include "wal/checkpoint.h"

namespace smdb {

Database::Database(DatabaseConfig config)
    : config_(config), instruments_(config_.machine.num_nodes, config_.obs) {
  Instruments* inst = &instruments_;
  machine_ = std::make_unique<Machine>(config_.machine, inst);
  db_disk_ = std::make_unique<Disk>(machine_.get(), config_.page_size);
  stable_db_ = std::make_unique<StableDb>(db_disk_.get());
  stable_log_ = std::make_unique<StableLogStore>(config_.machine.num_nodes);
  log_ = std::make_unique<LogManager>(machine_.get(), stable_log_.get(), inst);
  if (config_.recovery.group_commit) {
    group_commit_ = std::make_unique<GroupCommitPipeline>(
        machine_.get(), log_.get(), config_.recovery.group_commit_window_ns,
        config_.recovery.group_commit_max_batch, inst);
  }
  wal_table_ = std::make_unique<WalTable>(config_.machine.num_nodes);
  buffers_ = std::make_unique<BufferManager>(machine_.get(), stable_db_.get(),
                                             log_.get(), wal_table_.get());
  records_ = std::make_unique<RecordStore>(
      machine_.get(), buffers_.get(),
      PageLayout(config_.page_size, config_.machine.line_size,
                 config_.record_data_size));
  // Read-lock logging is a per-protocol choice (Table 1 row 2).
  locks_ = std::make_unique<LockTable>(machine_.get(), log_.get(),
                                       config_.lock_table,
                                       config_.recovery.log_lock_ops, inst);
  lbm_ = LbmPolicy::Create(config_.recovery.lbm, machine_.get(), log_.get(),
                           group_commit_.get());
  index_ = std::make_unique<BTree>(
      machine_.get(), buffers_.get(), log_.get(), wal_table_.get(), &usn_,
      lbm_.get(), /*tree_id=*/1, config_.recovery.early_commit_structural);
  // Under RebootAll the restart discards every volatile page and reloads
  // stable images; with the early-commit ablation a split would otherwise
  // exist only in memory and the reloaded tree comes back torn. Reboot
  // semantics require a self-consistent stable DB, so splits flush their
  // pages instead of logging.
  index_->set_force_structural_pages(
      !config_.recovery.early_commit_structural &&
      config_.recovery.restart == RestartKind::kRebootAll);
  txn_ = std::make_unique<TxnManager>(
      machine_.get(), log_.get(), locks_.get(), records_.get(), index_.get(),
      wal_table_.get(), buffers_.get(), lbm_.get(), &usn_, config_.recovery,
      inst);
  txn_->SetGroupCommit(group_commit_.get());
  if (config_.recovery.restart == RestartKind::kAbortDependents) {
    deps_ = std::make_unique<DependencyTracker>(machine_.get(),
                                                records_.get());
    txn_->AddObserver(deps_.get());
  }
  recovery_ = std::make_unique<RecoveryManager>(this);
  on_demand_ = std::make_unique<OnDemandRecovery>(this);
  // First-touch hooks: every transactional access to an object discharges
  // that object's pending recovery obligations first. No-ops outside a
  // Recovering window.
  txn_->SetRecoveryTouch(
      [this](NodeId node, RecordId rid) {
        return on_demand_->TouchRecord(node, rid);
      },
      [this](NodeId node, uint32_t tree_id, uint64_t key) {
        return on_demand_->TouchKey(node, tree_id, key);
      });

  // A node crash destroys the node's volatile log tail and resets its
  // column of the WAL (page, LSN) table.
  machine_->AddCrashHook([this](const CrashEvent& ev) {
    log_->OnNodeCrash(ev.node);
    if (group_commit_ != nullptr) group_commit_->OnNodeCrash(ev.node);
    wal_table_->OnNodeCrash(ev.node);
  });

  Status s = index_->Init(/*node=*/0);
  (void)s;  // only fails on misconfiguration; surfaced by first use
}

Database::~Database() = default;

Result<std::vector<RecordId>> Database::CreateTable(size_t nrecords,
                                                    NodeId node) {
  return records_->CreateTable(node, nrecords);
}

Status Database::Checkpoint(NodeId /*coordinator*/) {
  // A checkpoint flushes dirty pages and truncates stable logs — both
  // unsound while lazy obligations still reference those logs and pages.
  // Finish the recovery first.
  SMDB_RETURN_IF_ERROR(DrainRecovery());
  std::vector<std::vector<TxnId>> active(config_.machine.num_nodes);
  for (Transaction* t : txn_->ActiveAll()) {
    active[t->node()].push_back(t->id);
  }
  SMDB_RETURN_IF_ERROR(TakeCheckpoint(machine_.get(), log_.get(),
                                      buffers_.get(), active,
                                      &checkpoint_stats_));
  // Reclaim stable log space: everything before both the checkpoint and
  // the oldest active transaction's first record is no longer needed (the
  // flushed stable database covers older history, including what the
  // committed-value reconstructor might ask for).
  for (NodeId n = 0; n < config_.machine.num_nodes; ++n) {
    if (!machine_->NodeAlive(n)) continue;
    Lsn safe = log_->checkpoint_lsn(n);
    if (safe == kInvalidLsn) continue;
    --safe;  // keep the checkpoint record itself
    for (Transaction* t : txn_->ActiveOn(n)) {
      if (t->first_lsn != kInvalidLsn && t->first_lsn <= safe) {
        safe = t->first_lsn - 1;
      }
    }
    log_->TruncateThrough(n, safe);
  }
  return Status::Ok();
}

Result<RecoveryOutcome> Database::Crash(const std::vector<NodeId>& crashed) {
  for (NodeId n : crashed) machine_->CrashNode(n);
  // The availability clock for this crash starts before pending-commit
  // resolution: commits resolved at crash time are acknowledgements during
  // the outage window.
  SMDB_EMIT(&instruments_, {.kind = TraceEventKind::kRecoveryStart,
                            .ts = machine_->GlobalTime()});
  // Pending group commits whose records turn out durable are committed —
  // resolve them before recovery classifies transactions, so restart never
  // undoes a durably-committed transaction nor acknowledges an annulled one.
  SMDB_RETURN_IF_ERROR(txn_->ResolvePendingCommits());
  Result<RecoveryOutcome> out = [&] {
    // Attribute the eager crash-time recovery prefix (and everything it
    // nests: WAL reads, coherence traffic, index repair) to the recovery
    // phase tree.
    ProfRoot root(&instruments_, ProfPhase::kRecovery);
    return recovery_->Run(crashed);
  }();
  if (out.ok()) {
    SMDB_EMIT(&instruments_, {.kind = TraceEventKind::kRecoveryEnd,
                              .ts = machine_->GlobalTime()});
  }
  return out;
}

void Database::RestartNodes(const std::vector<NodeId>& nodes) {
  for (NodeId n : nodes) machine_->RestartNode(n);
}

bool Database::RecoveringActive() const { return on_demand_->active(); }

Result<int> Database::PumpRecovery(int max_objects) {
  return on_demand_->SweepStep(max_objects);
}

Status Database::DrainRecovery() { return on_demand_->DrainAll(); }

}  // namespace smdb
