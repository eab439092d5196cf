#include "core/lbm_policy.h"

#include "sim/machine.h"
#include "wal/group_commit.h"
#include "wal/log_manager.h"

namespace smdb {

std::string RecoveryConfig::Name() const {
  std::string lbm_name;
  switch (lbm) {
    case LbmKind::kNone: lbm_name = "NoLBM"; break;
    case LbmKind::kVolatile: lbm_name = "VolatileLBM"; break;
    case LbmKind::kStableEager: lbm_name = "StableLBM(eager)"; break;
    case LbmKind::kStableTriggered: lbm_name = "StableLBM(triggered)"; break;
  }
  std::string restart_name;
  switch (restart) {
    case RestartKind::kRedoAll: restart_name = "RedoAll"; break;
    case RestartKind::kSelectiveRedo: restart_name = "SelectiveRedo"; break;
    case RestartKind::kRebootAll: restart_name = "RebootAll"; break;
    case RestartKind::kAbortDependents:
      restart_name = "AbortDependents";
      break;
  }
  return lbm_name + "+" + restart_name +
         (disable_undo_tagging ? "(no-undo-tags!)" : "");
}

namespace {

struct FlagNameEntry {
  const char* name;
  RecoveryConfig config;
};

const FlagNameEntry kFlagNames[] = {
    {"volatile-selective", RecoveryConfig::VolatileSelectiveRedo()},
    {"volatile-redoall", RecoveryConfig::VolatileRedoAll()},
    {"stable-eager", RecoveryConfig::StableEagerRedoAll()},
    {"stable-triggered", RecoveryConfig::StableTriggeredRedoAll()},
    {"stable-triggered-selective",
     RecoveryConfig::StableTriggeredSelectiveRedo()},
    {"reboot-all", RecoveryConfig::BaselineRebootAll()},
    {"abort-dependents", RecoveryConfig::BaselineAbortDependents()},
};

}  // namespace

std::string RecoveryConfig::FlagName() const {
  for (const FlagNameEntry& e : kFlagNames) {
    if (e.config.lbm == lbm && e.config.restart == restart &&
        e.config.log_lock_ops == log_lock_ops &&
        e.config.early_commit_structural == early_commit_structural) {
      return e.name;
    }
  }
  return "custom";
}

bool RecoveryConfig::FromFlagName(const std::string& name,
                                  RecoveryConfig* out) {
  for (const FlagNameEntry& e : kFlagNames) {
    if (name == e.name) {
      // The preset's identity only (what FlagName compares): run knobs set
      // on *out before the protocol was named keep their values.
      out->lbm = e.config.lbm;
      out->restart = e.config.restart;
      out->log_lock_ops = e.config.log_lock_ops;
      out->early_commit_structural = e.config.early_commit_structural;
      return true;
    }
  }
  return false;
}

std::unique_ptr<LbmPolicy> LbmPolicy::Create(LbmKind kind, Machine* machine,
                                             LogManager* log,
                                             GroupCommitPipeline* group_commit) {
  switch (kind) {
    case LbmKind::kNone:
    case LbmKind::kVolatile:
      return std::make_unique<VolatileLbm>(kind);
    case LbmKind::kStableEager:
      if (group_commit != nullptr) {
        return std::make_unique<StableEagerGroupLbm>(machine, log,
                                                     group_commit);
      }
      return std::make_unique<StableEagerLbm>(machine, log);
    case LbmKind::kStableTriggered:
      // The triggered policy already defers forces to migrations; the
      // pipeline only adds commit-record coalescing, which needs no LBM
      // cooperation.
      return std::make_unique<StableTriggeredLbm>(machine, log);
  }
  return nullptr;
}

Status StableEagerLbm::OnUpdateLogged(NodeId node, Lsn /*lsn*/,
                                      const std::vector<LineAddr>& /*lines*/) {
  SMDB_RETURN_IF_ERROR(log_->Force(node, node));
  ++log_->stats().lbm_forces;
  return Status::Ok();
}

Status StableEagerGroupLbm::OnUpdateLogged(NodeId node, Lsn lsn,
                                           const std::vector<LineAddr>& lines) {
  // Mark the lines active first: if the pipeline's size bound flushes right
  // here, the force hook clears the fresh marks, which is exactly right (the
  // update is durable). If it doesn't, a premature migration still triggers
  // an immediate force via the inherited coherence hook.
  SMDB_RETURN_IF_ERROR(StableTriggeredLbm::OnUpdateLogged(node, lsn, lines));
  return gc_->NoteLbmIntent(node);
}

StableTriggeredLbm::StableTriggeredLbm(Machine* machine, LogManager* log)
    : machine_(machine), log_(log) {
  machine_->AddCoherenceHook(
      [this](const CoherenceEvent& ev) { OnCoherence(ev); });
  log_->AddForceHook([this](NodeId node) { OnForced(node); });
}

Status StableTriggeredLbm::OnUpdateLogged(NodeId node, Lsn /*lsn*/,
                                          const std::vector<LineAddr>& lines) {
  for (LineAddr line : lines) {
    machine_->SetLineActive(line, true);
    auto it = active_by_.find(line);
    if (it != active_by_.end() && it->second != node) {
      active_lines_[it->second].erase(line);
    }
    active_by_[line] = node;
    active_lines_[node].insert(line);
  }
  return Status::Ok();
}

void StableTriggeredLbm::OnCoherence(const CoherenceEvent& ev) {
  if (!ev.active_bit) return;
  auto it = active_by_.find(ev.line);
  if (it == active_by_.end()) return;
  const NodeId updater = it->second;
  if (!machine_->NodeAlive(updater)) return;
  // The departing copy holds uncommitted data whose log records are not yet
  // stable: force the updater's log before the transfer completes. The
  // requesting node (ev.to) stalls for the force, so it pays the latency.
  Status s = log_->Force(ev.to, updater);
  if (s.ok()) ++log_->stats().lbm_forces;
}

void StableTriggeredLbm::OnForced(NodeId node) {
  auto it = active_lines_.find(node);
  if (it == active_lines_.end()) return;
  for (LineAddr line : it->second) {
    machine_->SetLineActive(line, false);
    active_by_.erase(line);
  }
  it->second.clear();
}

}  // namespace smdb
