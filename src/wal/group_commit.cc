#include "wal/group_commit.h"

#include <algorithm>

#include "obs/instruments.h"
#include "sim/machine.h"
#include "wal/log_manager.h"

namespace smdb {

GroupCommitPipeline::GroupCommitPipeline(Machine* machine, LogManager* log,
                                         SimTime window_ns, uint32_t max_batch,
                                         Instruments* inst)
    : machine_(machine),
      log_(log),
      inst_(inst),
      window_ns_(window_ns),
      max_batch_(std::max<uint32_t>(1, max_batch)),
      nodes_(machine->num_nodes()) {
  log_->AddForceHook([this](NodeId node) { OnForced(node); });
}

void GroupCommitPipeline::ArmDeadline(NodeState* ns, SimTime now) {
  if (ns->deadline_armed) return;  // the oldest demand owns the deadline
  ns->deadline_armed = true;
  ns->deadline_at = now + window_ns_;
}

Status GroupCommitPipeline::MaybeSizeFlush(NodeId node) {
  if (log_->TailSize(node) < max_batch_) return Status::Ok();
  return FlushNow(node, /*size_bound=*/true);
}

Status GroupCommitPipeline::FlushNow(NodeId node, bool size_bound) {
  NodeState& ns = nodes_[node];
  bool intent = ns.has_intent;
  if (size_bound) {
    ++stats_.size_flushes;
  } else {
    ++stats_.deadline_flushes;
  }
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kGroupCommitFlush,
                    .node = node,
                    .ts = machine_->NodeClock(node),
                    .a = ns.commits.size(),
                    .label = size_bound ? "size" : "deadline"});
  SMDB_RETURN_IF_ERROR(log_->Force(node, node));
  // A pipeline flush that covered an eager-LBM intent is a Stable-LBM
  // force for accounting purposes (it replaces what would have been one
  // force per update under the classic eager policy).
  if (intent) ++log_->stats().lbm_forces;
  return Status::Ok();
}

Status GroupCommitPipeline::EnqueueCommit(NodeId node, TxnId txn, Lsn lsn) {
  NodeState& ns = nodes_[node];
  SimTime now = machine_->NodeClock(node);
  ns.commits.push_back(PendingCommit{txn, lsn, now});
  ++stats_.enqueued_commits;
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kGcEnqueue,
                    .node = node,
                    .txn = txn,
                    .ts = now,
                    .a = ns.commits.size()});
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kForceIntent,
                    .node = node,
                    .txn = txn,
                    .ts = now,
                    .a = lsn,
                    .label = "commit"});
  ArmDeadline(&ns, now);
  return MaybeSizeFlush(node);
}

Status GroupCommitPipeline::NoteLbmIntent(NodeId node) {
  NodeState& ns = nodes_[node];
  ++stats_.lbm_intents;
  if (!ns.has_intent) {
    ns.has_intent = true;
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kForceIntent,
                      .node = node,
                      .ts = machine_->NodeClock(node),
                      .label = "lbm"});
    ArmDeadline(&ns, machine_->NodeClock(node));
  }
  return MaybeSizeFlush(node);
}

Status GroupCommitPipeline::Poll(NodeId node) {
  NodeState& ns = nodes_[node];
  if (ns.deadline_armed && machine_->NodeClock(node) >= ns.deadline_at) {
    return FlushNow(node, /*size_bound=*/false);
  }
  machine_->Tick(node, machine_->config().timing.group_commit_poll_ns);
  return Status::Ok();
}

Lsn GroupCommitPipeline::PendingCommitLsn(TxnId txn) const {
  for (const NodeState& ns : nodes_) {
    for (const PendingCommit& pc : ns.commits) {
      if (pc.txn == txn) return pc.lsn;
    }
  }
  return kInvalidLsn;
}

void GroupCommitPipeline::DropCommit(TxnId txn) {
  for (NodeState& ns : nodes_) {
    for (size_t i = 0; i < ns.commits.size(); ++i) {
      if (ns.commits[i].txn == txn) {
        ns.commits.erase(ns.commits.begin() + i);
        return;
      }
    }
  }
}

void GroupCommitPipeline::OnNodeCrash(NodeId node) {
  NodeState& ns = nodes_[node];
  ns.has_intent = false;
  ns.deadline_armed = false;
  std::vector<PendingCommit> kept;
  for (const PendingCommit& pc : ns.commits) {
    // A durable-but-unacknowledged commit record survived the crash in the
    // stable log; ResolvePendingCommits completes its transaction. The
    // rest died with the volatile tail and will be annulled.
    if (log_->IsStable(node, pc.lsn)) kept.push_back(pc);
  }
  ns.commits = std::move(kept);
}

std::vector<std::pair<NodeId, GroupCommitPipeline::PendingCommit>>
GroupCommitPipeline::PendingCommits() const {
  std::vector<std::pair<NodeId, PendingCommit>> out;
  for (NodeId n = 0; n < static_cast<NodeId>(nodes_.size()); ++n) {
    for (const PendingCommit& pc : nodes_[n].commits) out.emplace_back(n, pc);
  }
  return out;
}

void GroupCommitPipeline::OnForced(NodeId node) {
  NodeState& ns = nodes_[node];
  // The force moved the node's whole tail: every pending commit record and
  // every intent is durable now. Commits stay queued until their waiters
  // poll (acknowledgement is separate from durability); the window no
  // longer applies to anything.
  ns.has_intent = false;
  ns.deadline_armed = false;
  const SimTime now = machine_->NodeClock(node);
  for (PendingCommit& pc : ns.commits) {
    if (pc.residency_recorded) continue;
    pc.residency_recorded = true;
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kGcResidency,
                      .node = node,
                      .txn = pc.txn,
                      .ts = now,
                      .a = now >= pc.enqueued_at ? now - pc.enqueued_at : 0});
  }
}

}  // namespace smdb
