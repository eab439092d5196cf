#include "txn/executor.h"

#include "obs/profiler.h"
#include "sim/machine.h"

namespace smdb {

NodeExecutor::NodeExecutor(TxnManager* tm, NodeId node, int max_retries)
    : tm_(tm), node_(node), max_retries_(max_retries) {}

Status NodeExecutor::ExecuteOp(const Op& op) {
  switch (op.kind) {
    case Op::Kind::kRead:
      return tm_->Read(txn_, op.rid).status();
    case Op::Kind::kUpdate:
      return tm_->Update(txn_, op.rid, op.value);
    case Op::Kind::kDirtyRead:
      return tm_->DirtyRead(node_, op.rid).status();
    case Op::Kind::kIndexInsert: {
      Status s = tm_->IndexInsert(txn_, op.key, op.rid);
      // A duplicate key is a benign no-op for workload purposes.
      if (s.code() == Status::Code::kInvalidArgument) return Status::Ok();
      return s;
    }
    case Op::Kind::kIndexDelete: {
      Status s = tm_->IndexDelete(txn_, op.key);
      if (s.IsNotFound()) return Status::Ok();
      return s;
    }
    case Op::Kind::kIndexLookup:
      return tm_->IndexLookup(txn_, op.key).status();
    case Op::Kind::kCommit:
      return tm_->Commit(txn_);
    case Op::Kind::kAbort:
      return tm_->Abort(txn_);
  }
  return Status::InvalidArgument("unknown op");
}

void NodeExecutor::FinishScript() {
  current_.reset();
  txn_ = nullptr;
  op_index_ = 0;
  retries_ = 0;
  phase_ = Phase::kIdle;
}

void NodeExecutor::HandleAbort(bool deadlock) {
  if (txn_ != nullptr && txn_->state == TxnState::kActive) {
    (void)tm_->Abort(txn_);
  }
  if (deadlock) {
    ++stats_.aborted_deadlock;
  } else {
    ++stats_.aborted_other;
  }
  if (retries_ < max_retries_) {
    // Retry the whole script as a fresh transaction.
    ++retries_;
    ++stats_.retries;
    txn_ = nullptr;
    op_index_ = 0;
    phase_ = Phase::kRunning;
  } else {
    FinishScript();
  }
}

bool NodeExecutor::Step() {
  if (phase_ == Phase::kIdle) {
    if (queue_.empty()) return false;
    current_ = std::move(queue_.front());
    queue_.pop_front();
    txn_ = nullptr;
    op_index_ = 0;
    retries_ = 0;
    phase_ = Phase::kRunning;
  }

  if (phase_ == Phase::kWaitingCommit && txn_ != nullptr &&
      txn_->state == TxnState::kCommitted) {
    // The pending group commit was completed externally (crash-time
    // resolution found its record durable) while we were polling.
    ++stats_.committed;
    FinishScript();
    return true;
  }

  if (txn_ != nullptr && txn_->state != TxnState::kActive) {
    // The transaction was annulled or force-aborted underneath us (crash
    // recovery, baseline protocols). Restart the script as a fresh
    // transaction.
    ++stats_.retries;
    txn_ = nullptr;
    op_index_ = 0;
    phase_ = Phase::kRunning;
  }

  if (txn_ == nullptr) {
    txn_ = tm_->Begin(node_);
  }

  if (phase_ == Phase::kWaitingLock) {
    auto res = tm_->PollLock(txn_, waiting_name_, waiting_mode_);
    if (!res.ok()) {
      HandleAbort(res.status().IsDeadlock());
      return true;
    }
    if (*res == LockResult::kQueued) {
      ++stats_.lock_waits;
      // Re-check for deadlocks that formed after we queued.
      return true;
    }
    phase_ = Phase::kRunning;
    // Fall through and re-execute the pending op (the lock is now held, so
    // it completes without queueing).
  }

  if (phase_ == Phase::kWaitingCommit) {
    Status s = tm_->PollCommit(txn_);
    if (s.ok()) {
      ++stats_.committed;
      FinishScript();
    } else if (s.IsBusy()) {
      ++stats_.commit_waits;
    } else {
      HandleAbort(false);
    }
    return true;
  }

  if (op_index_ >= current_->ops.size()) {
    // Implied commit.
    Status s = tm_->Commit(txn_);
    ++stats_.ops_executed;
    if (s.ok()) {
      ++stats_.committed;
      FinishScript();
    } else if (s.IsBusy()) {
      // Group commit pending: keep the script alive and poll.
      phase_ = Phase::kWaitingCommit;
      ++stats_.commit_waits;
    } else {
      HandleAbort(false);
    }
    return true;
  }

  const Op& op = current_->ops[op_index_];
  Status s = ExecuteOp(op);
  ++stats_.ops_executed;
  if (s.IsTryAgain()) {
    // Transient capacity rejection (e.g. full LCB waiter list): re-issue
    // the same operation on the next step.
    ++stats_.lock_waits;
    return true;
  }
  if (s.ok()) {
    if (op.kind == Op::Kind::kCommit) {
      ++stats_.committed;
      FinishScript();
    } else if (op.kind == Op::Kind::kAbort) {
      ++stats_.aborted_other;
      FinishScript();
    } else {
      ++op_index_;
    }
    return true;
  }
  if (s.IsBusy()) {
    if (op.kind == Op::Kind::kCommit) {
      // Group commit pending (not a lock conflict): poll the pipeline.
      phase_ = Phase::kWaitingCommit;
      ++stats_.commit_waits;
      return true;
    }
    // Lock queued; remember what we wait for and poll on later steps.
    phase_ = Phase::kWaitingLock;
    waiting_name_ = (op.kind == Op::Kind::kIndexInsert ||
                     op.kind == Op::Kind::kIndexDelete ||
                     op.kind == Op::Kind::kIndexLookup)
                        ? KeyLockName(tm_->index()->tree_id(), op.key)
                        : RecordLockName(op.rid);
    waiting_mode_ = (op.kind == Op::Kind::kRead ||
                     op.kind == Op::Kind::kIndexLookup)
                        ? LockMode::kShared
                        : LockMode::kExclusive;
    ++stats_.lock_waits;
    return true;
  }
  HandleAbort(s.IsDeadlock());
  return true;
}

Status NodeExecutor::Quiesce() {
  if (txn_ != nullptr && txn_->state == TxnState::kActive) {
    // A pending group commit whose record an unrelated force already made
    // durable is committed, not abortable — complete it; otherwise roll
    // back (withdrawing any still-volatile pending commit record).
    if (!tm_->TryFinishDurablePendingCommit(txn_)) {
      SMDB_RETURN_IF_ERROR(tm_->Abort(txn_));
    }
  }
  queue_.clear();
  FinishScript();
  return Status::Ok();
}

void NodeExecutor::OnCrash() {
  queue_.clear();
  FinishScript();
}

SystemExecutor::SystemExecutor(TxnManager* tm, Machine* machine,
                               uint64_t seed)
    : tm_(tm), machine_(machine), rng_(seed) {
  for (NodeId n = 0; n < machine_->num_nodes(); ++n) {
    executors_.push_back(std::make_unique<NodeExecutor>(tm_, n));
  }
}

bool SystemExecutor::AllIdle() const {
  for (NodeId n = 0; n < machine_->num_nodes(); ++n) {
    if (machine_->NodeAlive(n) && !executors_[n]->idle()) return false;
  }
  return true;
}

std::vector<NodeId> SystemExecutor::ReadyNodes() const {
  std::vector<NodeId> ready;
  for (NodeId n = 0; n < machine_->num_nodes(); ++n) {
    if (machine_->NodeAlive(n) && !executors_[n]->idle()) ready.push_back(n);
  }
  return ready;
}

bool SystemExecutor::StepOnce() {
  // Collect live, non-idle nodes and pick one uniformly (seeded): a simple
  // but adversarial-enough interleaving for the crash experiments.
  std::vector<NodeId> ready = ReadyNodes();
  if (ready.empty()) return false;
  NodeId pick = ready[rng_.Uniform(ready.size())];
  {
    ProfRoot root(machine_->instruments(), ProfPhase::kStep);
    executors_[pick]->Step();
  }
  ++steps_;
  return true;
}

void SystemExecutor::Run(uint64_t max_steps,
                         const std::function<void(uint64_t)>& on_step) {
  uint64_t executed = 0;
  while (executed < max_steps) {
    if (!StepOnce()) break;
    ++executed;
    if (on_step) on_step(steps_);
  }
}

ExecutorStats SystemExecutor::TotalStats() const {
  ExecutorStats total;
  for (const auto& ex : executors_) {
    total.committed += ex->stats().committed;
    total.aborted_deadlock += ex->stats().aborted_deadlock;
    total.aborted_other += ex->stats().aborted_other;
    total.retries += ex->stats().retries;
    total.ops_executed += ex->stats().ops_executed;
    total.lock_waits += ex->stats().lock_waits;
    total.commit_waits += ex->stats().commit_waits;
  }
  return total;
}

}  // namespace smdb
