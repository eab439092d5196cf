#include "txn/executor.h"

#include "obs/profiler.h"
#include "sim/machine.h"

namespace smdb {

const char* SchedulePolicyName(SchedulePolicy policy) {
  return policy == SchedulePolicy::kUniform ? "uniform" : "time";
}

std::optional<SchedulePolicy> ParseSchedulePolicy(std::string_view name) {
  if (name == "time") return SchedulePolicy::kTimeOrdered;
  if (name == "uniform") return SchedulePolicy::kUniform;
  return std::nullopt;
}

NodeExecutor::NodeExecutor(TxnManager* tm, Machine* machine, NodeId node,
                           int max_retries)
    : tm_(tm), machine_(machine), node_(node), max_retries_(max_retries) {}

void NodeExecutor::Wake(SimTime at) {
  blocked_ = false;
  SleepUntil(at);
}

SimTime NodeExecutor::ReadyAt() const {
  SimTime t = std::max(machine_->NodeClock(node_), wake_at_);
  if (phase_ == Phase::kWaitingCommit && txn_ != nullptr) {
    t = std::max(t, tm_->CommitWakeTime(txn_));
  }
  return t;
}

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
  blocked_ = false;
  wake_at_ = 0;
  deadlock_retry_ = false;
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
    deadlock_retry_ = deadlock;
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

  // A sleeping node's clock catches up to its wake time: a lock wait (or a
  // deadlock backoff), or a group-commit wait for its batch deadline.
  const SimTime now = machine_->NodeClock(node_);
  if (wake_at_ > now) {
    if (phase_ == Phase::kWaitingCommit) {
      machine_->Tick(node_, wake_at_ - now);
    } else {
      ProfScope lock_wait(machine_->instruments(), ProfPhase::kLockWait);
      machine_->Tick(node_, wake_at_ - now);
    }
  }
  wake_at_ = 0;
  blocked_ = false;

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
      blocked_ = true;
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
    // the same operation once a release frees capacity.
    ++stats_.lock_waits;
    blocked_ = true;
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
    // Lock queued; remember what we wait for and poll once woken.
    phase_ = Phase::kWaitingLock;
    blocked_ = true;
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
                               uint64_t seed, SchedulePolicy policy)
    : tm_(tm),
      machine_(machine),
      rng_(seed),
      policy_(policy),
      seen_release_epoch_(tm->lock_release_epoch()) {
  for (NodeId n = 0; n < machine_->num_nodes(); ++n) {
    executors_.push_back(std::make_unique<NodeExecutor>(tm_, machine_, n));
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

void SystemExecutor::WakeOnRelease(SimTime at) {
  const uint64_t epoch = tm_->lock_release_epoch();
  if (epoch == seen_release_epoch_) return;
  seen_release_epoch_ = epoch;
  for (const auto& ex : executors_) {
    if (ex->blocked()) ex->Wake(at);
  }
}

NodeId SystemExecutor::PickTimeOrdered(const std::vector<NodeId>& ready) {
  // Runnable (unblocked) nodes compete on their ready time. If every one is
  // blocked, the earliest blocked node re-polls, so the run cannot hang.
  bool any_runnable = false;
  for (NodeId n : ready) any_runnable |= !executors_[n]->blocked();
  SimTime best = ~SimTime{0};
  std::vector<NodeId> earliest;
  for (NodeId n : ready) {
    if (any_runnable && executors_[n]->blocked()) continue;
    SimTime t = executors_[n]->ReadyAt();
    if (t < best) {
      best = t;
      earliest.clear();
    }
    if (t == best) earliest.push_back(n);
  }
  return earliest.size() == 1 ? earliest[0]
                              : earliest[rng_.Uniform(earliest.size())];
}

bool SystemExecutor::StepOnce() {
  std::vector<NodeId> ready = ReadyNodes();
  if (ready.empty()) return false;
  NodeId pick;
  if (policy_ == SchedulePolicy::kUniform) {
    // Uniform (seeded) over live, non-idle nodes: the adversarial
    // interleaving for the crash experiments.
    pick = ready[rng_.Uniform(ready.size())];
  } else {
    // Releases between steps (restart recovery dropping a crashed
    // transaction's locks) wake the waiters at their own clocks.
    WakeOnRelease(0);
    pick = PickTimeOrdered(ready);
    executors_[pick]->SleepUntil(executors_[pick]->ReadyAt());
  }
  NodeExecutor& ex = *executors_[pick];
  {
    ProfRoot root(machine_->instruments(), ProfPhase::kStep);
    ex.Step();
  }
  const bool backoff = ex.TakeDeadlockRetry();
  if (policy_ == SchedulePolicy::kTimeOrdered) {
    const SimTime now = machine_->NodeClock(pick);
    WakeOnRelease(now);
    if (backoff) ex.SleepUntil(now + rng_.Uniform(kDeadlockBackoffNs));
  }
  last_stepped_ = pick;
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
