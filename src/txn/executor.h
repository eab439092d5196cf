#ifndef SMDB_TXN_EXECUTOR_H_
#define SMDB_TXN_EXECUTOR_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"
#include "txn/txn_manager.h"

namespace smdb {

/// One operation in a transaction script.
struct Op {
  enum class Kind : uint8_t {
    kRead,
    kUpdate,
    kDirtyRead,
    kIndexInsert,
    kIndexDelete,
    kIndexLookup,
    kCommit,
    kAbort,
  };

  Kind kind = Kind::kCommit;
  RecordId rid;
  std::vector<uint8_t> value;
  uint64_t key = 0;

  static Op Read(RecordId r) { return {Kind::kRead, r, {}, 0}; }
  static Op Update(RecordId r, std::vector<uint8_t> v) {
    return {Kind::kUpdate, r, std::move(v), 0};
  }
  static Op DirtyRead(RecordId r) { return {Kind::kDirtyRead, r, {}, 0}; }
  static Op IndexInsert(uint64_t key, RecordId r) {
    return {Kind::kIndexInsert, r, {}, key};
  }
  static Op IndexDelete(uint64_t key) {
    return {Kind::kIndexDelete, {}, {}, key};
  }
  static Op IndexLookup(uint64_t key) {
    return {Kind::kIndexLookup, {}, {}, key};
  }
  static Op Commit() { return {Kind::kCommit, {}, {}, 0}; }
  static Op Abort() { return {Kind::kAbort, {}, {}, 0}; }
};

/// A transaction's operation list. The final op should be kCommit or
/// kAbort; a trailing commit is implied otherwise.
struct TxnScript {
  std::vector<Op> ops;
};

struct ExecutorStats {
  uint64_t committed = 0;
  uint64_t aborted_deadlock = 0;
  uint64_t aborted_other = 0;
  uint64_t retries = 0;
  uint64_t ops_executed = 0;
  uint64_t lock_waits = 0;
  /// Steps spent polling a pending group commit (Busy from Commit or
  /// PollCommit while the coalescing window is open).
  uint64_t commit_waits = 0;

  void Reset() { *this = ExecutorStats(); }
};

/// How SystemExecutor chooses the node that takes the next step.
enum class SchedulePolicy : uint8_t {
  /// Step the runnable node with the smallest clock (seeded tie-break).
  /// Lock waiters sleep until a release wakes them, group-commit waiters
  /// until their batch deadline or a covering force, and a deadlock retry
  /// for a seeded backoff — simulated time, not clock skew, orders events.
  kTimeOrdered,
  /// Pick a live, non-idle node uniformly at random, ignoring clocks;
  /// waiters poll every time they are picked. Kept as the fuzzer's
  /// adversarial interleaving.
  kUniform,
};

/// "time" | "uniform".
const char* SchedulePolicyName(SchedulePolicy policy);
std::optional<SchedulePolicy> ParseSchedulePolicy(std::string_view name);

/// Cooperative executor for one node: runs its queue of transaction
/// scripts one operation per Step(). Lock conflicts (Busy) park the
/// executor on the lock: it is blocked until the scheduler wakes it, then
/// polls the grant. Deadlock aborts roll the script back and retry it
/// (bounded).
class NodeExecutor {
 public:
  NodeExecutor(TxnManager* tm, Machine* machine, NodeId node,
               int max_retries = 8);

  void Enqueue(TxnScript script) { queue_.push_back(std::move(script)); }
  size_t pending() const { return queue_.size() + (current_ ? 1 : 0); }
  bool idle() const { return !current_ && queue_.empty(); }
  NodeId node() const { return node_; }

  /// Executes (at most) one operation. Returns false if idle.
  bool Step();

  /// Aborts the in-flight transaction and drops all queued scripts (used
  /// when this node's executor must stop, e.g. baseline whole-machine
  /// restarts). The in-flight transaction is rolled back via its log.
  Status Quiesce();

  /// Drops in-flight script state without rollback — the node crashed, its
  /// control state is gone; restart recovery owns the transaction's fate.
  void OnCrash();

  /// The transaction currently executing on this node, if any.
  Transaction* current_txn() { return txn_; }

  ExecutorStats& stats() { return stats_; }

  // Scheduler state (read and driven by a time-ordered SystemExecutor;
  // cleared by OnCrash and Quiesce).

  /// The last step left a lock request queued (or capacity-rejected): the
  /// node takes no step until Wake.
  bool blocked() const { return blocked_; }
  /// Unblocks the node; it may not act before simulated time `at`.
  void Wake(SimTime at);
  /// The node may not act before simulated time `at` (its next step first
  /// advances its clock there).
  void SleepUntil(SimTime at) { wake_at_ = std::max(wake_at_, at); }
  /// Simulated time of the node's next step, ignoring `blocked()`: its
  /// clock raised to any pending wake time or group-commit deadline.
  SimTime ReadyAt() const;
  /// True once after a deadlock abort that will retry the script.
  bool TakeDeadlockRetry() { return std::exchange(deadlock_retry_, false); }

 private:
  enum class Phase : uint8_t { kIdle, kRunning, kWaitingLock, kWaitingCommit };

  Status ExecuteOp(const Op& op);
  void FinishScript();
  void HandleAbort(bool deadlock);

  TxnManager* tm_;
  Machine* machine_;
  NodeId node_;
  int max_retries_;
  std::deque<TxnScript> queue_;
  std::optional<TxnScript> current_;
  Transaction* txn_ = nullptr;
  size_t op_index_ = 0;
  int retries_ = 0;
  Phase phase_ = Phase::kIdle;
  uint64_t waiting_name_ = 0;
  LockMode waiting_mode_ = LockMode::kNone;
  bool blocked_ = false;
  SimTime wake_at_ = 0;
  bool deadlock_retry_ = false;
  ExecutorStats stats_;
};

/// Drives all node executors with a deterministic seeded interleaving and
/// invokes a per-step callback (the crash scheduler hook). One step runs
/// at a time, on the calling thread: StepOnce is the only way a step runs.
class SystemExecutor {
 public:
  /// Upper bound (exclusive) of the seeded sleep before a time-ordered
  /// deadlock retry; without it the deterministic order replays the same
  /// deadlock until the retry limit.
  static constexpr SimTime kDeadlockBackoffNs = 2'000'000;

  SystemExecutor(TxnManager* tm, Machine* machine, uint64_t seed,
                 SchedulePolicy policy = SchedulePolicy::kTimeOrdered);

  NodeExecutor& executor(NodeId node) { return *executors_[node]; }

  /// Runs until every live node's executor is idle or `max_steps` global
  /// steps have executed. `on_step` (optional) is called after each global
  /// step with the step number.
  void Run(uint64_t max_steps = ~0ULL,
           const std::function<void(uint64_t)>& on_step = nullptr);

  /// Executes exactly one global step (one op on one live, non-idle node
  /// chosen by the policy). Returns false if all executors are idle.
  bool StepOnce();

  bool AllIdle() const;
  uint64_t steps() const { return steps_; }
  /// The node the last StepOnce stepped (kInvalidNode before the first).
  NodeId last_stepped() const { return last_stepped_; }

  ExecutorStats TotalStats() const;

 private:
  std::vector<NodeId> ReadyNodes() const;
  NodeId PickTimeOrdered(const std::vector<NodeId>& ready);
  /// Wakes every blocked node at simulated time `at` if the lock table
  /// released anything since the last look.
  void WakeOnRelease(SimTime at);

  TxnManager* tm_;
  Machine* machine_;
  Rng rng_;
  SchedulePolicy policy_;
  std::vector<std::unique_ptr<NodeExecutor>> executors_;
  uint64_t steps_ = 0;
  NodeId last_stepped_ = kInvalidNode;
  uint64_t seen_release_epoch_ = 0;
};

}  // namespace smdb

#endif  // SMDB_TXN_EXECUTOR_H_
