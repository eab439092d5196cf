#ifndef SMDB_WAL_GROUP_COMMIT_H_
#define SMDB_WAL_GROUP_COMMIT_H_

#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace smdb {

class Machine;
class LogManager;
class Instruments;

/// Per-node flush-coalescing layer in front of LogManager::Force.
///
/// Two kinds of force demand flow through the pipeline:
///   - commit forces: TxnManager appends the commit record, enqueues it
///     here, and acknowledges the transaction only once a covering force
///     has landed (the caller polls). A crash between enqueue and flush
///     annuls the transaction — it was never acknowledged, so IFA holds by
///     construction.
///   - Stable-LBM intents: the eager policy's per-update forces degrade to
///     a per-node "this tail wants stability soon" mark. Any force of the
///     node's log covers every intent (a force moves the whole tail), and
///     the triggered policy's migration hook remains the synchronous
///     safety net, so the Stable-LBM invariant is never weakened.
///
/// A node's demands are merged into one batched force when the first of
/// three bounds trips: the coalescing window expires (sim time since the
/// oldest un-covered demand), the volatile tail reaches max_batch records,
/// or an external force (WAL flush gate, checkpoint, migration trigger)
/// happens to land first and covers everything for free.
///
/// The pipeline never initiates I/O on its own thread — there is none; it
/// is driven by the deterministic simulator through EnqueueCommit /
/// NoteLbmIntent / Poll, so crash points remain exactly the executor-step
/// boundaries the fuzzer explores.
class GroupCommitPipeline {
 public:
  struct PendingCommit {
    TxnId txn = kInvalidTxn;
    Lsn lsn = kInvalidLsn;
    /// Node clock when the commit was enqueued (diagnostics).
    SimTime enqueued_at = 0;
    /// Queue residency already emitted (a force moves the whole tail, so
    /// later forces see the entry again).
    bool residency_recorded = false;
  };

  struct Stats {
    uint64_t enqueued_commits = 0;
    uint64_t lbm_intents = 0;
    uint64_t deadline_flushes = 0;
    uint64_t size_flushes = 0;

    void Reset() { *this = Stats(); }

    /// Visits every field as ("name", value) — the metrics registry's
    /// source of truth for this struct.
    template <typename Fn>
    void ForEachCounter(Fn&& fn) const {
      fn("enqueued_commits", enqueued_commits);
      fn("lbm_intents", lbm_intents);
      fn("deadline_flushes", deadline_flushes);
      fn("size_flushes", size_flushes);
    }
  };

  /// Registers a force hook on `log` to observe covering forces.
  /// `inst` (may be null) receives flush, intent, enqueue and residency
  /// events.
  GroupCommitPipeline(Machine* machine, LogManager* log, SimTime window_ns,
                      uint32_t max_batch, Instruments* inst = nullptr);

  /// Registers `txn`'s commit record (already appended at `lsn`) as
  /// pending. May flush immediately when the size bound is already met.
  /// The caller must check LogManager::IsStable afterwards: the commit may
  /// be durable at once (size flush or an earlier force already covered
  /// the LSN).
  Status EnqueueCommit(NodeId node, TxnId txn, Lsn lsn);

  /// Marks `node`'s tail as wanting stability (Stable-LBM eager demand).
  /// May flush immediately when the size bound is already met.
  Status NoteLbmIntent(NodeId node);

  /// One waiter poll: forces when the oldest un-covered demand has aged
  /// past the window, otherwise charges the poll cost to `node`'s clock.
  Status Poll(NodeId node);

  /// LSN of `txn`'s pending commit record, or kInvalidLsn if none.
  Lsn PendingCommitLsn(TxnId txn) const;

  /// Removes `txn`'s pending entry (acknowledged, withdrawn by an abort,
  /// or crash-annulled). No-op if absent.
  void DropCommit(TxnId txn);

  /// Crash path: the node's volatile tail is gone, so every pending commit
  /// whose record had not reached stable storage is dropped (the
  /// transaction will be annulled by recovery). Durable-but-unacknowledged
  /// entries are kept for TxnManager::ResolvePendingCommits.
  void OnNodeCrash(NodeId node);

  /// Snapshot of every pending commit (crash-time resolution).
  std::vector<std::pair<NodeId, PendingCommit>> PendingCommits() const;

  size_t PendingCount(NodeId node) const { return nodes_[node].commits.size(); }
  /// The window deadline of `node`'s oldest un-covered demand, or 0 when
  /// none is armed.
  SimTime DeadlineAt(NodeId node) const {
    return nodes_[node].deadline_armed ? nodes_[node].deadline_at : 0;
  }
  const Stats& stats() const { return stats_; }

 private:
  struct NodeState {
    std::vector<PendingCommit> commits;
    /// An eager-LBM intent is un-covered (any force clears it).
    bool has_intent = false;
    /// Window deadline of the oldest un-covered demand; meaningless unless
    /// armed.
    bool deadline_armed = false;
    SimTime deadline_at = 0;
  };

  void ArmDeadline(NodeState* ns, SimTime now);
  /// Forces if the tail already holds >= max_batch records.
  Status MaybeSizeFlush(NodeId node);
  Status FlushNow(NodeId node, bool size_bound);
  /// Force-hook observer: any force of `node` covers every pending demand.
  void OnForced(NodeId node);

  Machine* machine_;
  LogManager* log_;
  Instruments* inst_;
  SimTime window_ns_;
  uint32_t max_batch_;
  std::vector<NodeState> nodes_;
  Stats stats_;
};

}  // namespace smdb

#endif  // SMDB_WAL_GROUP_COMMIT_H_
