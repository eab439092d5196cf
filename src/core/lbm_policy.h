#ifndef SMDB_CORE_LBM_POLICY_H_
#define SMDB_CORE_LBM_POLICY_H_

#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "core/protocol.h"
#include "sim/events.h"

namespace smdb {

class Machine;
class LogManager;
class GroupCommitPipeline;

/// A Logging-Before-Migration policy: guarantees that before a cache line
/// containing an uncommitted update migrates (or replicates) to another
/// node, sufficient log information exists to undo and redo the update.
///
/// The caller (the transaction layer's update protocol) appends the log
/// record *inside* the line-lock critical section and then invokes
/// OnUpdateLogged — at that point the line has not migrated yet, which is
/// what enforces Volatile LBM for free. The Stable variants additionally
/// force the log, either immediately (eager) or when the coherency
/// protocol signals the departure of an active line (triggered).
class LbmPolicy {
 public:
  virtual ~LbmPolicy() = default;

  /// Factory. The triggered policy registers a coherence hook on `machine`
  /// and a force hook on `log`. With a non-null `group_commit`, the eager
  /// policy coalesces: updates register an intent with the pipeline (the
  /// batched force lands within its window) and fall back to migration-
  /// triggered forces for safety, instead of forcing on every update.
  static std::unique_ptr<LbmPolicy> Create(
      LbmKind kind, Machine* machine, LogManager* log,
      GroupCommitPipeline* group_commit = nullptr);

  virtual LbmKind kind() const = 0;

  /// Invoked inside the update critical section, after the log record for
  /// an update performed by `node` (covering the given lines) was appended
  /// at `lsn`.
  virtual Status OnUpdateLogged(NodeId node, Lsn lsn,
                                const std::vector<LineAddr>& lines) = 0;
};

/// Volatile LBM (also used for the no-LBM baseline, where the volatile log
/// append is plain WAL): nothing beyond the in-critical-section append.
class VolatileLbm : public LbmPolicy {
 public:
  explicit VolatileLbm(LbmKind kind) : kind_(kind) {}
  LbmKind kind() const override { return kind_; }
  Status OnUpdateLogged(NodeId, Lsn, const std::vector<LineAddr>&) override {
    return Status::Ok();
  }

 private:
  LbmKind kind_;
};

/// Stable LBM with a log force on every update.
class StableEagerLbm : public LbmPolicy {
 public:
  StableEagerLbm(Machine* machine, LogManager* log)
      : machine_(machine), log_(log) {}
  LbmKind kind() const override { return LbmKind::kStableEager; }
  Status OnUpdateLogged(NodeId node, Lsn lsn,
                        const std::vector<LineAddr>& lines) override;

 private:
  Machine* machine_;
  LogManager* log_;
};

/// Stable LBM with migration-triggered forces: updated lines are marked
/// "active"; the coherence hook forces the updater's log when an active
/// line is about to be downgraded or invalidated. A successful force clears
/// the active marks of that node's lines.
class StableTriggeredLbm : public LbmPolicy {
 public:
  StableTriggeredLbm(Machine* machine, LogManager* log);
  LbmKind kind() const override { return LbmKind::kStableTriggered; }
  Status OnUpdateLogged(NodeId node, Lsn lsn,
                        const std::vector<LineAddr>& lines) override;

 private:
  void OnCoherence(const CoherenceEvent& ev);
  void OnForced(NodeId node);

  Machine* machine_;
  LogManager* log_;
  /// line -> node whose unforced update made it active.
  HashMap<LineAddr, NodeId> active_by_;
  /// node -> its active lines (for clearing on force).
  HashMap<NodeId, HashSet<LineAddr>> active_lines_;
};

/// Stable-eager LBM riding the group-commit pipeline: instead of forcing on
/// every update, each update registers an intent (arming the pipeline's
/// coalescing window, so the force lands within window_ns bounded delay)
/// and keeps the triggered policy's migration safety net — if an active
/// line departs before the batched force, the coherence hook forces
/// immediately. Durability-before-migration is therefore preserved exactly;
/// only the *timing* of forces changes, which the simulator's determinism
/// rules allow.
class StableEagerGroupLbm : public StableTriggeredLbm {
 public:
  StableEagerGroupLbm(Machine* machine, LogManager* log,
                      GroupCommitPipeline* gc)
      : StableTriggeredLbm(machine, log), gc_(gc) {}
  LbmKind kind() const override { return LbmKind::kStableEager; }
  Status OnUpdateLogged(NodeId node, Lsn lsn,
                        const std::vector<LineAddr>& lines) override;

 private:
  GroupCommitPipeline* gc_;
};

}  // namespace smdb

#endif  // SMDB_CORE_LBM_POLICY_H_
