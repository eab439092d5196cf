#ifndef SMDB_CORE_PROTOCOL_H_
#define SMDB_CORE_PROTOCOL_H_

#include <cstdint>
#include <string>

namespace smdb {

/// Logging-Before-Migration policy variants (section 4.1.1 / section 5).
enum class LbmKind : uint8_t {
  /// No LBM at all: plain WAL with per-node logs. Guarantees only FA (via a
  /// whole-machine reboot), not IFA. Baseline.
  kNone,
  /// Volatile LBM: the log record is written into the node-local volatile
  /// log inside the line-lock critical section, i.e. before the updated
  /// line can migrate. Near-zero extra cost (section 5.1).
  kVolatile,
  /// Stable LBM, naive enforcement: force the log on *every* update
  /// ("force the log as part of the update protocol", section 5.2).
  kStableEager,
  /// Stable LBM, migration-triggered enforcement: one "active data" bit per
  /// cache line; the coherency protocol triggers a log force at the latest
  /// possible point — the downgrade or invalidation of an active line
  /// (section 5.2's proposed hardware extension).
  kStableTriggered,
};

/// Restart recovery schemes (section 4.1.2) plus the two non-IFA baselines
/// the paper argues against.
enum class RestartKind : uint8_t {
  /// Survivors discard all cached database lines and redo from their local
  /// logs everything not reflected in the stable database.
  kRedoAll,
  /// Survivors redo only their own updates that were exclusively resident
  /// on crashed nodes; undo of crashed transactions' migrated updates uses
  /// the per-record undo tags.
  kSelectiveRedo,
  /// Baseline: a single node crash reboots the whole machine; every active
  /// transaction aborts (the fate of an SM database without IFA).
  kRebootAll,
  /// Baseline ("overkill" method of section 3.3): nodes survive, but every
  /// transaction dependent on the memory of a remote node is aborted.
  kAbortDependents,
};

/// Complete protocol configuration. The preset factories correspond to the
/// columns of Table 1 plus the two baselines.
struct RecoveryConfig {
  LbmKind lbm = LbmKind::kVolatile;
  RestartKind restart = RestartKind::kSelectiveRedo;
  /// Log read locks and queued requests (Table 1 row 2; required for IFA of
  /// the shared-memory lock table).
  bool log_lock_ops = true;
  /// Commit structural changes (B-tree splits, space allocation) early, as
  /// nested top-level actions (Table 1 row 1; required for IFA).
  bool early_commit_structural = true;

  /// Simulated survivor streams for partitioned restart recovery. 1 (the
  /// default) is the classic single-stream pass. N > 1 pins N streams to
  /// surviving performers and partitions the redo/undo passes by page
  /// (heap) and key (index), so each stream's line traffic stays disjoint
  /// and the simulated recovery time shrinks accordingly. The pass still
  /// runs serially on the host. Orthogonal to protocol identity:
  /// FlagName()/presets ignore it, and the recovered machine state is
  /// bit-identical to the single-stream run (see
  /// tests/recovery_equivalence_test.cc).
  uint32_t recovery_streams = 1;

  /// Group-commit log-force pipeline (off = exact classic behaviour: every
  /// commit and every Stable-LBM eager event forces the log synchronously).
  /// When on, commit records are enqueued and the transaction is
  /// acknowledged only once a covering force lands; Stable-LBM eager
  /// forces degrade to coalescible intents backed by the triggered
  /// policy's migration safety net. Orthogonal to protocol identity:
  /// FlagName()/presets ignore it, and acknowledgement-after-force keeps
  /// every IFA argument intact (see DESIGN.md).
  bool group_commit = false;
  /// Maximum simulated time a pending commit/LBM intent may wait for a
  /// coalescing partner before the pipeline forces anyway.
  uint64_t group_commit_window_ns = 100'000;
  /// Force immediately once a node's volatile tail reaches this many
  /// records, regardless of the window.
  uint32_t group_commit_max_batch = 64;

  /// On-demand (instant) restart recovery, after Sauer & Härder's
  /// instant-restart design. Every restart runs through one engine
  /// (OnDemandRecovery): the scheme's crash-time prefix hands the redo,
  /// undo and tag work to it, and eager recovery is its drain run at once,
  /// inside the crash. When on, the IFA schemes (Redo All / Selective Redo
  /// with survivors) instead redo the index structure, rebuild the lock
  /// table and return with the database in a `Recovering` serving state:
  /// new transactions run immediately, the first touch of an unrecovered
  /// object discharges that object's redo/undo obligations under its
  /// rebuilt lock, and a background sweeper drains the rest in global-USN
  /// order (Database::PumpRecovery / DrainRecovery). RebootAll,
  /// AbortDependents and whole-machine restarts always drain at once.
  /// Orthogonal to protocol identity: FlagName()/presets ignore it, and
  /// when a drain runs before any new traffic the recovered machine state
  /// is bit-identical to the eager pass (tests/on_demand_recovery_test.cc).
  bool on_demand = false;

  /// Fault injection: suppress undo tags even when the restart scheme
  /// depends on them. This breaks IFA by construction (a crashed node's
  /// migrated update survives untagged in a remote cache and never gets
  /// undone) — the crash-schedule fuzzer uses it to prove it detects real
  /// protocol violations. Never set outside fuzzing/tests.
  bool disable_undo_tagging = false;

  /// Undo Tagging (Table 1 row 3): needed by Selective Redo (and by the
  /// abort-dependents baseline, which reuses its undo machinery).
  bool undo_tagging() const {
    return !disable_undo_tagging &&
           (restart == RestartKind::kSelectiveRedo ||
            restart == RestartKind::kAbortDependents);
  }

  /// True if this configuration guarantees IFA. Selective Redo only
  /// qualifies with its undo tags intact (Table 1 row 3).
  bool ensures_ifa() const {
    if (lbm == LbmKind::kNone) return false;
    if (restart == RestartKind::kRedoAll) return true;
    return restart == RestartKind::kSelectiveRedo && undo_tagging();
  }

  std::string Name() const;

  /// Stable flag-style name of the matching preset ("volatile-selective",
  /// "reboot-all", ...); "custom" for non-preset combinations. Used by the
  /// CLI tools and the fuzzer's replay files.
  std::string FlagName() const;

  /// Parses a FlagName back into a preset: sets the four fields FlagName
  /// compares and leaves the run knobs (streams, group commit, on-demand,
  /// fault injection) as they are. Returns false for unknown names.
  static bool FromFlagName(const std::string& name, RecoveryConfig* out);

  // Presets -----------------------------------------------------------

  static RecoveryConfig VolatileSelectiveRedo() {
    return {LbmKind::kVolatile, RestartKind::kSelectiveRedo, true, true};
  }
  static RecoveryConfig VolatileRedoAll() {
    return {LbmKind::kVolatile, RestartKind::kRedoAll, true, true};
  }
  static RecoveryConfig StableEagerRedoAll() {
    return {LbmKind::kStableEager, RestartKind::kRedoAll, true, true};
  }
  static RecoveryConfig StableTriggeredRedoAll() {
    return {LbmKind::kStableTriggered, RestartKind::kRedoAll, true, true};
  }
  static RecoveryConfig StableTriggeredSelectiveRedo() {
    return {LbmKind::kStableTriggered, RestartKind::kSelectiveRedo, true,
            true};
  }
  static RecoveryConfig BaselineRebootAll() {
    return {LbmKind::kNone, RestartKind::kRebootAll, false, false};
  }
  static RecoveryConfig BaselineAbortDependents() {
    return {LbmKind::kVolatile, RestartKind::kAbortDependents, true, true};
  }
};

/// Source of global update sequence numbers. USNs generalise Page-LSNs:
/// strict 2PL serialises updates to any one record, so USN order is
/// consistent with the update order on every record (and with commit
/// order). In a real SM machine this is a fetch-and-add on a shared
/// counter; the cost is charged by the caller as part of the update
/// protocol.
class UsnSource {
 public:
  uint64_t Next() { return next_++; }
  uint64_t current() const { return next_ - 1; }

 private:
  uint64_t next_ = 1;
};

}  // namespace smdb

#endif  // SMDB_CORE_PROTOCOL_H_
