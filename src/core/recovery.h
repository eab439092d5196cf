#ifndef SMDB_CORE_RECOVERY_H_
#define SMDB_CORE_RECOVERY_H_

#include <array>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"

namespace smdb {

/// Phases of the restart procedure, in pipeline order. Every scheme runs a
/// subset: Redo All skips the tag scan, Selective Redo skips the reload,
/// RebootAll adds the whole-machine reboot. Phase durations are recorded
/// per recovery in RecoveryOutcome::phase_ns and emitted as trace spans.
enum class RecoveryPhase : uint8_t {
  kLogAnalysis = 0,  ///< context build: scan logs, classify transactions
  kReboot,           ///< RebootAll's whole-machine restart step
  kReload,           ///< stable-page reload / lost-line reinstall
  kRedo,             ///< USN-guarded replay of reachable logs
  kUndo,             ///< undo of dead uncommitted work from stable logs
  kTagScan,          ///< Selective Redo's cache sweep over undo tags
  kLockRebuild,      ///< lock-table recovery (clear, drop, rebuild)
};
inline constexpr size_t kNumRecoveryPhases = 7;

/// Stable human-readable phase name (also the trace span label).
const char* RecoveryPhaseName(RecoveryPhase phase);

/// What restart recovery did, and what it cost: one ledger per recovery.
/// The crash-time prefix and every later discharge of its obligations
/// (first touch, sweep, drain) add to it, and it closes when the last
/// obligation is discharged or a later crash supersedes the recovery. An
/// eager recovery closes before Database::Crash returns. The benches for
/// the recovery-time (R1) and abort-avoidance (A1) experiments read these
/// fields directly.
struct RecoveryOutcome {
  /// The node set this recovery was run for (deduplicated). Triage tools —
  /// notably the crash-schedule fuzzer — use it to correlate an outcome
  /// with the crash plan that fired it.
  std::vector<NodeId> crashed_nodes;
  /// Active transactions on crashed nodes whose effects were undone (the
  /// "all effects ... will be undone" half of IFA).
  std::vector<TxnId> annulled;
  /// Active transactions on surviving nodes that kept running (the "no
  /// effects ... will be undone" half of IFA).
  std::vector<TxnId> preserved;
  /// Surviving-node transactions aborted anyway — zero for the IFA
  /// protocols, nonzero for the baselines. These are the paper's
  /// "unnecessary transaction aborts".
  std::vector<TxnId> forced_aborts;

  uint64_t redo_applied = 0;
  uint64_t redo_skipped = 0;   // Selective Redo's no-redo conditions hit
  uint64_t undo_applied = 0;
  uint64_t pages_reloaded = 0;
  uint64_t lines_reinstalled = 0;
  /// Stable-database page reads the restart issued: the reloads' and the
  /// committed-value reconstructor's. Each page is read at most once.
  uint64_t stable_reads = 0;
  uint64_t lcb_lines_cleared = 0;
  uint64_t lcbs_rebuilt = 0;
  uint64_t locks_dropped = 0;
  uint64_t tags_scanned = 0;   // cache lines visited by the tag scan
  uint64_t tag_undos = 0;      // undos performed from undo tags
  /// Objects a Recovering window discharged on their first touch, and
  /// objects its background sweeper discharged. Both stay 0 for eager
  /// recovery, whose drain runs inside the crash.
  uint64_t first_touch_discharges = 0;
  uint64_t sweep_discharges = 0;

  /// Simulated wall-clock of the restart procedure: global time at close
  /// minus global time at the crash. For an on-demand recovery that spans
  /// the whole Recovering window, traffic included; the blocking part is
  /// the observatory's recovery_end_ts - crash_ts.
  SimTime recovery_time_ns = 0;
  /// Per-phase global-time deltas (indexed by RecoveryPhase); phases the
  /// scheme did not run stay 0. Sums to <= recovery_time_ns (coordinator
  /// glue between phases is not attributed to any phase).
  std::array<SimTime, kNumRecoveryPhases> phase_ns{};
  bool whole_machine_restart = false;

  std::string ToString() const;
};

}  // namespace smdb

#endif  // SMDB_CORE_RECOVERY_H_
