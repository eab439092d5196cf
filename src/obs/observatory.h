#ifndef SMDB_OBS_OBSERVATORY_H_
#define SMDB_OBS_OBSERVATORY_H_

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/json.h"
#include "common/types.h"
#include "obs/histogram.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace smdb {

/// Instrumentation knobs, carried in DatabaseConfig::obs. Every view of
/// the plane is off by default; an off view costs one test at each
/// emission site, and a build with -DSMDB_DISABLE_OBS=ON compiles the
/// sites out. No view makes machine operations, so digests and replay
/// bytes are identical with any combination on.
struct ObsConfig {
  /// Event trace: per-node rings of every emitted event.
  bool trace = false;
  /// Ring capacity per node; oldest events are dropped (and counted) once
  /// a node's ring is full.
  uint32_t trace_capacity_per_node = 4096;
  /// Latency/availability observatory.
  bool latency = false;
  /// Time-series sampling window, in sim-ns.
  SimTime window_ns = 50'000;
  /// Commits up to this long after a recovery completes still count as
  /// "through-crash" for the split p99 (the post-restart warm-up tail).
  SimTime crash_influence_ns = 200'000;
  /// Lock-contention profile size (top-N keys by total wait time).
  uint32_t top_contended = 8;
  /// Sim-time phase profiler.
  bool profile = false;
};

/// One contended lock, aggregated over the run.
struct LockContentionEntry {
  uint64_t name = 0;  ///< lock name (record/page/index key hash)
  uint64_t waits = 0;
  SimTime total_wait_ns = 0;
  SimTime max_wait_ns = 0;

  double mean_wait_ns() const {
    return waits == 0 ? 0.0 : double(total_wait_ns) / double(waits);
  }
};

/// Snapshot of everything the observatory measured, carried in
/// HarnessReport. Copyable; all fields are value types.
struct LatencyReport {
  bool enabled = false;
  SimTime window_ns = 0;

  Histogram commit_latency;  ///< begin -> commit acknowledged
  Histogram abort_latency;   ///< begin -> abort finished
  Histogram lock_wait;       ///< queued -> granted, per wait
  Histogram gc_residency;    ///< group-commit enqueue -> covering force

  /// Commit latency split by crash proximity: a commit is through-crash
  /// when it lands during a recovery or within crash_influence_ns after
  /// one; everything else is steady-state.
  Histogram commit_steady;
  Histogram commit_through_crash;

  TimeSeries series;
  std::vector<NodeStateTransition> node_states;
  AvailabilityReport availability;
  std::vector<LockContentionEntry> top_contended;

  json::Value ToJson() const;
};

/// Aggregates latency, throughput, and availability signals from the
/// instrumented subsystems. Every aggregate is order-insensitive (histogram
/// buckets, ts-keyed series windows, keyed maps), so for a fixed seed the
/// snapshot is deterministic at any recovery stream count.
class Observatory {
 public:
  /// Enabled iff `config.latency`.
  Observatory(uint16_t num_nodes, const ObsConfig& config);

  /// Folds one instrumentation event into the aggregates. Consumed kinds:
  /// txn begin/commit/abort (latency = ts - begin_ts; once per
  /// transaction), lock queued/acquire (wait spans), gc enqueue/residency,
  /// crash/node down/node up (the node-state timeline), and recovery
  /// start/end/drained (the per-crash availability records). Every other
  /// kind is ignored.
  void Consume(const TraceEvent& ev);

  /// Builds the full report: copies the histograms/series, derives the
  /// trough of each crash, and ranks the contention profile. Cheap no-op
  /// shell when disabled.
  LatencyReport Snapshot() const;

 private:
  struct CrashRecord {
    CrashAvailability ca;  ///< trough fields filled in by Snapshot
    bool open = true;      ///< recovery still running
  };

  struct NodeState {
    NodeServiceState state = NodeServiceState::kServing;
    bool awaiting_first_commit = false;
    SimTime restart_ts = 0;
    /// Crash record the pending TTFC belongs to (index into crashes_).
    size_t crash_index = 0;
  };

  /// Ends an open transaction and its pending waits. False when it was
  /// not open: each transaction completes once even if several completion
  /// paths run (normal finish, crash-time resolution of a pending commit).
  bool CloseTxn(TxnId txn);
  void OnCommit(NodeId node, TxnId txn, SimTime ts, SimTime latency);
  void OnAbort(TxnId txn, SimTime ts, SimTime latency);
  void OnLockGranted(TxnId txn, uint64_t name, SimTime ts);
  void OnNodeUp(NodeId node, SimTime ts);
  /// A crash-recovery pass starts: surviving nodes stall (-> recovering)
  /// and a new crash record opens for the nodes crashed since the last
  /// one. Emitted before crash-time pending-commit resolution so resolved
  /// commits count as through-crash.
  void OnRecoveryStart(SimTime ts);
  void OnRecoveryEnd(SimTime ts);

  void Transition(NodeId node, NodeServiceState state, SimTime ts);
  bool InCrashShadow(SimTime ts) const;

  ObsConfig config_;
  /// The histograms, series and node-state timeline, kept in report form;
  /// Snapshot adds the availability and contention sections.
  LatencyReport rep_;
  std::vector<NodeState> node_states_;
  std::vector<CrashRecord> crashes_;
  /// Nodes crashed since the last recovery start, in crash order.
  std::vector<NodeId> crashed_;

  /// Transactions begun and not yet finished; size = in-flight count.
  std::set<TxnId> open_txns_;
  /// (txn, lock name) -> queue timestamp for waits not yet granted.
  /// Ordered so clearing a transaction's entries is a range scan.
  std::map<std::pair<TxnId, uint64_t>, SimTime> pending_waits_;
  /// Lock name -> aggregate wait profile. Ordered for deterministic
  /// ranking ties.
  std::map<uint64_t, LockContentionEntry> contention_;
};

}  // namespace smdb

#endif  // SMDB_OBS_OBSERVATORY_H_
