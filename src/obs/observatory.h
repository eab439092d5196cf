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

namespace smdb {

/// Latency-observatory knobs, carried in DatabaseConfig.
struct ObsConfig {
  /// Runtime switch; off leaves only a pointer + bool test at every
  /// emission site (the SMDB_TRACE discipline). The observatory makes no
  /// machine operations, so digests and replay bytes are identical either
  /// way.
  bool enabled = false;
  /// Time-series sampling window, in sim-ns.
  SimTime window_ns = 50'000;
  /// Commits up to this long after a recovery completes still count as
  /// "through-crash" for the split p99 (the post-restart warm-up tail).
  SimTime crash_influence_ns = 200'000;
  /// Lock-contention profile size (top-N keys by total wait time).
  uint32_t top_contended = 8;
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
  Observatory(uint16_t num_nodes, ObsConfig config);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  const ObsConfig& config() const { return config_; }

  // ---- Emission sites (route through SMDB_OBS) -------------------------

  void OnTxnBegin(NodeId node, TxnId txn, SimTime ts);
  /// `latency` = ts - begin_ts, computed by the caller from the stamped
  /// transaction. Fires once per transaction (duplicate ids are ignored).
  void OnCommit(NodeId node, TxnId txn, SimTime ts, SimTime latency);
  void OnAbort(NodeId node, TxnId txn, SimTime ts, SimTime latency);

  void OnLockQueued(TxnId txn, uint64_t name, SimTime ts);
  void OnLockGranted(TxnId txn, uint64_t name, SimTime ts);

  void OnGcEnqueued(NodeId node, uint64_t queue_depth, SimTime ts);
  void OnGcResidency(NodeId node, SimTime residency, SimTime ts);

  void OnNodeDown(NodeId node, SimTime ts);
  void OnNodeUp(NodeId node, SimTime ts);
  /// A crash-recovery pass starts: surviving nodes stall (-> recovering)
  /// and a new crash record opens. Fired before crash-time pending-commit
  /// resolution so resolved commits count as through-crash.
  void OnRecoveryStart(const std::vector<NodeId>& crashed, SimTime ts);
  void OnRecoveryEnd(SimTime ts);
  /// On-demand recovery: the last lazy obligation of the most recent crash
  /// was discharged (Recovering -> fully recovered). No-op when no crash
  /// record is open for draining.
  void OnRecoveryDrained(SimTime ts);

  // ---- Export ----------------------------------------------------------

  /// Builds the full report: copies the histograms/series, derives the
  /// availability timeline (TTFC + trough per crash), and ranks the
  /// contention profile. Cheap no-op shell when disabled.
  LatencyReport Snapshot() const;
  json::Value ToJson() const { return Snapshot().ToJson(); }

 private:
  struct CrashRecord {
    SimTime crash_ts = 0;
    std::vector<NodeId> nodes;
    SimTime recovery_end_ts = 0;
    SimTime drain_end_ts = 0;  ///< on-demand: last lazy obligation gone
    bool open = true;  ///< recovery still running
    bool saw_commit = false;
    SimTime first_commit_ts = 0;
    std::vector<NodeTtfc> node_ttfc;
  };

  struct NodeState {
    NodeServiceState state = NodeServiceState::kServing;
    bool awaiting_first_commit = false;
    SimTime restart_ts = 0;
    /// Crash record the pending TTFC belongs to (index into crashes_).
    size_t crash_index = 0;
  };

  void Transition(NodeId node, NodeServiceState state, SimTime ts);
  bool InCrashShadow(SimTime ts) const;

  bool enabled_;
  ObsConfig config_;


  Histogram commit_latency_;
  Histogram abort_latency_;
  Histogram lock_wait_;
  Histogram gc_residency_;
  Histogram commit_steady_;
  Histogram commit_through_crash_;

  TimeSeries series_;
  std::vector<NodeStateTransition> transitions_;
  std::vector<NodeState> node_states_;
  std::vector<CrashRecord> crashes_;

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

/// Emission macro, mirroring SMDB_TRACE: `obs_expr` must evaluate to an
/// Observatory*; `...` is a method call on it. Compiles out under
/// SMDB_OBS_DISABLED, else costs a null + enabled test when off.
#ifdef SMDB_OBS_DISABLED
#define SMDB_OBS(obs_expr, ...) ((void)0)
#else
#define SMDB_OBS(obs_expr, ...)                          \
  do {                                                   \
    ::smdb::Observatory* smdb_obs_ptr = (obs_expr);      \
    if (smdb_obs_ptr != nullptr && smdb_obs_ptr->enabled()) { \
      smdb_obs_ptr->__VA_ARGS__;                         \
    }                                                    \
  } while (0)
#endif

#endif  // SMDB_OBS_OBSERVATORY_H_
