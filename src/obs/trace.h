#ifndef SMDB_OBS_TRACE_H_
#define SMDB_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace smdb {

/// Typed trace events. One enum for every instrumented site so a single
/// ring-buffer entry stays POD-sized; the payload fields `a`/`b` are
/// interpreted per kind (documented on each enumerator).
enum class TraceEventKind : uint8_t {
  // Coherence actions (sim/machine.cc). a = line address.
  kMigration,     ///< dirty line moved to the requesting cache; peer = old owner
  kReplication,   ///< line copied into the requesting cache; peer = source
  kInvalidation,  ///< sharer copy invalidated; node = writer, peer = sharer
  kDowngrade,     ///< exclusive copy downgraded to shared; peer = old owner

  // WAL actions (wal/log_manager.cc, wal/group_commit.cc).
  kLogAppend,         ///< record appended to the volatile tail; a = lsn
  kForceIntent,       ///< force requested/armed; label = "commit"|"lbm", a = lsn
  kLogForce,          ///< batched force to stable storage; peer = requestor,
                      ///< a = batch size, b = last stable lsn
  kGroupCommitFlush,  ///< pipeline flushed a node's queue; a = pending
                      ///< commits, label = "size"|"deadline"|"direct"

  // Transaction lifecycle (txn/txn_manager.cc). txn = transaction id.
  kTxnBegin,       ///< a = begin-record lsn
  kTxnCommitWait,  ///< commit parked pending a group force; a = commit lsn
  kTxnCommit,      ///< commit finished; label = "resolved" for crash-time
                   ///< completion of a durable pending commit
  kTxnAbort,       ///< abort finished; label = "annulled" for crash annulment

  // Lock manager (lockmgr/lock_table.cc). a = lock name, b = mode.
  kLockAcquire,  ///< lock granted; label = "poll" when granted from the queue
  kLockRelease,  ///< lock released
  kLockQueued,   ///< request queued behind a conflicting holder

  // Group-commit pipeline (wal/group_commit.cc).
  kGcEnqueue,    ///< commit queued for a group force; a = queue depth
  kGcResidency,  ///< a force covered a queued commit; a = sim-ns it waited

  // Failures and recovery (sim/machine.cc, core/).
  kCrash,          ///< node crashed
  kRecoveryPhase,  ///< span: label = phase name, dur = phase sim-time
  kTagDecision,    ///< tag-scan verdict; label = "heap-undo"|"heap-stale"|
                   ///< "index-undo"|"index-stale", a = rid/key, txn = owner
  kNodeDown,          ///< node taken down by a whole-machine reboot
  kNodeUp,            ///< node restarted (cold cache)
  kRecoveryStart,     ///< restart recovery begins for the nodes whose
                      ///< kCrash events precede it
  kRecoveryEnd,       ///< the synchronous recovery pass returned
  kRecoveryDrained,   ///< on-demand: the last lazy obligation was discharged
};

/// Number of enumerators — smdb_trace_check builds its known-kind set by
/// iterating [0, kNumTraceEventKinds). Keep in sync with the enum tail.
inline constexpr size_t kNumTraceEventKinds =
    static_cast<size_t>(TraceEventKind::kRecoveryDrained) + 1;

/// Human-readable name of a kind (stable; used in exported JSON).
const char* TraceEventKindName(TraceEventKind kind);

/// One instrumentation event: the single vocabulary every emission site
/// speaks (see obs/instruments.h). POD so the per-node rings are flat
/// arrays; `label` must point at a string with static storage duration
/// (phase names, decision labels) — the recorder never copies or frees it.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kCrash;
  NodeId node = 0;            ///< ring / Chrome-trace track the event lands on
  NodeId peer = kInvalidNode; ///< other party, when the action has one
  TxnId txn = kInvalidTxn;
  SimTime ts = 0;   ///< sim-ns at emission
  SimTime dur = 0;  ///< sim-ns span length; 0 = instant
  uint64_t a = 0;
  uint64_t b = 0;
  const char* label = nullptr;
  /// Transaction lifecycle events: the transaction's begin time, from which
  /// the observatory measures latency. Not exported.
  SimTime begin_ts = 0;
  uint64_t seq = 0;  ///< recorder-assigned global emission order
};

/// Per-node fixed-capacity ring buffers of TraceEvents with drop-oldest
/// overflow. For a fixed seed the recorded sequence (including the global
/// `seq` order) is deterministic at any recovery_streams / --jobs setting.
class TraceRecorder {
 public:
  TraceRecorder(uint16_t num_nodes, uint32_t capacity_per_node);

  uint16_t num_nodes() const { return static_cast<uint16_t>(rings_.size()); }

  /// Records one event (assigns its global seq). Out-of-range nodes are
  /// clamped to ring 0 rather than dropped so misrouted events stay
  /// visible in the export.
  void Record(TraceEvent ev);

  /// Events dropped from one node's ring / across all rings.
  uint64_t dropped(NodeId node) const;
  uint64_t total_dropped() const;
  /// Events ever recorded (including since-dropped ones).
  uint64_t total_recorded() const;

  /// One node's surviving events, oldest first.
  std::vector<TraceEvent> Events(NodeId node) const;
  /// All surviving events merged in global emission (seq) order.
  std::vector<TraceEvent> AllEvents() const;
  /// The last `n` surviving events of one node, oldest first.
  std::vector<TraceEvent> Tail(NodeId node, size_t n) const;

  /// Chrome trace-event export (load at chrome://tracing or ui.perfetto.dev):
  /// one track (tid) per node, "X" complete events for spans, "i" instants.
  std::string ToChromeTrace() const;

 private:
  struct Ring {
    std::vector<TraceEvent> buf;  ///< size = capacity once full
    size_t next = 0;              ///< overwrite cursor once full
    uint64_t recorded = 0;
    uint64_t dropped = 0;
  };

  uint32_t capacity_;
  std::vector<Ring> rings_;
  uint64_t seq_ = 0;
};

/// Serializes one event as a JSON object (the forensic reports' format).
json::Value TraceEventJson(const TraceEvent& ev);

}  // namespace smdb

#endif  // SMDB_OBS_TRACE_H_
