#ifndef SMDB_OBS_TIMESERIES_H_
#define SMDB_OBS_TIMESERIES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/json.h"
#include "common/types.h"

namespace smdb {

/// Service state of one node as the availability timeline sees it.
/// kDown = crashed and not yet restarted; kRecovering = participating in a
/// restart-recovery pass (survivors stall while the synchronous recovery
/// runs, and rebooted/restarted nodes stay here until the pass completes);
/// kServing = accepting and committing work.
enum class NodeServiceState : uint8_t { kServing, kDown, kRecovering };

const char* NodeServiceStateName(NodeServiceState state);

/// One node-state change, in emission order.
struct NodeStateTransition {
  SimTime ts = 0;
  NodeId node = kInvalidNode;
  NodeServiceState state = NodeServiceState::kServing;
};

/// Sim-time windowed sampler: every recorded event lands in the window
/// floor(ts / window_ns). Windows are dense from 0 through the last
/// recorded event, so quiet stretches show up as explicit empty windows
/// (the shape of a throughput trough, not a gap in the x-axis).
class TimeSeries {
 public:
  /// Growth cap: a corrupt timestamp must not allocate unbounded windows;
  /// events past the cap land in the last window.
  static constexpr size_t kMaxWindows = 1u << 20;

  struct Window {
    uint64_t begins = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t max_inflight = 0;
    uint64_t max_gc_depth = 0;
  };

  explicit TimeSeries(SimTime window_ns = 50'000)
      : window_ns_(window_ns == 0 ? 1 : window_ns) {}

  SimTime window_ns() const { return window_ns_; }
  size_t WindowIndex(SimTime ts) const {
    size_t idx = static_cast<size_t>(ts / window_ns_);
    return idx >= kMaxWindows ? kMaxWindows - 1 : idx;
  }
  SimTime WindowStart(size_t index) const { return index * window_ns_; }

  void OnBegin(SimTime ts) { ++At(ts).begins; }
  void OnCommit(SimTime ts) { ++At(ts).commits; }
  void OnAbort(SimTime ts) { ++At(ts).aborts; }
  void NoteInflight(SimTime ts, uint64_t inflight) {
    Window& w = At(ts);
    if (inflight > w.max_inflight) w.max_inflight = inflight;
  }
  void NoteGcDepth(SimTime ts, uint64_t depth) {
    Window& w = At(ts);
    if (depth > w.max_gc_depth) w.max_gc_depth = depth;
  }

  const std::vector<Window>& windows() const { return windows_; }

  /// Committed transactions per simulated second in window `index`.
  double Tps(size_t index) const {
    return index >= windows_.size()
               ? 0.0
               : double(windows_[index].commits) * 1e9 / double(window_ns_);
  }

  /// Columnar export: parallel arrays keyed "window_start_ns", "commits",
  /// "aborts", "begins", "max_inflight", "max_gc_depth", "tps".
  json::Value ToJson() const;

 private:
  Window& At(SimTime ts) {
    size_t idx = WindowIndex(ts);
    if (idx >= windows_.size()) windows_.resize(idx + 1);
    return windows_[idx];
  }

  SimTime window_ns_;
  std::vector<Window> windows_;
};

/// Time-to-first-commit of one restarted node.
struct NodeTtfc {
  NodeId node = kInvalidNode;
  SimTime restart_ts = 0;
  SimTime first_commit_ts = 0;
  /// False while the node has not committed since its restart.
  bool committed = false;

  SimTime ttfc_ns() const {
    return !committed || first_commit_ts < restart_ts
               ? 0
               : first_commit_ts - restart_ts;
  }
};

/// Availability metrics derived for one crash: how fast commits resumed and
/// how deep/wide the throughput trough was.
struct CrashAvailability {
  SimTime crash_ts = 0;
  std::vector<NodeId> nodes;
  SimTime recovery_end_ts = 0;
  /// On-demand recovery only: when the last lazy obligation was discharged
  /// (first touch, sweeper, or drain). 0 when recovery was fully eager —
  /// the eager pass leaves nothing pending. recovery_end_ts then marks just
  /// the eager crash-time prefix, so (drain_end_ts - recovery_end_ts) is
  /// the span the database served traffic while still Recovering.
  SimTime drain_end_ts = 0;

  /// The blocking part of the outage: crash to the end of the crash-time
  /// recovery work (the whole recovery when eager).
  SimTime blocking_ns() const {
    return recovery_end_ts >= crash_ts ? recovery_end_ts - crash_ts : 0;
  }
  /// On-demand recovery only: the span served while still Recovering
  /// (drain end minus recovery end). 0 for an eager recovery.
  SimTime serving_ns() const {
    return drain_end_ts > recovery_end_ts ? drain_end_ts - recovery_end_ts
                                          : 0;
  }

  /// First commit acknowledged anywhere after the crash fired. Resolved
  /// pending commits (crash-time group-commit resolution) count — they are
  /// real acknowledgements during the outage window.
  bool saw_commit_after = false;
  SimTime first_commit_ts = 0;
  SimTime ttfc_ns() const {
    return !saw_commit_after || first_commit_ts < crash_ts
               ? 0
               : first_commit_ts - crash_ts;
  }

  /// Per crashed-and-restarted node: restart -> first commit on that node.
  std::vector<NodeTtfc> node_ttfc;

  /// Throughput trough, from the windowed commit series: steady state is
  /// the mean rate over the pre-crash windows. A span is the whole number
  /// of windows that holds kTroughSpanCommits commits at the steady rate.
  /// The trough runs from the first window boundary at or after the crash
  /// to the first commit that opens a span whose rate reaches half of
  /// steady.
  double steady_tps = 0.0;
  double trough_tps = 0.0;  ///< mean rate inside the trough
  uint64_t trough_windows = 0;  ///< series windows the trough spans
  SimTime trough_duration_ns = 0;
  double depth_pct = 0.0;  ///< (1 - trough/steady) * 100

  json::Value ToJson() const;
};

struct AvailabilityReport {
  std::vector<CrashAvailability> crashes;
  json::Value ToJson() const;
};

/// Commits a steady-state trough span holds (see CrashAvailability).
inline constexpr uint64_t kTroughSpanCommits = 4;

/// Fills the trough fields of `ca` from the commit-rate series: steady rate
/// from the windows before the crash (falling back to the whole-series mean
/// when the crash is at t=0), then the trough as defined on
/// CrashAvailability.
void ComputeThroughputTrough(const TimeSeries& series, CrashAvailability* ca);

}  // namespace smdb

#endif  // SMDB_OBS_TIMESERIES_H_
