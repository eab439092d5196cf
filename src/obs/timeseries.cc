#include "obs/timeseries.h"

namespace smdb {

const char* NodeServiceStateName(NodeServiceState state) {
  switch (state) {
    case NodeServiceState::kServing:
      return "serving";
    case NodeServiceState::kDown:
      return "down";
    case NodeServiceState::kRecovering:
      return "recovering";
  }
  return "?";
}

json::Value TimeSeries::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("window_ns", json::Value::Uint(window_ns_));
  json::Value start = json::Value::Array();
  json::Value begins = json::Value::Array();
  json::Value commits = json::Value::Array();
  json::Value aborts = json::Value::Array();
  json::Value inflight = json::Value::Array();
  json::Value gc_depth = json::Value::Array();
  json::Value tps = json::Value::Array();
  for (size_t i = 0; i < windows_.size(); ++i) {
    const Window& w = windows_[i];
    start.Append(json::Value::Uint(WindowStart(i)));
    begins.Append(json::Value::Uint(w.begins));
    commits.Append(json::Value::Uint(w.commits));
    aborts.Append(json::Value::Uint(w.aborts));
    inflight.Append(json::Value::Uint(w.max_inflight));
    gc_depth.Append(json::Value::Uint(w.max_gc_depth));
    tps.Append(json::Value::Double(Tps(i)));
  }
  obj.Set("window_start_ns", std::move(start));
  obj.Set("begins", std::move(begins));
  obj.Set("commits", std::move(commits));
  obj.Set("aborts", std::move(aborts));
  obj.Set("max_inflight", std::move(inflight));
  obj.Set("max_gc_depth", std::move(gc_depth));
  obj.Set("tps", std::move(tps));
  return obj;
}

json::Value CrashAvailability::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("crash_ts_ns", json::Value::Uint(crash_ts));
  json::Value crashed = json::Value::Array();
  for (NodeId n : nodes) crashed.Append(json::Value::Uint(n));
  obj.Set("nodes", std::move(crashed));
  obj.Set("recovery_end_ts_ns", json::Value::Uint(recovery_end_ts));
  obj.Set("drain_end_ts_ns", json::Value::Uint(drain_end_ts));
  obj.Set("saw_commit_after", json::Value::Bool(saw_commit_after));
  obj.Set("ttfc_ns", json::Value::Uint(ttfc_ns()));
  json::Value per_node = json::Value::Array();
  for (const NodeTtfc& t : node_ttfc) {
    json::Value e = json::Value::Object();
    e.Set("node", json::Value::Uint(t.node));
    e.Set("restart_ts_ns", json::Value::Uint(t.restart_ts));
    e.Set("committed", json::Value::Bool(t.committed));
    e.Set("ttfc_ns", json::Value::Uint(t.ttfc_ns()));
    per_node.Append(std::move(e));
  }
  obj.Set("node_ttfc", std::move(per_node));
  obj.Set("steady_tps", json::Value::Double(steady_tps));
  obj.Set("trough_tps", json::Value::Double(trough_tps));
  obj.Set("trough_windows", json::Value::Uint(trough_windows));
  obj.Set("trough_duration_ns", json::Value::Uint(trough_duration_ns));
  obj.Set("trough_depth_pct", json::Value::Double(depth_pct));
  return obj;
}

json::Value AvailabilityReport::ToJson() const {
  json::Value arr = json::Value::Array();
  for (const CrashAvailability& c : crashes) arr.Append(c.ToJson());
  json::Value obj = json::Value::Object();
  obj.Set("crashes", std::move(arr));
  return obj;
}

void ComputeThroughputTrough(const TimeSeries& series, CrashAvailability* ca) {
  const std::vector<TimeSeries::Window>& w = series.windows();
  if (w.empty()) return;
  const size_t crash_w = series.WindowIndex(ca->crash_ts);

  // Steady-state rate: mean commits/window strictly before the crash
  // window; whole-series mean when the crash hits at/before the first
  // window boundary.
  uint64_t pre_commits = 0;
  size_t pre_windows = 0;
  for (size_t i = 0; i < w.size() && i < crash_w; ++i) {
    pre_commits += w[i].commits;
    ++pre_windows;
  }
  if (pre_windows == 0) {
    for (const TimeSeries::Window& win : w) pre_commits += win.commits;
    pre_windows = w.size();
  }
  const double steady_cpw = double(pre_commits) / double(pre_windows);
  ca->steady_tps = steady_cpw * 1e9 / double(series.window_ns());
  if (steady_cpw <= 0.0) return;  // nothing committed before the crash

  // Judge the trough on spans of k series windows, sized so a steady
  // span holds kTroughSpanCommits commits. A window far shorter than the
  // commit gap is empty at steady state too, and one straggler commit
  // would end the trough.
  const size_t k = static_cast<size_t>(
      (kTroughSpanCommits * pre_windows + pre_commits - 1) / pre_commits);
  const double steady_per_span = steady_cpw * double(k);

  // The trough starts at the first window boundary at or after the crash
  // (commits earlier in the crash window landed before it) and ends at the
  // first window that holds a commit and opens a span whose rate reaches
  // half of steady; a span cut short by the end of the series is judged
  // pro rata. The mean rate inside the trough gives its depth.
  const size_t first_w = series.WindowIndex(ca->crash_ts) +
                         (ca->crash_ts % series.window_ns() == 0 ? 0 : 1);
  uint64_t in_span = 0;  // commits in windows [i, end)
  uint64_t trough_commits = 0;
  size_t end = first_w;
  size_t i = first_w;
  for (; i < w.size(); ++i) {
    for (; end < w.size() && end < i + k; ++end) in_span += w[end].commits;
    const double rate = double(in_span) * double(k) / double(end - i);
    if (w[i].commits > 0 && rate >= steady_per_span / 2.0) break;
    trough_commits += w[i].commits;
    in_span -= w[i].commits;
  }
  const size_t trough = i - first_w;  // series windows
  ca->trough_windows = trough;
  ca->trough_duration_ns = trough * series.window_ns();
  if (trough > 0) {
    const double trough_cpw = double(trough_commits) / double(trough);
    ca->trough_tps = trough_cpw * 1e9 / double(series.window_ns());
    ca->depth_pct = (1.0 - trough_cpw / steady_cpw) * 100.0;
  }
}

}  // namespace smdb
