#include "obs/observatory.h"

#include <algorithm>

namespace smdb {

Observatory::Observatory(uint16_t num_nodes, const ObsConfig& config)
    : config_(config), node_states_(num_nodes) {
  rep_.enabled = config.latency;
  rep_.series = TimeSeries(config.window_ns);
  rep_.window_ns = rep_.series.window_ns();
}

void Observatory::Transition(NodeId node, NodeServiceState state,
                             SimTime ts) {
  if (node >= node_states_.size()) return;
  NodeState& ns = node_states_[node];
  if (ns.state == state) return;
  ns.state = state;
  rep_.node_states.push_back(NodeStateTransition{ts, node, state});
}

bool Observatory::InCrashShadow(SimTime ts) const {
  for (const CrashRecord& c : crashes_) {
    if (c.open) return true;  // recovery running right now
    if (ts >= c.ca.crash_ts &&
        ts <= c.ca.recovery_end_ts + config_.crash_influence_ns) {
      return true;
    }
  }
  return false;
}

void Observatory::Consume(const TraceEvent& ev) {
  const SimTime latency = ev.ts >= ev.begin_ts ? ev.ts - ev.begin_ts : 0;
  switch (ev.kind) {
    case TraceEventKind::kTxnBegin:
      open_txns_.insert(ev.txn);
      rep_.series.OnBegin(ev.begin_ts);
      rep_.series.NoteInflight(ev.begin_ts, open_txns_.size());
      break;
    case TraceEventKind::kTxnCommit:
      OnCommit(ev.node, ev.txn, ev.ts, latency);
      break;
    case TraceEventKind::kTxnAbort:
      OnAbort(ev.txn, ev.ts, latency);
      break;
    case TraceEventKind::kLockQueued:
      pending_waits_.emplace(std::pair<TxnId, uint64_t>{ev.txn, ev.a}, ev.ts);
      break;
    case TraceEventKind::kLockAcquire:
      OnLockGranted(ev.txn, ev.a, ev.ts);
      break;
    case TraceEventKind::kGcEnqueue:
      rep_.series.NoteGcDepth(ev.ts, ev.a);
      break;
    case TraceEventKind::kGcResidency:
      rep_.gc_residency.Record(ev.a);
      break;
    case TraceEventKind::kCrash:
      crashed_.push_back(ev.node);
      Transition(ev.node, NodeServiceState::kDown, ev.ts);
      break;
    case TraceEventKind::kNodeDown:
      Transition(ev.node, NodeServiceState::kDown, ev.ts);
      break;
    case TraceEventKind::kNodeUp:
      OnNodeUp(ev.node, ev.ts);
      break;
    case TraceEventKind::kRecoveryStart:
      OnRecoveryStart(ev.ts);
      break;
    case TraceEventKind::kRecoveryEnd:
      OnRecoveryEnd(ev.ts);
      break;
    case TraceEventKind::kRecoveryDrained:
      if (!crashes_.empty()) crashes_.back().ca.drain_end_ts = ev.ts;
      break;
    default:
      break;
  }
}

void Observatory::OnCommit(NodeId node, TxnId txn, SimTime ts,
                           SimTime latency) {
  if (!CloseTxn(txn)) return;
  rep_.commit_latency.Record(latency);
  if (InCrashShadow(ts)) {
    rep_.commit_through_crash.Record(latency);
  } else {
    rep_.commit_steady.Record(latency);
  }
  rep_.series.OnCommit(ts);
  rep_.series.NoteInflight(ts, open_txns_.size());
  for (CrashRecord& c : crashes_) {
    if (!c.ca.saw_commit_after) {
      c.ca.saw_commit_after = true;
      c.ca.first_commit_ts = ts;
    }
  }
  if (node < node_states_.size()) {
    NodeState& ns = node_states_[node];
    if (ns.awaiting_first_commit) {
      ns.awaiting_first_commit = false;
      if (ns.crash_index < crashes_.size()) {
        crashes_[ns.crash_index].ca.node_ttfc.push_back(
            NodeTtfc{node, ns.restart_ts, ts, true});
      }
    }
  }
}

bool Observatory::CloseTxn(TxnId txn) {
  if (open_txns_.erase(txn) == 0) return false;
  pending_waits_.erase(pending_waits_.lower_bound({txn, 0}),
                       pending_waits_.upper_bound({txn, ~0ULL}));
  return true;
}

void Observatory::OnAbort(TxnId txn, SimTime ts, SimTime latency) {
  if (!CloseTxn(txn)) return;
  rep_.abort_latency.Record(latency);
  rep_.series.OnAbort(ts);
  rep_.series.NoteInflight(ts, open_txns_.size());
}

void Observatory::OnLockGranted(TxnId txn, uint64_t name, SimTime ts) {
  auto it = pending_waits_.find({txn, name});
  if (it == pending_waits_.end()) return;  // granted without queueing
  const SimTime wait = ts >= it->second ? ts - it->second : 0;
  pending_waits_.erase(it);
  rep_.lock_wait.Record(wait);
  LockContentionEntry& e = contention_[name];
  e.name = name;
  ++e.waits;
  e.total_wait_ns += wait;
  if (wait > e.max_wait_ns) e.max_wait_ns = wait;
}

void Observatory::OnNodeUp(NodeId node, SimTime ts) {
  const bool in_recovery = !crashes_.empty() && crashes_.back().open;
  Transition(node,
             in_recovery ? NodeServiceState::kRecovering
                         : NodeServiceState::kServing,
             ts);
  if (node < node_states_.size()) {
    NodeState& ns = node_states_[node];
    ns.awaiting_first_commit = true;
    ns.restart_ts = ts;
    // Attribute the pending TTFC to the most recent crash that took this
    // node down (RestartNodes runs after the recovery pass; RebootAll
    // during one).
    ns.crash_index = crashes_.size();  // sentinel: no owning crash
    for (size_t i = crashes_.size(); i-- > 0;) {
      const std::vector<NodeId>& nodes = crashes_[i].ca.nodes;
      if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) {
        ns.crash_index = i;
        break;
      }
    }
  }
}

void Observatory::OnRecoveryStart(SimTime ts) {
  CrashRecord rec;
  rec.ca.crash_ts = ts;
  rec.ca.nodes = std::move(crashed_);
  crashed_.clear();
  crashes_.push_back(std::move(rec));
  // Survivors stall while the synchronous recovery pass runs.
  for (NodeId n = 0; n < node_states_.size(); ++n) {
    if (node_states_[n].state == NodeServiceState::kServing) {
      Transition(n, NodeServiceState::kRecovering, ts);
    }
  }
}

void Observatory::OnRecoveryEnd(SimTime ts) {
  if (!crashes_.empty() && crashes_.back().open) {
    crashes_.back().open = false;
    crashes_.back().ca.recovery_end_ts = ts;
  }
  for (NodeId n = 0; n < node_states_.size(); ++n) {
    if (node_states_[n].state == NodeServiceState::kRecovering) {
      Transition(n, NodeServiceState::kServing, ts);
    }
  }
}

LatencyReport Observatory::Snapshot() const {
  if (!rep_.enabled) return LatencyReport();
  LatencyReport rep = rep_;
  for (const CrashRecord& c : crashes_) {
    rep.availability.crashes.push_back(c.ca);
    ComputeThroughputTrough(rep.series, &rep.availability.crashes.back());
  }
  // Restarted nodes that never committed again still show up, explicitly
  // uncommitted.
  for (NodeId n = 0; n < node_states_.size(); ++n) {
    const NodeState& ns = node_states_[n];
    if (ns.awaiting_first_commit && ns.crash_index < crashes_.size()) {
      rep.availability.crashes[ns.crash_index].node_ttfc.push_back(
          NodeTtfc{n, ns.restart_ts, 0, false});
    }
  }

  rep.top_contended.reserve(contention_.size());
  for (const auto& [name, entry] : contention_) {
    rep.top_contended.push_back(entry);
  }
  // Rank by total wait, ties by name — both deterministic.
  std::stable_sort(rep.top_contended.begin(), rep.top_contended.end(),
                   [](const LockContentionEntry& a,
                      const LockContentionEntry& b) {
                     if (a.total_wait_ns != b.total_wait_ns) {
                       return a.total_wait_ns > b.total_wait_ns;
                     }
                     return a.name < b.name;
                   });
  if (rep.top_contended.size() > config_.top_contended) {
    rep.top_contended.resize(config_.top_contended);
  }
  return rep;
}

json::Value LatencyReport::ToJson() const {
  json::Value obj = json::Value::Object();
  obj.Set("enabled", json::Value::Bool(enabled));
  if (!enabled) return obj;
  obj.Set("window_ns", json::Value::Uint(window_ns));

  json::Value lat = json::Value::Object();
  lat.Set("commit", commit_latency.ToJson());
  lat.Set("abort", abort_latency.ToJson());
  lat.Set("lock_wait", lock_wait.ToJson());
  lat.Set("gc_residency", gc_residency.ToJson());
  lat.Set("commit_steady", commit_steady.SummaryJson());
  lat.Set("commit_through_crash", commit_through_crash.SummaryJson());
  obj.Set("latency", std::move(lat));

  obj.Set("series", series.ToJson());

  json::Value states = json::Value::Array();
  for (const NodeStateTransition& t : node_states) {
    json::Value e = json::Value::Object();
    e.Set("ts_ns", json::Value::Uint(t.ts));
    e.Set("node", json::Value::Uint(t.node));
    e.Set("state", json::Value::Str(NodeServiceStateName(t.state)));
    states.Append(std::move(e));
  }
  obj.Set("node_state_transitions", std::move(states));

  obj.Set("availability", availability.ToJson());

  json::Value cont = json::Value::Array();
  for (const LockContentionEntry& e : top_contended) {
    json::Value o = json::Value::Object();
    o.Set("name", json::Value::Uint(e.name));
    o.Set("waits", json::Value::Uint(e.waits));
    o.Set("total_wait_ns", json::Value::Uint(e.total_wait_ns));
    o.Set("max_wait_ns", json::Value::Uint(e.max_wait_ns));
    o.Set("mean_wait_ns", json::Value::Double(e.mean_wait_ns()));
    cont.Append(std::move(o));
  }
  obj.Set("lock_contention", std::move(cont));
  return obj;
}

}  // namespace smdb
