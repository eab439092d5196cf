#include "obs/observatory.h"

#include <algorithm>

namespace smdb {

Observatory::Observatory(uint16_t num_nodes, ObsConfig config)
    : enabled_(config.enabled),
      config_(config),
      series_(config.window_ns),
      node_states_(num_nodes) {}

void Observatory::Transition(NodeId node, NodeServiceState state,
                             SimTime ts) {
  if (node >= node_states_.size()) return;
  NodeState& ns = node_states_[node];
  if (ns.state == state) return;
  ns.state = state;
  transitions_.push_back(NodeStateTransition{ts, node, state});
}

bool Observatory::InCrashShadow(SimTime ts) const {
  for (const CrashRecord& c : crashes_) {
    if (c.open) return true;  // recovery running right now
    if (ts >= c.crash_ts &&
        ts <= c.recovery_end_ts + config_.crash_influence_ns) {
      return true;
    }
  }
  return false;
}

void Observatory::OnTxnBegin(NodeId node, TxnId txn, SimTime ts) {
  (void)node;
  open_txns_.insert(txn);
  series_.OnBegin(ts);
  series_.NoteInflight(ts, open_txns_.size());
}

void Observatory::OnCommit(NodeId node, TxnId txn, SimTime ts,
                           SimTime latency) {
  // Fire once per transaction even if several completion paths run
  // (normal finish, crash-time resolution of a durable pending commit).
  if (open_txns_.erase(txn) == 0) return;
  pending_waits_.erase(pending_waits_.lower_bound({txn, 0}),
                       pending_waits_.upper_bound({txn, ~0ULL}));
  commit_latency_.Record(latency);
  if (InCrashShadow(ts)) {
    commit_through_crash_.Record(latency);
  } else {
    commit_steady_.Record(latency);
  }
  series_.OnCommit(ts);
  series_.NoteInflight(ts, open_txns_.size());
  for (CrashRecord& c : crashes_) {
    if (!c.saw_commit) {
      c.saw_commit = true;
      c.first_commit_ts = ts;
    }
  }
  if (node < node_states_.size()) {
    NodeState& ns = node_states_[node];
    if (ns.awaiting_first_commit) {
      ns.awaiting_first_commit = false;
      if (ns.crash_index < crashes_.size()) {
        crashes_[ns.crash_index].node_ttfc.push_back(
            NodeTtfc{node, ns.restart_ts, ts, true});
      }
    }
  }
}

void Observatory::OnAbort(NodeId node, TxnId txn, SimTime ts,
                          SimTime latency) {
  (void)node;
  if (open_txns_.erase(txn) == 0) return;
  pending_waits_.erase(pending_waits_.lower_bound({txn, 0}),
                       pending_waits_.upper_bound({txn, ~0ULL}));
  abort_latency_.Record(latency);
  series_.OnAbort(ts);
  series_.NoteInflight(ts, open_txns_.size());
}

void Observatory::OnLockQueued(TxnId txn, uint64_t name, SimTime ts) {
  pending_waits_.emplace(std::pair<TxnId, uint64_t>{txn, name}, ts);
}

void Observatory::OnLockGranted(TxnId txn, uint64_t name, SimTime ts) {
  auto it = pending_waits_.find({txn, name});
  if (it == pending_waits_.end()) return;  // granted without queueing
  const SimTime wait = ts >= it->second ? ts - it->second : 0;
  pending_waits_.erase(it);
  lock_wait_.Record(wait);
  LockContentionEntry& e = contention_[name];
  e.name = name;
  ++e.waits;
  e.total_wait_ns += wait;
  if (wait > e.max_wait_ns) e.max_wait_ns = wait;
}

void Observatory::OnGcEnqueued(NodeId node, uint64_t queue_depth,
                               SimTime ts) {
  (void)node;
  series_.NoteGcDepth(ts, queue_depth);
}

void Observatory::OnGcResidency(NodeId node, SimTime residency, SimTime ts) {
  (void)node;
  (void)ts;
  gc_residency_.Record(residency);
}

void Observatory::OnNodeDown(NodeId node, SimTime ts) {
  Transition(node, NodeServiceState::kDown, ts);
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
      const std::vector<NodeId>& nodes = crashes_[i].nodes;
      if (std::find(nodes.begin(), nodes.end(), node) != nodes.end()) {
        ns.crash_index = i;
        break;
      }
    }
  }
}

void Observatory::OnRecoveryStart(const std::vector<NodeId>& crashed,
                                  SimTime ts) {
  CrashRecord rec;
  rec.crash_ts = ts;
  rec.nodes = crashed;
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
    crashes_.back().recovery_end_ts = ts;
  }
  for (NodeId n = 0; n < node_states_.size(); ++n) {
    if (node_states_[n].state == NodeServiceState::kRecovering) {
      Transition(n, NodeServiceState::kServing, ts);
    }
  }
}

void Observatory::OnRecoveryDrained(SimTime ts) {
  if (!crashes_.empty()) crashes_.back().drain_end_ts = ts;
}

LatencyReport Observatory::Snapshot() const {
  LatencyReport rep;
  rep.enabled = enabled_;
  if (!enabled_) return rep;
  rep.window_ns = series_.window_ns();
  rep.commit_latency = commit_latency_;
  rep.abort_latency = abort_latency_;
  rep.lock_wait = lock_wait_;
  rep.gc_residency = gc_residency_;
  rep.commit_steady = commit_steady_;
  rep.commit_through_crash = commit_through_crash_;
  rep.series = series_;
  rep.node_states = transitions_;

  for (const CrashRecord& c : crashes_) {
    CrashAvailability ca;
    ca.crash_ts = c.crash_ts;
    ca.nodes = c.nodes;
    ca.recovery_end_ts = c.recovery_end_ts;
    ca.drain_end_ts = c.drain_end_ts;
    ca.saw_commit_after = c.saw_commit;
    ca.first_commit_ts = c.first_commit_ts;
    ca.node_ttfc = c.node_ttfc;
    ComputeThroughputTrough(series_, &ca);
    rep.availability.crashes.push_back(std::move(ca));
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
