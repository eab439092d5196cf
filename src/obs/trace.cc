#include "obs/trace.h"

#include <algorithm>

namespace smdb {

const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kMigration: return "migration";
    case TraceEventKind::kReplication: return "replication";
    case TraceEventKind::kInvalidation: return "invalidation";
    case TraceEventKind::kDowngrade: return "downgrade";
    case TraceEventKind::kLogAppend: return "log_append";
    case TraceEventKind::kForceIntent: return "force_intent";
    case TraceEventKind::kLogForce: return "log_force";
    case TraceEventKind::kGroupCommitFlush: return "group_commit_flush";
    case TraceEventKind::kTxnBegin: return "txn_begin";
    case TraceEventKind::kTxnCommitWait: return "txn_commit_wait";
    case TraceEventKind::kTxnCommit: return "txn_commit";
    case TraceEventKind::kTxnAbort: return "txn_abort";
    case TraceEventKind::kLockAcquire: return "lock_acquire";
    case TraceEventKind::kLockRelease: return "lock_release";
    case TraceEventKind::kLockQueued: return "lock_queued";
    case TraceEventKind::kGcEnqueue: return "gc_enqueue";
    case TraceEventKind::kGcResidency: return "gc_residency";
    case TraceEventKind::kCrash: return "crash";
    case TraceEventKind::kRecoveryPhase: return "recovery_phase";
    case TraceEventKind::kTagDecision: return "tag_decision";
    case TraceEventKind::kNodeDown: return "node_down";
    case TraceEventKind::kNodeUp: return "node_up";
    case TraceEventKind::kRecoveryStart: return "recovery_start";
    case TraceEventKind::kRecoveryEnd: return "recovery_end";
    case TraceEventKind::kRecoveryDrained: return "recovery_drained";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(uint16_t num_nodes, uint32_t capacity_per_node)
    : capacity_(capacity_per_node == 0 ? 1 : capacity_per_node),
      rings_(num_nodes == 0 ? 1 : num_nodes) {}

void TraceRecorder::Record(TraceEvent ev) {
  Ring& ring = rings_[ev.node < rings_.size() ? ev.node : 0];
  ev.seq = seq_++;
  ++ring.recorded;
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(ev);
    return;
  }
  ring.buf[ring.next] = ev;
  ring.next = (ring.next + 1) % ring.buf.size();
  ++ring.dropped;
}

uint64_t TraceRecorder::dropped(NodeId node) const {
  return node < rings_.size() ? rings_[node].dropped : 0;
}

uint64_t TraceRecorder::total_dropped() const {
  uint64_t total = 0;
  for (const Ring& r : rings_) total += r.dropped;
  return total;
}

uint64_t TraceRecorder::total_recorded() const {
  uint64_t total = 0;
  for (const Ring& r : rings_) total += r.recorded;
  return total;
}

std::vector<TraceEvent> TraceRecorder::Events(NodeId node) const {
  std::vector<TraceEvent> out;
  if (node >= rings_.size()) return out;
  const Ring& ring = rings_[node];
  out.reserve(ring.buf.size());
  // Oldest-first: the overwrite cursor points at the oldest entry once the
  // ring has wrapped.
  for (size_t i = 0; i < ring.buf.size(); ++i) {
    out.push_back(ring.buf[(ring.next + i) % ring.buf.size()]);
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::AllEvents() const {
  std::vector<TraceEvent> out;
  for (NodeId n = 0; n < rings_.size(); ++n) {
    std::vector<TraceEvent> evs = Events(n);
    out.insert(out.end(), evs.begin(), evs.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  return out;
}

std::vector<TraceEvent> TraceRecorder::Tail(NodeId node, size_t n) const {
  std::vector<TraceEvent> evs = Events(node);
  if (evs.size() > n) evs.erase(evs.begin(), evs.end() - n);
  return evs;
}

json::Value TraceEventJson(const TraceEvent& ev) {
  json::Value o = json::Value::Object();
  o.Set("kind", json::Value::Str(TraceEventKindName(ev.kind)));
  o.Set("node", json::Value::Uint(ev.node));
  o.Set("ts", json::Value::Uint(ev.ts));
  if (ev.dur != 0) o.Set("dur", json::Value::Uint(ev.dur));
  if (ev.peer != kInvalidNode) o.Set("peer", json::Value::Uint(ev.peer));
  if (ev.txn != kInvalidTxn) o.Set("txn", json::Value::Uint(ev.txn));
  if (ev.a != 0) o.Set("a", json::Value::Uint(ev.a));
  if (ev.b != 0) o.Set("b", json::Value::Uint(ev.b));
  if (ev.label != nullptr) o.Set("label", json::Value::Str(ev.label));
  o.Set("seq", json::Value::Uint(ev.seq));
  return o;
}

std::string TraceRecorder::ToChromeTrace() const {
  json::Value doc = json::Value::Object();
  json::Value events = json::Value::Array();
  // One named track per node. pid 0 is "the machine"; tid = node id.
  for (NodeId n = 0; n < rings_.size(); ++n) {
    json::Value meta = json::Value::Object();
    meta.Set("name", json::Value::Str("thread_name"));
    meta.Set("ph", json::Value::Str("M"));
    meta.Set("pid", json::Value::Uint(0));
    meta.Set("tid", json::Value::Uint(n));
    json::Value args = json::Value::Object();
    args.Set("name", json::Value::Str("node " + std::to_string(n)));
    meta.Set("args", std::move(args));
    events.Append(std::move(meta));
  }
  for (const TraceEvent& ev : AllEvents()) {
    json::Value e = json::Value::Object();
    // Recovery phases render as spans named by the phase alone ("redo",
    // "tag_scan", the "recovery" envelope) so the timeline reads directly;
    // other labelled events keep kind:label names ("log_force:commit").
    const bool is_phase = ev.kind == TraceEventKind::kRecoveryPhase;
    std::string name = is_phase && ev.label != nullptr
                           ? ev.label
                           : TraceEventKindName(ev.kind);
    if (!is_phase && ev.label != nullptr) name += std::string(":") + ev.label;
    e.Set("name", json::Value::Str(name));
    e.Set("cat", json::Value::Str(TraceEventKindName(ev.kind)));
    e.Set("ph", json::Value::Str(is_phase || ev.dur != 0 ? "X" : "i"));
    e.Set("pid", json::Value::Uint(0));
    e.Set("tid", json::Value::Uint(ev.node));
    // Chrome trace timestamps are microseconds; sim time is nanoseconds.
    e.Set("ts", json::Value::Double(static_cast<double>(ev.ts) / 1e3));
    if (is_phase || ev.dur != 0) {
      e.Set("dur", json::Value::Double(static_cast<double>(ev.dur) / 1e3));
    } else {
      e.Set("s", json::Value::Str("t"));
    }
    json::Value args = json::Value::Object();
    if (ev.peer != kInvalidNode) args.Set("peer", json::Value::Uint(ev.peer));
    if (ev.txn != kInvalidTxn) args.Set("txn", json::Value::Uint(ev.txn));
    if (ev.a != 0) args.Set("a", json::Value::Uint(ev.a));
    if (ev.b != 0) args.Set("b", json::Value::Uint(ev.b));
    e.Set("args", std::move(args));
    events.Append(std::move(e));
  }
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", json::Value::Str("ms"));
  return doc.Dump(1);
}

}  // namespace smdb
