#include "obs/forensics.h"

#include <functional>
#include <set>
#include <vector>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "obs/trace.h"

namespace smdb {
namespace {

constexpr size_t kMaxChainRecords = 64;

json::Value LogRecordJson(const LogRecord& rec) {
  json::Value o = json::Value::Object();
  o.Set("node", json::Value::Uint(rec.node));
  o.Set("lsn", json::Value::Uint(rec.lsn));
  if (rec.prev_lsn != kInvalidLsn) {
    o.Set("prev_lsn", json::Value::Uint(rec.prev_lsn));
  }
  if (rec.txn != kInvalidTxn) o.Set("txn", json::Value::Uint(rec.txn));
  o.Set("desc", json::Value::Str(rec.ToString()));
  return o;
}

json::Value LockEntryJson(const LockEntry& e) {
  json::Value o = json::Value::Object();
  o.Set("txn", json::Value::Uint(e.txn));
  o.Set("mode", json::Value::Str(ToString(e.mode)));
  return o;
}

json::Value ViolationJson(const IfaChecker::Violation& v) {
  json::Value o = json::Value::Object();
  const char* kind = "record";
  if (v.kind == IfaChecker::Violation::Kind::kIndex) kind = "index";
  if (v.kind == IfaChecker::Violation::Kind::kLock) kind = "lock";
  o.Set("kind", json::Value::Str(kind));
  if (v.kind == IfaChecker::Violation::Kind::kRecord) {
    o.Set("rid", json::Value::Str(ToString(v.rid)));
  } else {
    o.Set("key", json::Value::Uint(v.key));
  }
  o.Set("detail", json::Value::Str(v.detail));
  return o;
}

/// Walks every reachable log (full log of live nodes, stable log of dead
/// ones) and keeps the records that touch the violated object, plus the
/// begin/commit/abort records of the transactions that touched it.
json::Value CollectLogChain(Database& db, const IfaChecker::Violation& v) {
  Machine& m = db.machine();
  auto matches = [&](const LogRecord& rec) {
    if (v.kind == IfaChecker::Violation::Kind::kRecord) {
      return rec.type == LogRecordType::kUpdate && rec.update().rid == v.rid;
    }
    if (v.kind == IfaChecker::Violation::Kind::kIndex) {
      return rec.type == LogRecordType::kIndexOp &&
             rec.index_op().key == v.key;
    }
    return rec.type == LogRecordType::kLockOp &&
           rec.lock_op().lock_name == v.key;
  };
  auto for_each_reachable = [&](const std::function<void(const LogRecord&)>&
                                    fn) {
    for (NodeId n = 0; n < m.num_nodes(); ++n) db.log().ForEachAll(n, fn);
  };
  std::vector<LogRecord> chain;
  std::set<TxnId> touching;
  for_each_reachable([&](const LogRecord& rec) {
    if (matches(rec)) {
      chain.push_back(rec);
      if (rec.txn != kInvalidTxn) touching.insert(rec.txn);
    }
  });
  for_each_reachable([&](const LogRecord& rec) {
    if (!touching.contains(rec.txn)) return;
    if (rec.type == LogRecordType::kBegin ||
        rec.type == LogRecordType::kCommit ||
        rec.type == LogRecordType::kAbort) {
      chain.push_back(rec);
    }
  });
  json::Value obj = json::Value::Object();
  obj.Set("total", json::Value::Uint(chain.size()));
  // Keep the newest records — the crash sits at the end of the history.
  size_t start = chain.size() > kMaxChainRecords
                     ? chain.size() - kMaxChainRecords
                     : 0;
  json::Value arr = json::Value::Array();
  for (size_t i = start; i < chain.size(); ++i) {
    arr.Append(LogRecordJson(chain[i]));
  }
  obj.Set("records", arr);
  return obj;
}

json::Value CollectLockState(Database& db, const IfaChecker::Violation& v) {
  uint64_t name = 0;
  if (v.kind == IfaChecker::Violation::Kind::kRecord) {
    name = RecordLockName(v.rid);
  } else if (v.kind == IfaChecker::Violation::Kind::kIndex) {
    name = KeyLockName(/*tree_id=*/1, v.key);
  } else {
    name = v.key;  // lock violations carry the LCB name directly
  }
  json::Value o = json::Value::Object();
  o.Set("name", json::Value::Uint(name));
  int lost = 0;
  bool found = false;
  for (const Lcb& lcb : db.locks().SnapshotAll(&lost)) {
    if (lcb.name != name) continue;
    found = true;
    json::Value holders = json::Value::Array();
    for (const auto& e : lcb.holders) holders.Append(LockEntryJson(e));
    json::Value waiters = json::Value::Array();
    for (const auto& e : lcb.waiters) waiters.Append(LockEntryJson(e));
    o.Set("holders", holders);
    o.Set("waiters", waiters);
    break;
  }
  o.Set("lcb_present", json::Value::Bool(found));
  o.Set("lost_lcbs", json::Value::Uint(static_cast<uint64_t>(lost)));
  return o;
}

/// The recorded events `keep` accepts, in emission order, as JSON.
json::Value TraceEventsJson(
    Database& db, const std::function<bool(const TraceEvent&)>& keep) {
  json::Value arr = json::Value::Array();
  for (const TraceEvent& ev : db.instruments().tracer().AllEvents()) {
    if (keep(ev)) arr.Append(TraceEventJson(ev));
  }
  return arr;
}

/// The violated object's lock history from the trace. Unlike log records,
/// trace events are host-side state — a simulated crash cannot destroy
/// them — so this is populated even when every log record touching the
/// object died in a volatile tail (the empty-log_chain case, which is the
/// paper's failure mode itself).
json::Value CollectObjectTrace(Database& db, const IfaChecker::Violation& v) {
  uint64_t want = 0;
  if (v.kind == IfaChecker::Violation::Kind::kRecord) {
    want = RecordLockName(v.rid);
  } else if (v.kind == IfaChecker::Violation::Kind::kIndex) {
    want = KeyLockName(/*tree_id=*/1, v.key);
  } else {
    want = v.key;
  }
  return TraceEventsJson(db, [want](const TraceEvent& ev) {
    return ev.a == want && (ev.kind == TraceEventKind::kLockAcquire ||
                            ev.kind == TraceEventKind::kLockQueued ||
                            ev.kind == TraceEventKind::kLockRelease);
  });
}

json::Value CollectTagDecisions(Database& db,
                                const IfaChecker::Violation* v) {
  // The object's encoding in TraceEvent::a matches the emission sites in
  // TagScanUndo: (page << 16) | slot for heap records, the key for index
  // entries. A null violation keeps every decision.
  uint64_t want = 0;
  bool filter = false;
  if (v != nullptr && v->kind == IfaChecker::Violation::Kind::kRecord) {
    want = (static_cast<uint64_t>(v->rid.page) << 16) | v->rid.slot;
    filter = true;
  } else if (v != nullptr && v->kind == IfaChecker::Violation::Kind::kIndex) {
    want = v->key;
    filter = true;
  }
  return TraceEventsJson(db, [want, filter](const TraceEvent& ev) {
    return ev.kind == TraceEventKind::kTagDecision && (!filter || ev.a == want);
  });
}

}  // namespace

json::Value BuildForensicReport(Database& db, const IfaChecker* checker,
                                size_t last_n) {
  json::Value report = json::Value::Object();
  const IfaChecker::Violation* v = nullptr;
  if (checker != nullptr && checker->last_violation().has_value()) {
    v = &*checker->last_violation();
  }
  report.Set("violation",
             v != nullptr ? ViolationJson(*v) : json::Value::Null());

  TraceRecorder& tracer = db.instruments().tracer();
  json::Value nodes = json::Value::Array();
  for (NodeId n = 0; n < tracer.num_nodes(); ++n) {
    json::Value node = json::Value::Object();
    node.Set("node", json::Value::Uint(n));
    node.Set("alive", json::Value::Bool(db.machine().NodeAlive(n)));
    node.Set("dropped", json::Value::Uint(tracer.dropped(n)));
    json::Value events = json::Value::Array();
    for (const TraceEvent& ev : tracer.Tail(n, last_n)) {
      events.Append(TraceEventJson(ev));
    }
    node.Set("events", events);
    nodes.Append(node);
  }
  report.Set("trace_tails", nodes);

  if (v != nullptr) {
    report.Set("log_chain", CollectLogChain(db, *v));
    report.Set("locks", CollectLockState(db, *v));
    report.Set("object_events", CollectObjectTrace(db, *v));
  }
  report.Set("tag_decisions", CollectTagDecisions(db, v));
  return report;
}

}  // namespace smdb
