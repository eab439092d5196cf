#include "wal/log_manager.h"

#include <algorithm>
#include <sstream>

#include "obs/trace.h"
#include "sim/machine.h"

namespace smdb {

std::string LogStats::ToString() const {
  std::ostringstream os;
  bool first = true;
  ForEachCounter(*this, [&](const auto& name, uint64_t value) {
    if (!first) os << " ";
    os << name << "=" << value;
    first = false;
  });
  return os.str();
}

LogManager::LogManager(Machine* machine, StableLogStore* stable,
                       Instruments* inst)
    : machine_(machine), inst_(inst), stable_(stable) {
  uint16_t n = machine_->num_nodes();
  tails_.resize(n);
  next_lsn_.assign(n, 1);
  checkpoint_lsn_.assign(n, kInvalidLsn);
  max_truncated_usn_.assign(n, 0);
}

Lsn LogManager::Append(NodeId node, LogRecord rec) {
  ProfScope wal_append(inst_, ProfPhase::kWalAppend);
  const TxnId txn = rec.txn;
  const Lsn lsn = next_lsn_[node]++;
  rec.lsn = lsn;
  rec.node = node;
  tails_[node].push_back(std::move(rec));
  ++stats_.appends;
  machine_->Tick(node, machine_->config().timing.volatile_log_write_ns);
  SMDB_EMIT(inst_, {.kind = TraceEventKind::kLogAppend,
                    .node = node,
                    .txn = txn,
                    .ts = machine_->NodeClock(node),
                    .a = lsn});
  return lsn;
}

Status LogManager::Force(NodeId requestor, NodeId node) {
  ProfScope wal_force(inst_, ProfPhase::kWalForce);
  if (!machine_->NodeAlive(node)) {
    // The tail died with the node; only the already-stable prefix exists.
    return Status::NodeFailed("cannot force log of crashed node");
  }
  auto& tail = tails_[node];
  if (!tail.empty()) {
    const size_t batch_size = tail.size();
    ++stats_.forces;
    stats_.forced_records += batch_size;
    stats_.force_batches.Record(batch_size);
    const auto& timing = machine_->config().timing;
    machine_->Tick(requestor, machine_->config().nvram_log
                                  ? timing.nvram_force_ns
                                  : timing.log_force_ns);
    stable_->Append(node, std::move(tail));
    tail.clear();  // leave the moved-from tail in a defined empty state
    SMDB_EMIT(inst_, {.kind = TraceEventKind::kLogForce,
                      .node = node,
                      .peer = requestor,
                      .ts = machine_->NodeClock(requestor),
                      .a = batch_size,
                      .b = stable_->LastLsn(node)});
  }
  // Hooks fire even for the empty no-op force: observers learn "this log
  // is stable through its last append", which is just as true.
  for (const auto& hook : force_hooks_) hook(node);
  return Status::Ok();
}

void LogManager::AnnulVolatile(NodeId node, Lsn lsn) {
  auto& tail = tails_[node];
  for (auto it = tail.begin(); it != tail.end(); ++it) {
    if (it->lsn == lsn) {
      tail.erase(it);
      return;
    }
  }
}

bool LogManager::IsStable(NodeId node, Lsn lsn) const {
  if (lsn == kInvalidLsn) return true;
  return stable_->LastLsn(node) >= lsn;
}

void LogManager::OnNodeCrash(NodeId node) {
  tails_[node].clear();
}

void LogManager::ForEachStable(
    NodeId node, const std::function<void(const LogRecord&)>& fn) const {
  for (const auto& rec : stable_->Records(node)) fn(rec);
}

void LogManager::ForEachFrom(
    NodeId node, Lsn from,
    const std::function<void(const LogRecord&)>& fn) const {
  auto before = [](const LogRecord& rec, Lsn lsn) { return rec.lsn < lsn; };
  const auto& stable = stable_->Records(node);
  for (auto it = std::lower_bound(stable.begin(), stable.end(), from, before);
       it != stable.end(); ++it) {
    fn(*it);
  }
  const auto& tail = tails_[node];
  for (auto it = std::lower_bound(tail.begin(), tail.end(), from, before);
       it != tail.end(); ++it) {
    fn(*it);
  }
}

}  // namespace smdb
