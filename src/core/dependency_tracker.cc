#include "core/dependency_tracker.h"

#include "db/record_store.h"
#include "sim/machine.h"

namespace smdb {

DependencyTracker::DependencyTracker(Machine* machine,
                                     const RecordStore* records)
    : records_(records) {
  machine->AddCoherenceHook(
      [this](const CoherenceEvent& ev) { OnCoherence(ev); });
}

void DependencyTracker::OnUpdate(TxnId txn, RecordId rid,
                                 const std::vector<uint8_t>& /*value*/) {
  const LineAddr line = records_->SlotLine(rid);
  auto& txns = line_txns_[line];
  // Cohabiting a line with another active transaction's update makes both
  // transactions dependent: whichever node ends up holding the line, the
  // other's update rides along.
  for (TxnId other : txns) {
    if (other != txn) {
      dependent_.insert(other);
      dependent_.insert(txn);
    }
  }
  txns.insert(txn);
  txn_lines_[txn].insert(line);
}

void DependencyTracker::End(TxnId txn) {
  auto it = txn_lines_.find(txn);
  if (it != txn_lines_.end()) {
    for (LineAddr line : it->second) {
      auto lt = line_txns_.find(line);
      if (lt != line_txns_.end()) {
        lt->second.erase(txn);
        if (lt->second.empty()) line_txns_.erase(lt);
      }
    }
    txn_lines_.erase(it);
  }
  dependent_.erase(txn);
}

void DependencyTracker::OnCoherence(const CoherenceEvent& ev) {
  auto it = line_txns_.find(ev.line);
  if (it == line_txns_.end()) return;
  for (TxnId txn : it->second) {
    // An update made on `from`'s node is leaving that node's cache.
    if (TxnNode(txn) == ev.from) dependent_.insert(txn);
  }
}

}  // namespace smdb
