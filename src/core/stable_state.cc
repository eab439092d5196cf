#include "core/stable_state.h"

#include <algorithm>

#include "sim/machine.h"

namespace smdb {

StableStateReconstructor::StableStateReconstructor(
    Machine* machine, LogManager* log, RecordStore* records,
    std::set<TxnId> uncommitted, PageSource pages)
    : machine_(machine),
      log_(log),
      records_(records),
      uncommitted_(std::move(uncommitted)),
      pages_(std::move(pages)) {}

void StableStateReconstructor::BuildIndex() {
  if (indexed_) return;
  indexed_ = true;
  for (NodeId n = 0; n < machine_->num_nodes(); ++n) {
    log_->ForEachAll(n, [&](const LogRecord& rec) {
      if (rec.type != LogRecordType::kUpdate) return;
      by_record_[rec.update().rid].push_back(rec);
    });
  }
  for (auto& [rid, recs] : by_record_) {
    std::sort(recs.begin(), recs.end(),
              [](const LogRecord& a, const LogRecord& b) {
                return a.usn() < b.usn();
              });
  }
}

Result<SlotImage> StableStateReconstructor::CommittedValue(NodeId performer,
                                                           RecordId rid) {
  BuildIndex();
  const std::vector<uint8_t>* image = pages_(performer, rid.page);
  if (image == nullptr) return Status::IoError("stable page unreadable");
  SlotImage current = records_->DecodeStableSlot(*image, rid.slot);

  // The stable image itself may contain a stolen uncommitted value; detect
  // that and fall back to the producing transaction's logged before image.
  auto it = by_record_.find(rid);
  const std::vector<LogRecord>* recs =
      it == by_record_.end() ? nullptr : &it->second;

  if (recs != nullptr) {
    for (const LogRecord& rec : *recs) {
      const UpdatePayload& u = rec.update();
      if (u.usn <= current.usn) continue;
      if (!u.is_clr && uncommitted_.contains(rec.txn)) continue;
      current.usn = u.usn;
      current.data = u.after;
      current.tag = kTagNone;
    }
    // If the stable image's version was written by an uncommitted
    // transaction (steal) and no later committed value replaced it, rewind
    // to that transaction's before image for this record.
    for (const LogRecord& rec : *recs) {
      const UpdatePayload& u = rec.update();
      if (u.usn == current.usn && !u.is_clr &&
          uncommitted_.contains(rec.txn)) {
        // Find the earliest update of this txn to this record: its before
        // image is the last committed value (2PL: no interleaved writers).
        for (const LogRecord& first : *recs) {
          const UpdatePayload& fu = first.update();
          if (first.txn == rec.txn && !fu.is_clr) {
            SlotImage out;
            out.usn = fu.before_usn;
            out.tag = kTagNone;
            out.data = fu.before;
            return out;
          }
        }
      }
    }
  }
  current.tag = kTagNone;
  return current;
}

}  // namespace smdb
