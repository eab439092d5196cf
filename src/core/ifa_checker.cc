#include "core/ifa_checker.h"

#include <sstream>

#include "core/database.h"

namespace smdb {
namespace {

std::string Hex(const std::vector<uint8_t>& v, size_t max = 8) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < v.size() && i < max; ++i) {
    out.push_back(kDigits[v[i] >> 4]);
    out.push_back(kDigits[v[i] & 0xF]);
  }
  if (v.size() > max) out += "..";
  return out;
}

}  // namespace

void IfaChecker::RegisterTable(const std::vector<RecordId>& rids) {
  size_t sz = db_->config().record_data_size;
  for (RecordId rid : rids) {
    committed_[rid] = std::vector<uint8_t>(sz, 0);
  }
}

void IfaChecker::OnUpdate(TxnId txn, RecordId rid,
                          const std::vector<uint8_t>& value) {
  pending_[txn].records[rid] = value;
}

void IfaChecker::OnIndexInsert(TxnId txn, uint32_t /*tree*/, uint64_t key,
                               RecordId rid) {
  pending_[txn].index_ops.push_back(IdxOp{true, key, rid});
}

void IfaChecker::OnIndexDelete(TxnId txn, uint32_t /*tree*/, uint64_t key) {
  pending_[txn].index_ops.push_back(IdxOp{false, key, {}});
}

void IfaChecker::OnCommit(TxnId txn) {
  auto it = pending_.find(txn);
  if (it == pending_.end()) return;
  for (auto& [rid, value] : it->second.records) {
    committed_[rid] = value;
  }
  for (const IdxOp& op : it->second.index_ops) {
    if (op.insert) {
      committed_index_[op.key] = op.rid;
    } else {
      committed_index_.erase(op.key);
    }
  }
  pending_.erase(it);
}

void IfaChecker::OnAbort(TxnId txn) {
  pending_.erase(txn);
}

Status IfaChecker::Fail(Violation v) {
  Status s = Status::Corruption(v.detail);
  last_violation_ = std::move(v);
  return s;
}

Status IfaChecker::VerifyRecords() {
  last_violation_.reset();
  // Expected = committed overlaid with surviving active transactions'
  // pending updates (strict 2PL: at most one active writer per record).
  std::map<RecordId, std::pair<TxnId, const std::vector<uint8_t>*>> overlay;
  for (Transaction* t : db_->txn().ActiveAll()) {
    auto it = pending_.find(t->id);
    if (it == pending_.end()) continue;
    for (const auto& [rid, value] : it->second.records) {
      overlay[rid] = {t->id, &value};
    }
  }
  for (const auto& [rid, committed_value] : committed_) {
    const std::vector<uint8_t>* expected = &committed_value;
    auto ov = overlay.find(rid);
    if (ov != overlay.end()) expected = ov->second.second;
    auto actual = db_->records().SnoopSlot(rid);
    if (!actual.ok()) {
      return Fail({Violation::Kind::kRecord, rid, 0,
                   "record " + ToString(rid) +
                       " unreadable: " + actual.status().ToString()});
    }
    if (actual->data != *expected) {
      std::ostringstream os;
      os << "IFA violation at " << ToString(rid) << ": expected "
         << Hex(*expected) << " got " << Hex(actual->data)
         << (ov != overlay.end() ? " (pending txn value)" : " (committed)");
      return Fail({Violation::Kind::kRecord, rid, 0, os.str()});
    }
  }
  return Status::Ok();
}

Status IfaChecker::VerifyIndex() {
  last_violation_.reset();
  // Expected visible state: committed entries adjusted by surviving active
  // transactions' pending operations (in op order).
  std::map<uint64_t, RecordId> expect_live = committed_index_;
  std::map<uint64_t, bool> pending_tombstone;  // key -> must appear deleted
  for (Transaction* t : db_->txn().ActiveAll()) {
    auto it = pending_.find(t->id);
    if (it == pending_.end()) continue;
    std::set<uint64_t> own_inserts;  // uncommitted inserts by this txn
    for (const IdxOp& op : it->second.index_ops) {
      if (op.insert) {
        expect_live[op.key] = op.rid;
        pending_tombstone.erase(op.key);
        own_inserts.insert(op.key);
      } else if (own_inserts.erase(op.key) > 0) {
        // Delete of the transaction's own uncommitted insert: the entry is
        // removed physically — no tombstone expected.
        expect_live.erase(op.key);
      } else {
        expect_live.erase(op.key);
        pending_tombstone[op.key] = true;
      }
    }
  }

  auto entries_or = db_->index().CollectEntries(/*include_tombstones=*/true);
  if (!entries_or.ok()) {
    return Fail({Violation::Kind::kIndex, {}, 0,
                 "index unreadable: " + entries_or.status().ToString()});
  }
  // A key may legitimately have a live entry plus a (residual, committed
  // or pending) tombstone; only duplicate *live* entries are corruption.
  std::map<uint64_t, std::pair<bool, RecordId>> actual;  // key -> (live, rid)
  for (const auto& ref : *entries_or) {
    bool live = ref.entry.state == LeafEntryState::kLive;
    auto [it, inserted] = actual.emplace(ref.entry.key,
                                         std::make_pair(live, ref.entry.rid));
    if (!inserted) {
      if (live && it->second.first) {
        return Fail({Violation::Kind::kIndex, {}, ref.entry.key,
                     "duplicate live index entry for key " +
                         std::to_string(ref.entry.key)});
      }
      if (live) it->second = {true, ref.entry.rid};
    }
  }

  for (const auto& [key, rid] : expect_live) {
    auto it = actual.find(key);
    if (it == actual.end() || !it->second.first) {
      return Fail({Violation::Kind::kIndex, {}, key,
                   "index missing live key " + std::to_string(key)});
    }
    if (!(it->second.second == rid)) {
      return Fail({Violation::Kind::kIndex, {}, key,
                   "index key " + std::to_string(key) +
                       " maps to wrong record"});
    }
  }
  for (const auto& [key, _] : pending_tombstone) {
    auto it = actual.find(key);
    if (it == actual.end() || it->second.first) {
      return Fail({Violation::Kind::kIndex, {}, key,
                   "pending delete of key " + std::to_string(key) +
                       " not visible as tombstone"});
    }
  }
  for (const auto& [key, state] : actual) {
    if (state.first && !expect_live.contains(key)) {
      return Fail({Violation::Kind::kIndex, {}, key,
                   "index has unexpected live key " + std::to_string(key)});
    }
  }
  return Status::Ok();
}

Status IfaChecker::VerifyLocks() {
  last_violation_.reset();
  // No lock may be held or awaited by a finished or crash-annulled
  // transaction.
  int lost = 0;
  for (const Lcb& lcb : db_->locks().SnapshotAll(&lost)) {
    auto check = [&](const std::vector<LockEntry>& list,
                     const char* what) -> Status {
      for (const auto& e : list) {
        Transaction* t = db_->txn().Find(e.txn);
        if (t == nullptr || t->state != TxnState::kActive) {
          return Fail({Violation::Kind::kLock, {}, lcb.name,
                       std::string("lock table has a ") + what +
                           " entry for a non-active transaction"});
        }
      }
      return Status::Ok();
    };
    SMDB_RETURN_IF_ERROR(check(lcb.holders, "holder"));
    SMDB_RETURN_IF_ERROR(check(lcb.waiters, "waiter"));
  }
  if (lost > 0) {
    return Fail({Violation::Kind::kLock, {}, 0,
                 "lock table still has lost LCB lines"});
  }
  // Every surviving active transaction still holds its granted locks.
  auto survivors = db_->machine().AliveNodes();
  if (survivors.empty()) return Status::Ok();
  NodeId probe = survivors[0];
  for (Transaction* t : db_->txn().ActiveAll()) {
    for (uint64_t name : t->granted_locks) {
      auto mode = db_->locks().HeldMode(probe, t->id, name);
      if (!mode.ok()) return mode.status();
      if (*mode == LockMode::kNone) {
        return Fail({Violation::Kind::kLock, {}, name,
                     "surviving active transaction lost a granted lock"});
      }
    }
  }
  return Status::Ok();
}

Status IfaChecker::VerifyAll() {
  SMDB_RETURN_IF_ERROR(VerifyRecords());
  SMDB_RETURN_IF_ERROR(VerifyIndex());
  return VerifyLocks();
}

}  // namespace smdb
