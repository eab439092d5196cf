#ifndef SMDB_CORE_IFA_CHECKER_H_
#define SMDB_CORE_IFA_CHECKER_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "txn/transaction.h"

namespace smdb {

class Database;

/// Ground-truth oracle for Isolated Failure Atomicity.
///
/// The checker observes every transaction's operations (as a TxnObserver)
/// and maintains, outside the simulated machine, the committed state plus
/// each active transaction's pending effects. After any crash + recovery —
/// or at any quiescent point — Verify* compares the machine-visible
/// database against what IFA demands:
///   * every record holds its last committed value, unless a *surviving*
///     active transaction updated it, in which case it must hold that
///     transaction's value (no lost surviving updates — IFA half 2);
///   * no crashed transaction's value is visible anywhere (all crashed
///     effects undone — IFA half 1);
///   * the index shows exactly the committed entries adjusted by surviving
///     active transactions' pending inserts/logical deletes;
///   * crashed transactions hold no locks; surviving active transactions
///     still hold all their 2PL locks.
class IfaChecker : public TxnObserver {
 public:
  explicit IfaChecker(Database* db) : db_(db) {}

  /// Registers the heap table (records start zero-filled and committed).
  void RegisterTable(const std::vector<RecordId>& rids);

  // TxnObserver --------------------------------------------------------
  void OnUpdate(TxnId txn, RecordId rid,
                const std::vector<uint8_t>& value) override;
  void OnIndexInsert(TxnId txn, uint32_t tree, uint64_t key,
                     RecordId rid) override;
  void OnIndexDelete(TxnId txn, uint32_t tree, uint64_t key) override;
  void OnCommit(TxnId txn) override;
  void OnAbort(TxnId txn) override;

  // Verification -------------------------------------------------------
  Status VerifyRecords();
  Status VerifyIndex();
  Status VerifyLocks();
  Status VerifyAll();

  /// Structured description of the first check that failed, so forensic
  /// reports can target the offending object (log chain, lock state)
  /// without parsing the Corruption message. `rid` is set for kRecord,
  /// `key` for kIndex; kLock violations carry only the detail string.
  struct Violation {
    enum class Kind : uint8_t { kRecord, kIndex, kLock };
    Kind kind = Kind::kRecord;
    RecordId rid;
    uint64_t key = 0;
    std::string detail;
  };

  /// The violation behind the most recent failed Verify* call; nullopt
  /// after a clean pass (each Verify* clears it on entry).
  const std::optional<Violation>& last_violation() const {
    return last_violation_;
  }

  size_t committed_records() const { return committed_.size(); }

 private:
  struct IdxOp {
    bool insert = false;
    uint64_t key = 0;
    RecordId rid;
  };
  struct Pending {
    std::map<RecordId, std::vector<uint8_t>> records;
    std::vector<IdxOp> index_ops;
  };

  /// Records the violation and returns the matching Corruption status.
  Status Fail(Violation v);

  Database* db_;
  std::map<RecordId, std::vector<uint8_t>> committed_;
  std::map<uint64_t, RecordId> committed_index_;
  std::map<TxnId, Pending> pending_;
  std::optional<Violation> last_violation_;
};

}  // namespace smdb

#endif  // SMDB_CORE_IFA_CHECKER_H_
