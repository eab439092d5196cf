#ifndef SMDB_WAL_LOG_RECORD_H_
#define SMDB_WAL_LOG_RECORD_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.h"

namespace smdb {

/// Lock modes used by the shared-memory lock manager and logged in logical
/// lock-operation records. Shared requests are compatible with each other;
/// exclusive conflicts with everything (section 2).
enum class LockMode : uint8_t {
  kNone = 0,
  kShared = 1,
  kExclusive = 2,
};

inline bool Compatible(LockMode held, LockMode requested) {
  if (held == LockMode::kNone) return true;
  return held == LockMode::kShared && requested == LockMode::kShared;
}

inline const char* ToString(LockMode m) {
  switch (m) {
    case LockMode::kNone: return "N";
    case LockMode::kShared: return "S";
    case LockMode::kExclusive: return "X";
  }
  return "?";
}

/// Physiological update record for a heap record: carries both the before
/// image (the undo information) and the after image (the redo information).
/// The paper logs these separately (an undo record on the first update, a
/// redo record on every update); combining them in one physical record is
/// equivalent and standard.
struct UpdatePayload {
  RecordId rid;
  /// Global update sequence number stamped on the record version this
  /// update produced. USNs generalise the Page-LSN: updates to one record
  /// are totally ordered (strict 2PL serialises them), so "this update is
  /// reflected in a given copy" is exactly "copy.usn >= usn".
  uint64_t usn = 0;
  /// USN of the version the before image corresponds to.
  uint64_t before_usn = 0;
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
  /// Compensation (redo-only) record written while rolling back; never
  /// undone (ARIES-style CLR).
  bool is_clr = false;
};

/// Logical lock-operation record (section 4.2.2). To ensure IFA for the
/// shared-memory lock table, *both read and write* lock acquisitions are
/// logged, as well as queued (waiting) requests and releases, so that LCBs
/// destroyed with a crashed node can be reconstructed from surviving logs.
struct LockOpPayload {
  enum class Op : uint8_t { kAcquire, kQueue, kRelease };
  uint64_t lock_name = 0;
  LockMode mode = LockMode::kNone;
  Op op = Op::kAcquire;
};

/// Logical index-operation record for non-structural B+-tree updates
/// (section 4.2.1): inserts and (logical) deletes of leaf entries.
struct IndexOpPayload {
  enum class Op : uint8_t { kInsert, kDelete };
  uint32_t tree_id = 0;
  Op op = Op::kInsert;
  uint64_t key = 0;
  RecordId value;  // payload of the entry (insert) / entry being deleted
  uint64_t usn = 0;
  bool is_clr = false;
};

/// Record of an early-committed structural change (section 4.2): a B+-tree
/// page split or page allocation, performed as a nested top-level action
/// and forced to stable storage before any other transaction may use the
/// new space. Carries the full post-change images of the touched pages
/// (physical redo): replaying the record re-establishes the structure, so
/// the early commit costs one log force rather than page flushes.
struct StructuralPayload {
  uint32_t tree_id = 0;
  PageId new_page = kInvalidPage;
  std::string description;
  /// USN stamped on the change; page images carry it as their Page-LSN.
  uint64_t usn = 0;
  /// (page, post-change image) pairs for physical redo.
  std::vector<std::pair<PageId, std::vector<uint8_t>>> page_images;
};

struct BeginPayload {};
struct CommitPayload {};
struct AbortPayload {};

/// Per-node fuzzy checkpoint record: replay of this node's log may start at
/// the checkpoint; everything older is reflected in the stable database.
struct CheckpointPayload {
  std::vector<TxnId> active_txns;
};

enum class LogRecordType : uint8_t {
  kBegin,
  kUpdate,
  kLockOp,
  kIndexOp,
  kStructural,
  kCommit,
  kAbort,
  kCheckpoint,
};

/// One entry in a node's log. LSNs are assigned by the node's LogManager;
/// prev_lsn chains all records of one transaction (for rollback).
struct LogRecord {
  LogRecordType type = LogRecordType::kBegin;
  Lsn lsn = kInvalidLsn;
  Lsn prev_lsn = kInvalidLsn;
  TxnId txn = kInvalidTxn;
  NodeId node = kInvalidNode;
  std::variant<BeginPayload, UpdatePayload, LockOpPayload, IndexOpPayload,
               StructuralPayload, CommitPayload, AbortPayload,
               CheckpointPayload>
      payload;

  const UpdatePayload& update() const {
    return std::get<UpdatePayload>(payload);
  }
  const LockOpPayload& lock_op() const {
    return std::get<LockOpPayload>(payload);
  }
  const IndexOpPayload& index_op() const {
    return std::get<IndexOpPayload>(payload);
  }
  const CheckpointPayload& checkpoint() const {
    return std::get<CheckpointPayload>(payload);
  }
  const StructuralPayload& structural() const {
    return std::get<StructuralPayload>(payload);
  }

  /// USN this record stamped (update, index op or structural change); 0
  /// when the record carries none.
  uint64_t usn() const {
    switch (type) {
      case LogRecordType::kUpdate: return update().usn;
      case LogRecordType::kIndexOp: return index_op().usn;
      case LogRecordType::kStructural: return structural().usn;
      default: return 0;
    }
  }

  /// True for a record a rollback must compensate: a non-CLR update or
  /// index op.
  bool undoable() const {
    if (type == LogRecordType::kUpdate) return !update().is_clr;
    if (type == LogRecordType::kIndexOp) return !index_op().is_clr;
    return false;
  }

  /// Short human-readable form for tracing and tests.
  std::string ToString() const;
};

}  // namespace smdb

#endif  // SMDB_WAL_LOG_RECORD_H_
