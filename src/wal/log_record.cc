#include "wal/log_record.h"

#include <sstream>

namespace smdb {
namespace {

const char* TypeName(LogRecordType t) {
  switch (t) {
    case LogRecordType::kBegin: return "BEGIN";
    case LogRecordType::kUpdate: return "UPDATE";
    case LogRecordType::kLockOp: return "LOCKOP";
    case LogRecordType::kIndexOp: return "INDEXOP";
    case LogRecordType::kStructural: return "STRUCTURAL";
    case LogRecordType::kCommit: return "COMMIT";
    case LogRecordType::kAbort: return "ABORT";
    case LogRecordType::kCheckpoint: return "CHECKPOINT";
  }
  return "?";
}

}  // namespace

std::string LogRecord::ToString() const {
  std::ostringstream os;
  os << "[n" << node << " lsn=" << lsn << " txn=" << TxnSeq(txn) << "@n"
     << TxnNode(txn) << " " << TypeName(type);
  if (type == LogRecordType::kUpdate) {
    const auto& u = update();
    os << " rid=" << smdb::ToString(u.rid) << " usn=" << u.usn
       << (u.is_clr ? " CLR" : "");
  } else if (type == LogRecordType::kLockOp) {
    const auto& l = lock_op();
    os << " name=" << l.lock_name << " mode=" << smdb::ToString(l.mode)
       << " op=" << static_cast<int>(l.op);
  } else if (type == LogRecordType::kIndexOp) {
    const auto& i = index_op();
    os << " tree=" << i.tree_id
       << (i.op == IndexOpPayload::Op::kInsert ? " ins " : " del ")
       << "key=" << i.key << " usn=" << i.usn << (i.is_clr ? " CLR" : "");
  }
  os << "]";
  return os.str();
}

}  // namespace smdb
