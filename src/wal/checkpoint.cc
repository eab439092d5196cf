#include "wal/checkpoint.h"

#include "db/buffer_manager.h"
#include "sim/machine.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace smdb {

Status TakeCheckpoint(Machine* machine, LogManager* log,
                      BufferManager* buffers,
                      const std::vector<std::vector<TxnId>>& active_per_node,
                      CheckpointStats* stats) {
  const std::vector<NodeId> alive = machine->AliveNodes();
  if (alive.empty()) return Status::NodeFailed("checkpoint: no live node");
  const SimTime start = machine->GlobalTime();
  // 1. Force all logs so the flush pass never trips the WAL gate.
  for (NodeId n : alive) SMDB_RETURN_IF_ERROR(log->Force(n, n));
  // 2. Flush every dirty page on the node that is free first.
  for (PageId page : buffers->DirtyPages()) {
    SMDB_RETURN_IF_ERROR(buffers->FlushPage(machine->EarliestOf(alive), page));
    ++stats->pages_flushed;
  }
  // 3. Per-node checkpoint records.
  for (NodeId n : alive) {
    LogRecord rec;
    rec.type = LogRecordType::kCheckpoint;
    rec.txn = kInvalidTxn;
    CheckpointPayload payload;
    if (n < active_per_node.size()) payload.active_txns = active_per_node[n];
    rec.payload = std::move(payload);
    Lsn lsn = log->Append(n, std::move(rec));
    SMDB_RETURN_IF_ERROR(log->Force(n, n));
    log->SetCheckpointLsn(n, lsn);
  }
  // 4. A checkpoint is a barrier: align the simulated clocks so the nodes
  // that paid the most I/O do not leave phantom lock-wait skew behind.
  machine->SyncClocks();
  ++stats->count;
  stats->barrier_ns += machine->GlobalTime() - start;
  return Status::Ok();
}

}  // namespace smdb
