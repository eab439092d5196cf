#ifndef SMDB_COMMON_TYPES_H_
#define SMDB_COMMON_TYPES_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace smdb {

/// Identifier of a node (processor/memory pair) in the shared memory machine.
using NodeId = uint16_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Byte address in the simulated shared physical address space.
using Addr = uint64_t;

/// Index of a cache line in the shared address space (Addr / line_size).
using LineAddr = uint64_t;
inline constexpr LineAddr kInvalidLine = std::numeric_limits<LineAddr>::max();

/// Log sequence number within one node's log. LSNs are per-node monotonic;
/// a globally unique log position is the pair (NodeId, Lsn).
using Lsn = uint64_t;
inline constexpr Lsn kInvalidLsn = 0;

/// Identifier of a disk page in the stable database.
using PageId = uint32_t;
inline constexpr PageId kInvalidPage = std::numeric_limits<PageId>::max();

/// Transaction identifier. The node that executes the transaction is encoded
/// in the top 16 bits (the paper notes that "the transaction ID also encodes
/// the node ID", which the Volatile LBM policy exploits for undo tagging).
using TxnId = uint64_t;
inline constexpr TxnId kInvalidTxn = 0;

/// Builds a TxnId that encodes the executing node.
constexpr TxnId MakeTxnId(NodeId node, uint64_t seq) {
  return (static_cast<uint64_t>(node) << 48) | (seq & 0xFFFFFFFFFFFFULL);
}

/// Extracts the executing node from a TxnId.
constexpr NodeId TxnNode(TxnId txn) {
  return static_cast<NodeId>(txn >> 48);
}

/// Extracts the per-node sequence number from a TxnId.
constexpr uint64_t TxnSeq(TxnId txn) { return txn & 0xFFFFFFFFFFFFULL; }

/// Simulated time, in nanoseconds. The simulator charges costs to per-node
/// clocks; there is no wall-clock time anywhere in the library.
using SimTime = uint64_t;

/// Identifier of a record: (page, slot) pair.
struct RecordId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;

  friend bool operator==(const RecordId&, const RecordId&) = default;
  friend auto operator<=>(const RecordId&, const RecordId&) = default;
};

/// Returns "p<page>.s<slot>" for diagnostics.
std::string ToString(const RecordId& rid);

}  // namespace smdb

#endif  // SMDB_COMMON_TYPES_H_
