#ifndef SMDB_CORE_STATE_DIGEST_H_
#define SMDB_CORE_STATE_DIGEST_H_

#include <cstdint>
#include <string>

namespace smdb {

class Database;

/// Deterministic hash of the logical machine state recovery is responsible
/// for — the differential oracle for partitioned recovery streams: after
/// restart recovery, an N-stream run must produce the same digest as the
/// one-stream run on the same crash schedule.
///
/// Covered (one FNV-1a sub-hash per component):
///  * heap   — coherent contents of every heap page, line by line, with an
///             explicit marker for lost lines (slot data, USNs, undo tags
///             and Page-LSNs are all in these bytes);
///  * index  — the same over the B+-tree's pages;
///  * stable — the durable page bytes on the shared disks;
///  * locks  — the logical lock table (every LCB's holders and waiters,
///             plus the lost-LCB count);
///  * txns   — the transaction table's verdicts (id, state).
///
/// Deliberately excluded: cache residency, per-node clocks, log contents
/// and statistics. Those are *performance* state — which node's cache holds
/// a line, how long recovery took, whose log a compensation record landed
/// on — and legitimately differ between worker-stream assignments while the
/// recovered database state is identical.
struct StateDigest {
  uint64_t heap = 0;
  uint64_t index = 0;
  uint64_t stable = 0;
  uint64_t locks = 0;
  uint64_t txns = 0;

  /// Single combined hash over the five components.
  uint64_t Combined() const;
  std::string ToString() const;

  friend bool operator==(const StateDigest&, const StateDigest&) = default;
};

/// Computes the digest by snooping — no simulated cost, no state change.
StateDigest ComputeStateDigest(Database& db);

}  // namespace smdb

#endif  // SMDB_CORE_STATE_DIGEST_H_
