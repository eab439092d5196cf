#ifndef SMDB_STORAGE_STABLE_LOG_H_
#define SMDB_STORAGE_STABLE_LOG_H_

#include <deque>
#include <iterator>
#include <vector>

#include "common/types.h"
#include "wal/log_record.h"

namespace smdb {

/// Durable storage for the per-node logs. Each node owns one append-only
/// stream on a shared disk (figure 1: local logs are volatile in-cache but
/// "can be made stable by writing [them] to one of the shared disks").
/// Contents survive node crashes and whole-machine reboots; any surviving
/// node may read any node's stable log during restart recovery.
///
/// Each stream is a chunked deque: an append or a prefix truncation costs
/// O(batch), and a durable record never moves once written.
class StableLogStore {
 public:
  explicit StableLogStore(uint16_t num_nodes) : streams_(num_nodes) {}

  /// Durably appends `records` to `node`'s stream in one bulk move (one
  /// batched disk write in the model; record order — and therefore LSN
  /// order — is preserved).
  void Append(NodeId node, std::vector<LogRecord> records) {
    streams_[node].insert(streams_[node].end(),
                          std::make_move_iterator(records.begin()),
                          std::make_move_iterator(records.end()));
  }

  /// All durable records of `node`'s log, in LSN order (the retained
  /// suffix, after any truncation).
  const std::deque<LogRecord>& Records(NodeId node) const {
    return streams_[node];
  }

  /// Discards the archived prefix of `node`'s stream: records with
  /// lsn <= through. LSN numbering is unaffected. Returns # dropped.
  size_t Truncate(NodeId node, Lsn through) {
    auto& s = streams_[node];
    size_t keep = 0;
    while (keep < s.size() && s[keep].lsn <= through) ++keep;
    s.erase(s.begin(), s.begin() + keep);
    return keep;
  }

  /// LSN of the last durable record of `node` (kInvalidLsn if empty).
  Lsn LastLsn(NodeId node) const {
    const auto& s = streams_[node];
    return s.empty() ? kInvalidLsn : s.back().lsn;
  }

  uint16_t num_nodes() const { return static_cast<uint16_t>(streams_.size()); }

 private:
  std::vector<std::deque<LogRecord>> streams_;
};

}  // namespace smdb

#endif  // SMDB_STORAGE_STABLE_LOG_H_
