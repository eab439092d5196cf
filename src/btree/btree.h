#ifndef SMDB_BTREE_BTREE_H_
#define SMDB_BTREE_BTREE_H_

#include <optional>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/types.h"
#include "core/lbm_policy.h"
#include "core/protocol.h"
#include "db/buffer_manager.h"
#include "db/wal_table.h"
#include "wal/log_manager.h"

namespace smdb {

class Machine;

/// Entry state within a leaf.
enum class LeafEntryState : uint8_t {
  kFree = 0,
  kLive = 1,
  /// Logically deleted (section 4.2.1): the record is only *marked* deleted
  /// so that (a) the freed space is not reused before the deleting
  /// transaction commits, and (b) the undo of an uncommitted delete — which
  /// may have migrated to another node — is a mere unmarking.
  kTombstone = 2,
};

/// Decoded leaf entry.
struct LeafEntry {
  uint64_t key = 0;
  RecordId rid;
  LeafEntryState state = LeafEntryState::kFree;
  /// Undo tag (kTagNone or TagForNode(n)), stored in the same cache line as
  /// the entry, per the Tagging Rule.
  uint16_t tag = 0;
  uint64_t usn = 0;
};

struct BTreeStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t lookups = 0;
  uint64_t splits = 0;
  /// Early commits of structural changes (Table 1 row 1): each is a
  /// logged, forced nested top-level action.
  uint64_t early_commits = 0;
  /// Pages flushed synchronously at splits under reboot semantics
  /// (force_structural_pages), where no structural record exists: the
  /// FA-only baseline's cost, not an early commit.
  uint64_t split_page_flushes = 0;
  uint64_t purged_tombstones = 0;

  void Reset() { *this = BTreeStats(); }
};

/// A B+-tree stored in shared memory, keyed by uint64 with RecordId values
/// (records live only in leaves). Non-structural updates (insert, logical
/// delete) follow the record recovery protocols: performed under line
/// locks, logged logically before the line can migrate, and undo-tagged.
/// Structural changes (page splits, allocation) are committed early as
/// nested top-level actions: logged, forced, and the affected pages flushed
/// before the new space is visible to any other transaction.
///
/// Leaf pages use unsorted slot arrays (lookup scans the leaf) so that
/// undo of an insert never moves other entries between cache lines.
///
/// Page layout — header line: magic u32 @0, page_id u32 @4, page_lsn u64
/// @8, is_leaf u8 @16, level u8 @17, nkeys u16 @18 (internal only),
/// next_leaf u32 @20, first_child u32 @24, tree_id u32 @28.
/// Leaf entry (26 B, never spans lines): key u64 @0, rid_page u32 @8,
/// rid_slot u16 @12, state u8 @14, pad u8 @15, tag u16 @16, usn u64 @18.
/// Internal entry (12 B): key u64 @0, child u32 @8.
class BTree {
 public:
  BTree(Machine* machine, BufferManager* buffers, LogManager* log,
        WalTable* wal_table, UsnSource* usn, LbmPolicy* lbm, uint32_t tree_id,
        bool early_commit_structural);

  /// Creates the root leaf. `node` pays the cost.
  Status Init(NodeId node);

  uint32_t tree_id() const { return tree_id_; }

  /// Reboot-semantics escape hatch for the `early_commit_structural = false`
  /// ablation: RebootAll discards every volatile page and reloads stable
  /// images, so a split that exists only in memory leaves the reloaded tree
  /// with torn routing (a parent pointing at a page whose stable image is
  /// still the freshly-allocated blank). When set, structural changes are
  /// made durable by flushing the touched pages at split time instead of
  /// logging them — the stable DB stays self-consistent, which is exactly
  /// the contract a whole-reboot restart relies on.
  void set_force_structural_pages(bool on) { force_structural_pages_ = on; }

  PageId root_page() const { return root_; }
  const std::vector<PageId>& pages() const { return page_list_; }
  bool OwnsPage(PageId page) const { return pages_.contains(page); }
  BTreeStats& stats() { return stats_; }

  // ----------------------------------------------------------------------
  // Transactional operations (caller holds the key lock; `chain` is the
  // transaction's log-record chain).

  /// Looks up `key`; returns its RecordId if a live entry exists.
  Result<std::optional<RecordId>> Lookup(NodeId node, uint64_t key);

  /// Inserts key -> value. InvalidArgument if a live entry already exists.
  /// `tag` is the undo tag to stamp (kTagNone when tagging is disabled).
  Status Insert(NodeId node, TxnId txn, uint64_t key, RecordId value,
                uint16_t tag, Lsn* chain);

  /// Logically deletes `key` (marks the entry). NotFound if no live entry.
  /// `own_key` says `txn` already inserted or deleted `key`; only then is a
  /// live entry carrying `tag` its own uncommitted insert, removed
  /// physically. (A survivor's tag can outlive the insert's commit: tag
  /// clears are not logged, so restart may reload the entry from a stable
  /// image taken before the commit.)
  Status Delete(NodeId node, TxnId txn, uint64_t key, uint16_t tag,
                Lsn* chain, bool own_key = false);

  // ----------------------------------------------------------------------
  // Commit / abort support.

  /// Clears the undo tag of `key`'s entry (commit path).
  Status ClearTag(NodeId node, uint64_t key);

  /// Physically removes an uncommitted insert (abort/recovery undo).
  /// When `log_clr` is set a redo-only compensation record is logged.
  Status UndoInsert(NodeId node, TxnId txn, uint64_t key, Lsn* chain,
                    bool log_clr);

  /// Unmarks an uncommitted logical delete (abort/recovery undo).
  Status UndoDelete(NodeId node, TxnId txn, uint64_t key, Lsn* chain,
                    bool log_clr);

  /// Slot-precise undo for the restart tag scan (a key may have both a
  /// live entry and a tombstone; the scan resolves each entry
  /// individually). Both log redo-only compensation records.
  Status RemoveEntryAt(NodeId node, PageId leaf, uint16_t slot);
  Status UnmarkEntryAt(NodeId node, PageId leaf, uint16_t slot);

  // ----------------------------------------------------------------------
  // Restart recovery support (implemented in btree_recovery.cc).

  /// Idempotently re-applies a logged index operation (redo pass). `tag` is
  /// the undo tag to restore (TagForNode of the owner if the owning
  /// transaction is still active, else kTagNone).
  Status RedoIndexOp(NodeId node, const IndexOpPayload& op, uint16_t tag);

  struct EntryRef {
    PageId leaf = kInvalidPage;
    uint16_t slot = 0;
    LeafEntry entry;
  };

  /// Entries whose bytes live in cache line `line` (tag-scan support).
  std::vector<EntryRef> EntriesInLine(LineAddr line) const;

  /// All entries in the tree, via snooping (verification; no cost).
  /// Lost lines fail with LineLost.
  Result<std::vector<EntryRef>> CollectEntries(bool include_tombstones) const;

  /// Structural validation: every reachable page is well formed, internal
  /// separators route correctly, and leaf chain order is consistent.
  Status CheckStructure(NodeId node);

  /// The cache line holding `key`'s entry, if the entry exists (tests).
  Result<LineAddr> LineOfKey(NodeId node, uint64_t key);

  /// Current entry for `key` (live or tombstoned), if any. Coherent read.
  Result<std::optional<LeafEntry>> GetEntry(NodeId node, uint64_t key);

  /// Every non-free entry for `key` (a key can carry both a live entry and
  /// a tombstone). Coherent reads; used by on-demand recovery's per-key tag
  /// discharge, which must resolve each entry individually like the full
  /// tag scan does.
  Result<std::vector<EntryRef>> EntriesForKey(NodeId node, uint64_t key);

 private:
  friend class BTreeRecoveryAccess;

  static constexpr uint32_t kLeafEntryBytes = 26;
  static constexpr uint32_t kInternalEntryBytes = 12;

  struct PageHeader {
    PageId page_id = kInvalidPage;
    uint64_t page_lsn = 0;
    bool is_leaf = true;
    uint8_t level = 0;
    uint16_t nkeys = 0;
    PageId next_leaf = kInvalidPage;
    PageId first_child = kInvalidPage;
    uint32_t tree_id = 0;
  };

  uint32_t leaf_entries_per_line() const {
    return machine_line_size_ / kLeafEntryBytes;
  }
  uint32_t leaf_capacity() const;
  uint32_t internal_entries_per_line() const {
    return machine_line_size_ / kInternalEntryBytes;
  }
  uint32_t internal_capacity() const;

  Addr LeafEntryAddr(Addr base, uint32_t slot) const;
  Addr InternalEntryAddr(Addr base, uint32_t idx) const;

  Result<PageHeader> ReadHeader(NodeId node, PageId page) const;
  Status WriteHeader(NodeId node, PageId page, const PageHeader& h);
  Result<LeafEntry> ReadLeafEntry(NodeId node, PageId page,
                                  uint32_t slot) const;
  Status WriteLeafEntry(NodeId node, PageId page, uint32_t slot,
                        const LeafEntry& e);

  /// Descends from the root to the leaf that should contain `key`,
  /// recording the path (page ids, root first).
  Status DescendToLeaf(NodeId node, uint64_t key, std::vector<PageId>* path);

  /// Finds `key`'s entry slot in `leaf` (live or tombstone). Returns slot
  /// or NotFound.
  Result<uint32_t> FindEntrySlot(NodeId node, PageId leaf, uint64_t key,
                                 bool include_tombstones) const;

  /// Finds a free slot; purges committed tombstones if needed. NotFound if
  /// the leaf is genuinely full.
  Result<uint32_t> FindFreeSlot(NodeId node, PageId leaf);

  /// Splits `leaf` (and parents as needed) as an early-committed nested
  /// top-level action, then returns the leaf that should now hold `key`.
  Result<PageId> SplitForInsert(NodeId node, std::vector<PageId>& path,
                                uint64_t key);

  /// Allocates and formats a new page. Part of a structural change.
  Result<PageId> AllocatePage(NodeId node, bool is_leaf, uint8_t level);

  /// Inserts (sep_key, right_child) into the internal `parent` (splitting
  /// upward as needed; may create a new root).
  Status InsertIntoParent(NodeId node, std::vector<PageId>& path,
                          size_t parent_index, uint64_t sep_key,
                          PageId right_child);

  /// Finalises a structural change: structural log record, force, flush of
  /// affected pages (the nested-top-level-action early commit).
  Status EarlyCommitStructural(NodeId node, const std::vector<PageId>& pages,
                               const std::string& description);

  /// Writes an index-op log record and runs the LBM hook for the touched
  /// lines.
  Status LogIndexOp(NodeId node, TxnId txn, IndexOpPayload payload,
                    Lsn* chain, const std::vector<LineAddr>& lines,
                    bool is_clr);

  Addr BaseOf(PageId page) const;
  LineAddr HeaderLineOf(PageId page) const;

  Machine* machine_;
  BufferManager* buffers_;
  LogManager* log_;
  WalTable* wal_table_;
  UsnSource* usn_;
  LbmPolicy* lbm_;
  uint32_t tree_id_;
  bool early_commit_structural_;
  bool force_structural_pages_ = false;
  uint32_t machine_line_size_;
  uint32_t page_size_;

  PageId root_ = kInvalidPage;
  PageId leftmost_leaf_ = kInvalidPage;
  HashSet<PageId> pages_;
  std::vector<PageId> page_list_;
  BTreeStats stats_;
};

}  // namespace smdb

#endif  // SMDB_BTREE_BTREE_H_
