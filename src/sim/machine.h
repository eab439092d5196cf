#ifndef SMDB_SIM_MACHINE_H_
#define SMDB_SIM_MACHINE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "obs/instruments.h"
#include "sim/config.h"
#include "sim/events.h"
#include "sim/stats.h"

namespace smdb {


/// One entry of the machine's line table: the directory state, the line
/// lock and the home of one cache line. The line's bytes live beside it in
/// the machine's image slab (a home-memory image and a cached image).
///
/// One cached image serves every sharer because all valid cached copies of
/// a line are byte-identical: a miss copies from a valid copy or from
/// memory, an exclusive request invalidates the other copies, and a
/// write-broadcast updates every copy. A node's copy is valid iff its
/// `sharers` bit is set, so migrations and downgrades move bits, not bytes.
struct LineEntry {
  /// Node whose (distributed) main memory is the home of this line.
  NodeId home = kInvalidNode;
  /// Node holding the line exclusively (kInvalidNode unless exactly one
  /// cached copy exists in the exclusive state).
  NodeId owner = kInvalidNode;
  /// Last node to write this line; used for the sharing-pattern statistics.
  NodeId last_writer = kInvalidNode;
  /// Line-lock holder, and the simulated time from which the next request
  /// may be granted (the grant time while held, the release time after).
  NodeId lock_holder = kInvalidNode;
  SimTime lock_free_at = 0;
  /// Bitmask of nodes holding a valid cached copy.
  uint64_t sharers = 0;
  /// False until the line is first touched. An untouched line reads as
  /// zeros, probes false, is never lost and is skipped by crash recovery.
  bool created = false;
  /// True if the home memory copy matches the most recent write.
  bool mem_valid = false;
  /// True if no valid copy survived a crash: references return an invalid
  /// flag until software re-materialises the line.
  bool lost = false;
  /// The "active data" bit the paper proposes adding per cache line to
  /// trigger Stable LBM log forces on migration (section 5.2).
  bool active_bit = false;

  bool cached_by(NodeId n) const { return (sharers >> n) & 1; }
  int num_sharers() const { return __builtin_popcountll(sharers); }
};

/// Deterministic functional + timing simulator of a cache-coherent shared
/// memory multiprocessor with independent node failures — the substrate the
/// paper assumes (Stanford FLASH-style fault containment, KSR-1 line locks).
///
/// Model:
///  * A single shared physical address space, divided into cache lines
///    (default 128 bytes, as on the KSR-1 and FLASH).
///  * Each node has a cache; home memory is distributed across nodes
///    (interleaved by line, or pinned by AllocLocal).
///  * A directory-based write-invalidate protocol (write-broadcast is also
///    available) keeps the caches coherent; every access charges simulated
///    time to the issuing node's clock. Caches, directory and line locks
///    are one dense line table indexed by LineAddr (the bump allocator
///    hands out dense addresses), with a memory and a cached image per line.
///  * CrashNode destroys the node's cache and home memory, then performs the
///    FLASH-style low-level recovery step: the directory is restored to a
///    state consistent with the surviving caches. A line with no surviving
///    valid copy becomes "lost": referencing it returns an invalid flag
///    (Status::LineLost) — exactly the probe primitive Selective Redo needs.
///
/// All operations are sequential and deterministic; concurrency across nodes
/// is modelled by the per-node clocks and by the caller-controlled
/// interleaving of transaction steps (see txn/executor.h).
class Machine {
 public:
  /// `inst` (owned by Database; may be null) receives the coherence,
  /// crash and node up/down events and every Tick charge.
  explicit Machine(MachineConfig config, Instruments* inst = nullptr);

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---------------------------------------------------------------------
  // Address space.

  /// Allocates `bytes` of shared memory with line-interleaved home nodes.
  /// Returns the (line-aligned) starting address.
  Addr AllocShared(size_t bytes);

  /// Allocates `bytes` homed entirely on `node` (used for structures that
  /// must die with the node, per the paper's memory-alignment assumption for
  /// local logs).
  Addr AllocLocal(NodeId node, size_t bytes);

  LineAddr LineOf(Addr addr) const { return addr / config_.line_size; }
  Addr AddrOfLine(LineAddr line) const {
    return static_cast<Addr>(line) * config_.line_size;
  }
  NodeId HomeOf(LineAddr line) const;

  // ---------------------------------------------------------------------
  // Coherent memory operations, executed by `node`. May span lines.

  Status Read(NodeId node, Addr addr, void* out, size_t len);
  Status Write(NodeId node, Addr addr, const void* data, size_t len);

  template <typename T>
  Result<T> ReadValue(NodeId node, Addr addr) {
    T v{};
    Status s = Read(node, addr, &v, sizeof(T));
    if (!s.ok()) return s;
    return v;
  }
  template <typename T>
  Status WriteValue(NodeId node, Addr addr, T v) {
    return Write(node, addr, &v, sizeof(T));
  }

  // ---------------------------------------------------------------------
  // Line locks (KSR-1 getline/releaseline, section 5.1).

  /// Acquires the line lock on `line`, bringing it exclusive into `node`'s
  /// cache. Charges the queueing delay and transfer cost to the node clock.
  ///
  /// Critical sections under a line lock execute atomically in this
  /// simulator (they are short by construction, the property the paper
  /// exploits), so the lock's job is timing: it serialises holders and
  /// charges the queueing delay, reproducing the KSR-1 contention behaviour.
  Status GetLine(NodeId node, LineAddr line);

  /// Releases a previously acquired line lock.
  void ReleaseLine(NodeId node, LineAddr line);

  bool LineLockHeldBy(LineAddr line, NodeId node) const {
    return line < lines_.size() && lines_[line].lock_holder == node;
  }

  // ---------------------------------------------------------------------
  // Non-coherent (DMA-style) access, used by the simulated I/O subsystem.

  /// Installs fresh contents directly into home memory (e.g. a disk read).
  /// Drops any cached copies and clears the `lost` flag.
  void InstallToMemory(Addr addr, const void* data, size_t len);

  /// Reads the current coherent contents without changing any state (used
  /// by disk writes to gather page contents, and by verification oracles).
  /// Fails with LineLost if a covered line has no surviving copy.
  Status SnoopRead(Addr addr, void* out, size_t len) const;

  // ---------------------------------------------------------------------
  // The per-line "active data" bit (Stable LBM trigger, section 5.2).

  void SetLineActive(LineAddr line, bool active);
  bool LineActive(LineAddr line) const;

  // ---------------------------------------------------------------------
  // Failure injection and recovery support.

  /// Crashes `node`: destroys its cache and home memory, releases its line
  /// locks, restores the directory (FLASH low-level recovery), marks lines
  /// with no surviving copy as lost, then fires crash hooks.
  void CrashNode(NodeId node);

  /// Brings a crashed node back with a cold cache. Its home memory stays
  /// lost until software re-materialises it.
  void RestartNode(NodeId node);

  /// Whole-machine failure (the fate of an SM database without independent
  /// node failures): every volatile byte is destroyed.
  void RebootAll();

  bool NodeAlive(NodeId node) const { return alive_[node]; }
  std::vector<NodeId> AliveNodes() const;

  /// True if a valid copy of `line` exists on a surviving node — the
  /// "temporarily disable cache-miss I/O and probe" primitive used by
  /// Selective Redo's no-redo test.
  bool ProbeLine(LineAddr line) const;

  /// True if the line has been marked lost by a crash.
  bool IsLineLost(LineAddr line) const;

  /// Drops all cached copies of `line` everywhere and invalidates the home
  /// memory copy (Redo All step 1: "discard all cached database records").
  void DiscardLine(LineAddr line);
  void DiscardRange(Addr addr, size_t len);

  /// Calls fn(line) for every line `node` caches, in ascending address
  /// order: Selective Redo's restart step, in which "each surviving node
  /// will perform a sequential search of all cache lines".
  template <typename Fn>
  void ForEachCachedLine(NodeId node, Fn&& fn) const {
    for (LineAddr line = 0; line < lines_.size(); ++line) {
      if (lines_[line].cached_by(node)) fn(line);
    }
  }

  /// Read-only line-table entry, or nullptr for a never-touched line
  /// (diagnostics/tests).
  const LineEntry* FindLine(LineAddr line) const {
    return line < lines_.size() && lines_[line].created ? &lines_[line]
                                                         : nullptr;
  }

  // ---------------------------------------------------------------------
  // Simulated time.

  SimTime NodeClock(NodeId node) const { return clocks_[node]; }
  /// Charges `ns` of simulated time to `node`. Single choke point for all
  /// sim time, so the profiler's phase attribution hooks here: any charge
  /// landing while a profiler root scope is open is credited to the
  /// innermost phase path.
  void Tick(NodeId node, SimTime ns) {
    ProfTick(inst_, ns);
    clocks_[node] += ns;
  }
  /// Synchronises all live node clocks to the maximum (a barrier; used at
  /// the start and end of restart recovery).
  void SyncClocks();
  /// max over live nodes' clocks.
  SimTime GlobalTime() const;
  /// The node of `nodes` whose clock is smallest, ties going to the earlier
  /// entry (the lower id for an ascending list). Greedy list scheduling:
  /// restart and checkpoint I/O go to whichever node is free first.
  /// `nodes` must not be empty.
  NodeId EarliestOf(const std::vector<NodeId>& nodes) const;

  // ---------------------------------------------------------------------
  // Hooks and statistics.

  void AddCoherenceHook(CoherenceHook hook) {
    coherence_hooks_.push_back(std::move(hook));
  }
  void AddCrashHook(CrashHook hook) { crash_hooks_.push_back(std::move(hook)); }

  MachineStats& stats() { return stats_; }
  const MachineStats& stats() const { return stats_; }
  const MachineConfig& config() const { return config_; }
  uint16_t num_nodes() const { return config_.num_nodes; }
  uint32_t line_size() const { return config_.line_size; }

  /// The instrumentation plane given at construction (may be null).
  Instruments* instruments() const { return inst_; }

 private:
  /// Makes `line` valid in `node`'s cache for reading; performs coherence
  /// transitions and charges costs. On success *data points at the line's
  /// cached image.
  Status ReadLine(NodeId node, LineAddr line, const uint8_t** data);

  /// Makes `node` the exclusive holder of `line` with current contents
  /// (write-invalidate). Under write-broadcast, WriteSpan updates all
  /// copies instead.
  Status AcquireExclusive(NodeId node, LineAddr line, bool for_line_lock);

  /// Applies a write of [offset, offset+len) within `line`.
  Status WriteSpan(NodeId node, LineAddr line, uint32_t offset,
                   const uint8_t* data, size_t len);

  /// Returns a pointer to the authoritative current bytes of `line`, or
  /// nullptr if the line is lost.
  const uint8_t* CurrentData(LineAddr line) const;

  void FireCoherence(CoherenceEvent::Kind kind, LineAddr line, NodeId from,
                     NodeId to, bool active_bit);

  /// Returns the entry of `line`, marking it touched: fresh zero-filled
  /// memory is current. Grows the table for a line beyond every allocation.
  LineEntry& Entry(LineAddr line);
  /// Extends the line table (and the image slab) to cover [0, end).
  void Grow(LineAddr end);
  /// Frees `e`'s line lock if `node` holds it, at simulated time `now`.
  static void Unlock(LineEntry& e, NodeId node, SimTime now);

  uint8_t* MemImage(LineAddr line) {
    return images_.data() + 2 * line * config_.line_size;
  }
  const uint8_t* MemImage(LineAddr line) const {
    return images_.data() + 2 * line * config_.line_size;
  }
  uint8_t* CachedImage(LineAddr line) {
    return MemImage(line) + config_.line_size;
  }
  const uint8_t* CachedImage(LineAddr line) const {
    return MemImage(line) + config_.line_size;
  }

  MachineConfig config_;
  /// The line table, indexed by LineAddr.
  std::vector<LineEntry> lines_;
  /// Two images per line, in line order: home memory, then the cached copy.
  std::vector<uint8_t> images_;
  std::vector<bool> alive_;
  std::vector<SimTime> clocks_;
  MachineStats stats_;
  Instruments* inst_;

  Addr next_addr_ = 0;

  std::vector<CoherenceHook> coherence_hooks_;
  std::vector<CrashHook> crash_hooks_;
};

}  // namespace smdb

#endif  // SMDB_SIM_MACHINE_H_
