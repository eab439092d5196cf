#ifndef SMDB_FUZZ_FUZZER_H_
#define SMDB_FUZZ_FUZZER_H_

#include <optional>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.h"

namespace smdb {

/// Outcome of one (case, protocol) run against the failure predicate.
struct FuzzVerdict {
  bool failed = false;
  /// "run-error" (harness returned a Status), "ifa-verify" (oracle caught
  /// a violation), "unnecessary-aborts" (an IFA protocol aborted surviving
  /// work), or "oracle" (a baseline misbehaved against its own contract).
  std::string kind;
  std::string detail;
};

/// A failing (seed, case, protocol) triple.
struct FuzzFailure {
  uint64_t seed = 0;
  FuzzCase fuzz_case;
  RecoveryConfig protocol;
  FuzzVerdict verdict;
};

struct FuzzStats {
  uint64_t cases = 0;
  uint64_t runs = 0;
  uint64_t shrink_runs = 0;
  uint64_t crashes_fired = 0;
  uint64_t crashes_skipped = 0;
  uint64_t whole_machine_restarts = 0;
  uint64_t committed = 0;

  /// Accumulates another (per-seed) stats block; campaign sharding merges
  /// per-seed fuzzer stats in seed order.
  void Merge(const FuzzStats& o) {
    cases += o.cases;
    runs += o.runs;
    shrink_runs += o.shrink_runs;
    crashes_fired += o.crashes_fired;
    crashes_skipped += o.crashes_skipped;
    whole_machine_restarts += o.whole_machine_restarts;
    committed += o.committed;
  }

  /// Visits every field as ("name", value) — keeps Merge, the campaign
  /// summary JSON, and the per-seed aggregates over the same field set.
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    fn("cases", cases);
    fn("runs", runs);
    fn("shrink_runs", shrink_runs);
    fn("crashes_fired", crashes_fired);
    fn("crashes_skipped", crashes_skipped);
    fn("whole_machine_restarts", whole_machine_restarts);
    fn("committed", committed);
  }
};

/// Randomized crash-schedule fuzzer with deterministic replay.
///
/// Each seed samples one scenario (SampleFuzzCase) and runs it through the
/// Harness under every configured protocol; after every recovery and at
/// quiescence the IfaChecker oracle compares the machine-visible state
/// against ground truth. The IFA protocols must show zero violations and
/// zero unnecessary aborts; the baselines act as oracles of expected-abort
/// behavior (RebootAll must always whole-machine-restart). On failure the
/// schedule is shrunk (greedy delta debugging over crash plans, node sets,
/// plan attributes, workload sizes, and cadences) to a minimal reproducer,
/// and a JSON replay document re-executes it bit-identically.
class CrashScheduleFuzzer {
 public:
  struct Options {
    /// Protocols every case runs under; defaults to DefaultProtocols().
    std::vector<RecoveryConfig> protocols;
    /// Fault injection: break undo tagging in every protocol run (see
    /// RecoveryConfig::disable_undo_tagging). Used to prove the fuzzer
    /// catches real violations.
    bool disable_undo_tagging = false;
    /// Upper bound on re-runs the shrinker may spend per failure.
    size_t max_shrink_runs = 400;
    /// When > 1, every case additionally runs the recovery-stream
    /// differential: a single-stream baseline captures a StateDigest after
    /// each recovery, then the schedule re-runs once per fired recovery
    /// with exactly that recovery at `recovery_streams` simulated streams
    /// (all earlier ones single-stream), and the digests must match. A
    /// mismatch is a "stream-divergence" failure, and the shrinker
    /// minimises it like any other (RunCase re-runs the whole differential
    /// per candidate).
    uint32_t recovery_streams = 1;
    /// Run every protocol with the group-commit pipeline on (coalesced
    /// commit and LBM forces). Orthogonal to protocol identity: the same
    /// IFA predicates must hold, exercising the acknowledgement-after-
    /// force and crash-time-resolution paths.
    bool group_commit = false;
    /// Pipeline knobs when group_commit is set (0 = keep the defaults).
    uint64_t group_commit_window_ns = 0;
    uint32_t group_commit_max_batch = 0;
    /// Run every protocol with on-demand (instant) recovery: the crash-time
    /// pass only runs the scheme's prefix, traffic resumes in the Recovering
    /// state, and obligations discharge on first touch / via the harness
    /// sweeper. Orthogonal to protocol identity — the same IFA predicates
    /// must hold.
    bool on_demand = false;
    /// On failure, re-run the shrunk reproducer with event tracing on and
    /// embed a bounded forensic report (trace tails, the offending
    /// object's log chain, lock state, tag-scan decisions) in the replay
    /// document.
    bool forensics = true;
    /// Per-node trace ring capacity used by the forensic re-run.
    uint32_t trace_capacity = 4096;
  };

  /// The five IFA protocol variants plus the two baselines-as-oracles.
  static std::vector<RecoveryConfig> DefaultProtocols();

  CrashScheduleFuzzer() : CrashScheduleFuzzer(Options()) {}
  explicit CrashScheduleFuzzer(Options opts);

  /// Samples the seed's scenario and runs it under every protocol.
  /// Returns the first failure, if any.
  std::optional<FuzzFailure> RunSeed(uint64_t seed);

  /// Runs one case under one protocol and applies the failure predicate.
  FuzzVerdict RunCase(const FuzzCase& fuzz_case, RecoveryConfig protocol);

  /// Delta-debugs the failing case to a (locally) minimal reproducer that
  /// still fails under the failure's protocol, with the failure's kind.
  FuzzCase Shrink(const FuzzFailure& failure);

  /// Re-runs the shrunk reproducer with event tracing enabled (the re-run
  /// is deterministic, so the failure reproduces bit-identically) and
  /// builds the crash-forensics document: whether the failure reproduced,
  /// per-node trace tails, and — for IFA violations — the offending
  /// object's log chain, lock state and tag-scan decisions.
  json::Value CollectForensics(const FuzzFailure& failure,
                               const FuzzCase& shrunk);

  /// Serializes a self-contained replay document for `failure` with the
  /// shrunk case as the schedule to re-execute. `forensics` (from
  /// CollectForensics), when non-null, is embedded under "forensics".
  std::string ReplayJson(const FuzzFailure& failure, const FuzzCase& shrunk,
                         const json::Value* forensics = nullptr) const;

  struct ReplayDoc {
    uint64_t seed = 0;
    FuzzCase fuzz_case;
    RecoveryConfig protocol;
    /// Recovery streams the failing run used (1 = single-stream run).
    uint32_t recovery_streams = 1;
    /// Observability settings of the producing campaign (absent in older
    /// documents: forensics on, default capacity).
    bool forensics_enabled = true;
    uint32_t trace_capacity = 4096;
    std::string recorded_kind;
    std::string recorded_detail;
  };
  static Result<ReplayDoc> ParseReplay(const std::string& json_text);

  const FuzzStats& stats() const { return stats_; }

  /// Applies the option-level overrides (fault injection, group commit) to
  /// a protocol. Every run path funnels through this, so the campaign
  /// runner, the shrinker and replay all agree on the effective config.
  RecoveryConfig EffectiveProtocol(RecoveryConfig protocol) const;

 private:
  /// The differential leg of RunCase: re-runs `base` once per recovery the
  /// single-stream run fired, partitioning only that recovery, and compares
  /// the post-recovery digest and the recovery outcome's logical fields.
  FuzzVerdict CheckStreamEquivalence(const HarnessConfig& base,
                                       const HarnessReport& serial);

  Options opts_;
  FuzzStats stats_;
};

/// Result of a (possibly sharded) fuzz campaign over a contiguous seed
/// range: the first failure in *seed order* (if any) and the stats
/// accumulated over every seed up to and including the failing one.
struct FuzzCampaignResult {
  std::optional<FuzzFailure> failure;
  FuzzStats stats;
  /// One stats block per completed seed, in seed order up to and including
  /// the failing one. Merging these reproduces `stats` exactly; the
  /// campaign summary aggregates them (per-seed min/max/mean).
  std::vector<FuzzStats> per_seed;
};

/// Per-counter min/max/mean over the campaign's per-seed stats blocks:
/// {"seeds": N, "cases": {"min":..,"max":..,"mean":..}, ...}. Empty object
/// when no seed completed.
json::Value PerSeedAggregateJson(const std::vector<FuzzStats>& per_seed);

/// Runs seeds [seed_start, seed_start + seed_count) under `opts` on
/// min(jobs, seed_count) worker threads. Each seed runs in a fresh fuzzer
/// instance (a seed's outcome depends only on (seed, opts)), and results
/// are folded in seed order up to and including the first failure — so the
/// verdict, the failing seed, and the merged stats are byte-identical to a
/// serial run regardless of `jobs`.
FuzzCampaignResult RunFuzzCampaign(const CrashScheduleFuzzer::Options& opts,
                                   uint64_t seed_start, uint64_t seed_count,
                                   unsigned jobs);

}  // namespace smdb

#endif  // SMDB_FUZZ_FUZZER_H_
