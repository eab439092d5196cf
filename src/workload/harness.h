#ifndef SMDB_WORKLOAD_HARNESS_H_
#define SMDB_WORKLOAD_HARNESS_H_

#include <memory>
#include <vector>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/recovery.h"
#include "core/state_digest.h"
#include "txn/executor.h"
#include "workload/workload.h"

namespace smdb {

struct HarnessConfig {
  DatabaseConfig db;
  WorkloadSpec workload;
  size_t num_records = 256;
  std::vector<CrashPlan> crashes;
  /// Probability per step that the steal daemon flushes one dirty page.
  double steal_flush_prob = 0.0;
  /// Take a checkpoint every N steps (0 = only the initial one).
  uint64_t checkpoint_every_steps = 0;
  uint64_t max_steps = 10'000'000;
  /// Verify IFA (oracle comparison) after every recovery and at the end.
  bool verify = true;
  uint64_t seed = 99;
  /// How the executor interleaves node steps.
  SchedulePolicy schedule = SchedulePolicy::kTimeOrdered;
  /// Snapshot a StateDigest right after each recovery (before verification
  /// and any node restart) into HarnessReport::digests. The differential
  /// recovery-stream oracle compares these across stream counts.
  bool capture_digests = false;
  /// On-demand recovery only: drain every lazy obligation right after the
  /// crash-time prefix returns, before digests, verification, and restart.
  /// Collapses the Recovering window to nothing — the run becomes
  /// step-by-step comparable with an eager run (the differential tests'
  /// mode). Off = obligations discharge on first touch / via the sweeper.
  bool drain_recovery_immediately = false;
  /// On-demand recovery only: background-sweeper budget — discharge up to
  /// this many pending objects after every workload step while the
  /// Recovering state is active (0 = no sweeping; first touch and the
  /// final drain do all the work).
  int pump_recovery_per_step = 0;
  /// Element i overrides recovery_streams for the i-th *fired* recovery
  /// (skipped crash plans don't consume an entry). Recoveries beyond the
  /// vector keep the config's value. Lets the equivalence tests partition
  /// exactly one recovery of a multi-crash schedule while every other
  /// recovery stays single-stream, so earlier digests are comparable one
  /// by one.
  std::vector<uint32_t> recovery_stream_overrides;
};

/// A crash plan that never fired, and why. The fuzzer needs this to tell
/// "the protocol survived this crash" apart from "the crash never happened".
struct SkippedCrash {
  enum class Reason : uint8_t {
    /// Every node the plan names was already dead when it came due.
    kTargetsAlreadyDead,
    /// The workload drained (or max_steps hit) before the plan's step.
    kNeverReached,
  };
  /// Index into the (sorted-by-step) crash plan list.
  size_t plan_index = 0;
  CrashPlan plan;
  Reason reason = Reason::kNeverReached;
};

struct HarnessReport {
  ExecutorStats exec;
  /// One closed outcome per fired crash, in crash order: an on-demand
  /// recovery's counts include everything its Recovering window
  /// discharged after the crash.
  std::vector<RecoveryOutcome> recoveries;
  /// One digest per fired recovery when capture_digests is set (index i
  /// matches recoveries[i]), plus one final end-of-run digest.
  std::vector<StateDigest> digests;
  std::vector<SkippedCrash> skipped_crashes;
  MachineStats machine;
  LogStats logs;
  TxnManagerStats txns;
  LockTableStats locks;
  BTreeStats btree;
  /// Zero when the group-commit pipeline is off.
  GroupCommitPipeline::Stats gc;
  /// Every checkpoint of the run, the set-up one included.
  CheckpointStats checkpoint;
  /// Observatory snapshot; enabled=false (and otherwise empty) unless
  /// DatabaseConfig::obs.latency was set.
  LatencyReport latency;
  /// Profiler snapshot; enabled=false (and otherwise empty) unless
  /// DatabaseConfig::obs.profile was set.
  ProfilerReport profile;
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t steps = 0;
  SimTime total_time_ns = 0;
  Status verify_status;

  /// Committed transactions per simulated second.
  double throughput_tps() const {
    return total_time_ns == 0
               ? 0.0
               : double(exec.committed) * 1e9 / double(total_time_ns);
  }
  /// Surviving-node transactions aborted by recovery across all crashes
  /// (the paper's "unnecessary aborts"; 0 under IFA).
  uint64_t unnecessary_aborts() const {
    uint64_t n = 0;
    for (const auto& r : recoveries) n += r.forced_aborts.size();
    return n;
  }
};

/// End-to-end driver: builds a Database, registers the IFA oracle, runs a
/// generated workload under a deterministic interleaving, injects crashes
/// per plan, runs recovery, verifies IFA, and aggregates every subsystem's
/// statistics. All experiments and most integration tests go through here.
class Harness {
 public:
  explicit Harness(HarnessConfig config);
  ~Harness();

  /// Builds the database and enqueues the workload (idempotent; Run calls
  /// it if needed).
  Status Setup();

  Result<HarnessReport> Run();

  Database& db() { return *db_; }
  IfaChecker& checker() { return *checker_; }
  SystemExecutor& executor() { return *exec_; }
  const std::vector<RecordId>& table() const { return table_; }

 private:
  Status StealFlushOne();
  /// Copies every subsystem's statistics into the report. Called on both
  /// the normal exit and the verification-failure exit, so a failing run
  /// still carries full diagnostics.
  void FillReport(HarnessReport* report);

  HarnessConfig config_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<IfaChecker> checker_;
  std::unique_ptr<SystemExecutor> exec_;
  std::vector<RecordId> table_;
  /// Each recovery's closed ledger, in crash order (the close hook's).
  std::vector<RecoveryOutcome> closed_;
  Rng rng_;
  bool setup_done_ = false;
};

}  // namespace smdb

#endif  // SMDB_WORKLOAD_HARNESS_H_
