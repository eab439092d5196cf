// Experiment X2 — write-broadcast coherence (footnote 2, section 7).
//
// "Under a write-broadcast cache coherency protocol ... the last node to
// update a cache line [does not hold] an exclusive copy — both nodes would
// end up with a copy. In general, a write-broadcast protocol does not
// require redo — only undo would be required at restart recovery. Thus ...
// the Selective Redo scheme would be the best choice."
//
// Asserted (exit 1 otherwise), X2: no line migrates under write-broadcast.

#include "bench/bench_util.h"

namespace smdb::bench {
namespace {

/// Runs one row and returns its migration count.
uint64_t RunOne(CoherenceKind kind, RecoveryConfig rc) {
  HarnessConfig cfg = StandardConfig(rc, /*nodes=*/8, /*seed=*/777);
  cfg.db.machine.coherence = kind;
  cfg.workload.txns_per_node = 25;
  cfg.workload.write_ratio = 0.7;
  cfg.crashes = {CrashPlan{600, {2}, false}};
  Harness h(cfg);
  HarnessReport r = MustRun(h);
  uint64_t redo = 0, undo = 0;
  SimTime rt = 0;
  if (!r.recoveries.empty()) {
    redo = r.recoveries[0].redo_applied;
    undo = r.recoveries[0].undo_applied + r.recoveries[0].tag_undos;
    rt = r.recoveries[0].recovery_time_ns;
  }
  Row({kind == CoherenceKind::kWriteInvalidate ? "write-invalidate"
                                               : "write-broadcast",
       rc.Name(), std::to_string(r.machine.migrations),
       std::to_string(r.machine.broadcast_updates),
       std::to_string(r.machine.lines_lost), std::to_string(redo),
       std::to_string(undo), FmtMs(rt)},
      22);
  return r.machine.migrations;
}

int Run() {
  ShapeChecks checks("X2");
  Header("Write-invalidate vs write-broadcast coherence",
         "footnote 2 + section 7 (write-broadcast needs essentially no redo; "
         "Selective Redo is the natural scheme)");
  Row({"coherence", "protocol", "migrations", "bcast updates", "lines lost",
       "redo applied", "undos", "recovery time"},
      22);
  for (auto kind :
       {CoherenceKind::kWriteInvalidate, CoherenceKind::kWriteBroadcast}) {
    for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                    RecoveryConfig::VolatileRedoAll()}) {
      uint64_t migrations = RunOne(kind, rc);
      if (kind == CoherenceKind::kWriteBroadcast) {
        checks.Expect(migrations == 0,
                      rc.Name() + " makes 0 migrations under write-broadcast");
      }
    }
    std::printf("\n");
  }
  return checks.ExitCode();
}

}  // namespace
}  // namespace smdb::bench

int main() { return smdb::bench::Run(); }
