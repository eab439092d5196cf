// Experiment S1 — log force frequency under the LBM enforcement points
// (section 5.2).
//
// Stable LBM enforced naively forces the log on EVERY update; the paper's
// proposed coherence-triggered enforcement forces only when an active line
// actually departs (downgrade/invalidate); Volatile LBM forces only at
// commit. The gap between the three — and its sensitivity to inter-node
// sharing — is the quantitative argument of section 5. Also reproduces the
// section-7 note that NVRAM logs would rehabilitate Stable LBM.
//
// Asserted (exit 1 otherwise), S1: at every shared fraction the LBM forces
// are ordered Volatile LBM (zero) < triggered Stable LBM < eager Stable LBM.

#include "bench/bench_util.h"

namespace smdb::bench {
namespace {

/// Runs one row and returns its LBM force count.
uint64_t RunOne(RecoveryConfig rc, double shared_fraction, bool nvram) {
  HarnessConfig cfg = StandardConfig(rc, /*nodes=*/8, /*seed=*/555);
  cfg.db.machine.nvram_log = nvram;
  cfg.workload.txns_per_node = 30;
  cfg.workload.shared_fraction = shared_fraction;
  cfg.workload.index_op_ratio = 0.0;
  // One heap page per node (124 slots each): the partitioned fraction of
  // the workload then shares neither record lines nor Page-LSN lines, so
  // the migration-triggered force count isolates true inter-node sharing.
  cfg.num_records = 124 * 8;
  Harness h(cfg);
  HarnessReport r = MustRun(h);
  double per_kupdate =
      r.txns.updates == 0
          ? 0.0
          : double(r.logs.lbm_forces) * 1000.0 / double(r.txns.updates);
  Row({rc.Name() + (nvram ? " +NVRAM" : ""), Fmt(shared_fraction, 1),
       std::to_string(r.logs.forces), std::to_string(r.logs.lbm_forces),
       Fmt(per_kupdate, 1), Fmt(r.throughput_tps(), 1)},
      26);
  return r.logs.lbm_forces;
}

int Run() {
  ShapeChecks checks("S1");
  Header("Log force frequency by LBM enforcement point",
         "section 5.2 (latest force points: downgrade/invalidation of active "
         "lines) and section 7 (NVRAM note)");
  Row({"protocol", "shared frac", "total forces", "LBM forces",
       "LBM forces/1k upd", "txn/sim-s"},
      26);
  for (double shared : {0.1, 0.5, 1.0}) {
    uint64_t volatile_lbm =
        RunOne(RecoveryConfig::VolatileSelectiveRedo(), shared, false);
    uint64_t triggered =
        RunOne(RecoveryConfig::StableTriggeredRedoAll(), shared, false);
    uint64_t eager =
        RunOne(RecoveryConfig::StableEagerRedoAll(), shared, false);
    checks.Expect(volatile_lbm == 0 && volatile_lbm < triggered &&
                      triggered < eager,
                  "LBM forces volatile (" + std::to_string(volatile_lbm) +
                      ") < triggered (" + std::to_string(triggered) +
                      ") < eager (" + std::to_string(eager) +
                      ") at shared fraction " + Fmt(shared, 1));
    std::printf("\n");
  }
  std::printf("NVRAM log device (section 7: cheap forces):\n");
  RunOne(RecoveryConfig::StableEagerRedoAll(), 1.0, true);
  RunOne(RecoveryConfig::StableTriggeredRedoAll(), 1.0, true);
  return checks.ExitCode();
}

}  // namespace
}  // namespace smdb::bench

int main() { return smdb::bench::Run(); }
