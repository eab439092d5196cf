// Experiment F2 — figure 2's two crash cases, replayed under every
// protocol.
//
// Setup (sections 3.1/4.1.1): records r1, r2 share a cache line l; t_x on
// node x updates r1; t_y on node y updates r2; l's only copy now lives on
// y. Case 1: x crashes (t_x's migrated update must be undone). Case 2: y
// crashes (t_x's update must be redone, t_y's undone). The driver reports
// what each recovery scheme did.
//
// Asserted (exit 1 otherwise): every IFA protocol's row reads "IFA OK" in
// both cases. The baselines restore consistency by aborting surviving work
// or rebooting the machine, so their verdict is only reported.

#include "bench/bench_util.h"
#include "core/ifa_checker.h"

namespace smdb::bench {
namespace {

/// Runs one row and returns whether the IFA checker passed.
bool RunCase(RecoveryConfig rc, int which_case) {
  DatabaseConfig dc;
  dc.machine.num_nodes = 4;
  dc.recovery = rc;
  Database db(dc);
  IfaChecker checker(&db);
  db.txn().AddObserver(&checker);
  auto table = db.CreateTable(8);
  if (!table.ok()) std::abort();
  checker.RegisterTable(*table);
  (void)db.Checkpoint(0);

  std::vector<uint8_t> va(22, 0xAA), vb(22, 0xBB);
  Transaction* tx = db.txn().Begin(0);
  Transaction* ty = db.txn().Begin(1);
  (void)db.txn().Update(tx, (*table)[0], va);
  (void)db.txn().Update(ty, (*table)[1], vb);

  NodeId victim = which_case == 1 ? 0 : 1;
  auto outcome = db.Crash({victim});
  if (!outcome.ok()) std::abort();
  Status ok = checker.VerifyAll();
  Row({"case " + std::to_string(which_case), rc.Name(),
       std::to_string(outcome->redo_applied),
       std::to_string(outcome->undo_applied),
       std::to_string(outcome->tag_undos), FmtUs(outcome->recovery_time_ns),
       ok.ok() ? "IFA OK" : ok.ToString()},
      24);
  return ok.ok();
}

int Run() {
  ShapeChecks checks("F2");
  Header("Figure 2 crash cases under each recovery protocol",
         "figure 2 + section 4.1.1 (case 1: updater node crashes; case 2: "
         "holder node crashes)");
  Row({"case", "protocol", "redo", "undo", "tag undos", "recovery time",
       "verdict"},
      24);
  std::vector<RecoveryConfig> all = {
      RecoveryConfig::VolatileSelectiveRedo(),
      RecoveryConfig::VolatileRedoAll(),
      RecoveryConfig::StableEagerRedoAll(),
      RecoveryConfig::StableTriggeredRedoAll(),
      RecoveryConfig::StableTriggeredSelectiveRedo(),
      RecoveryConfig::BaselineRebootAll(),
      RecoveryConfig::BaselineAbortDependents(),
  };
  for (int c : {1, 2}) {
    for (const auto& rc : all) {
      bool ifa_ok = RunCase(rc, c);
      if (rc.ensures_ifa()) {
        checks.Expect(ifa_ok, rc.Name() + " reads IFA OK in case " +
                                  std::to_string(c));
      }
    }
    std::printf("\n");
  }
  return checks.ExitCode();
}

}  // namespace
}  // namespace smdb::bench

int main() { return smdb::bench::Run(); }
