// Experiment A1 — unnecessary transaction aborts (sections 1, 3.3, 9).
//
// The paper's motivating claim: without IFA, the crash of ONE node aborts
// (or loses) every active transaction in the machine — catastrophic on a
// large multiprocessor (the KSR-1 scales to 1,088 nodes). This driver
// crashes one node mid-workload and counts surviving-node transactions
// aborted by each recovery discipline, sweeping machine size.
//
// Asserted (exit 1 otherwise), A1: both IFA protocols recover and abort no
// surviving transaction at every machine size.

#include "bench/bench_util.h"

namespace smdb::bench {
namespace {

struct Point {
  bool recovered;
  uint64_t active_at_crash;
  uint64_t unnecessary_aborts;
  bool whole_machine;
};

Point RunOne(RecoveryConfig rc, uint16_t nodes, uint64_t seed) {
  HarnessConfig cfg = StandardConfig(rc, nodes, seed);
  cfg.num_records = 64 * nodes;  // keep per-node contention comparable
  cfg.workload.txns_per_node = 12;
  cfg.workload.write_ratio = 0.7;
  cfg.crashes = {CrashPlan{uint64_t(nodes) * 20, {0}, false}};
  Harness h(cfg);
  HarnessReport r = MustRun(h);
  Point p{};
  if (!r.recoveries.empty()) {
    const RecoveryOutcome& o = r.recoveries[0];
    p.recovered = true;
    p.active_at_crash = o.annulled.size() + o.preserved.size() +
                        o.forced_aborts.size();
    p.unnecessary_aborts = o.forced_aborts.size();
    p.whole_machine = o.whole_machine_restart;
  }
  return p;
}

int Run() {
  ShapeChecks checks("A1");
  Header("Unnecessary aborts after a single node crash vs machine size",
         "sections 1/3.3/9 (motivation: without IFA one crash aborts ALL "
         "active transactions; IFA aborts none)");
  Row({"nodes", "protocol", "active@crash", "unnecessary aborts",
       "whole reboot"});
  for (uint16_t nodes : {4, 8, 16, 32, 64}) {
    for (auto rc : {RecoveryConfig::BaselineRebootAll(),
                    RecoveryConfig::BaselineAbortDependents(),
                    RecoveryConfig::VolatileSelectiveRedo(),
                    RecoveryConfig::VolatileRedoAll()}) {
      Point p = RunOne(rc, nodes, 1000 + nodes);
      Row({std::to_string(nodes), rc.Name(), std::to_string(p.active_at_crash),
           std::to_string(p.unnecessary_aborts), p.whole_machine ? "YES" : "no"});
      if (rc.ensures_ifa()) {
        checks.Expect(p.recovered && p.unnecessary_aborts == 0,
                      rc.Name() + " makes 0 unnecessary aborts at " +
                          std::to_string(nodes) + " nodes");
      }
    }
    std::printf("\n");
  }
  return checks.ExitCode();
}

}  // namespace
}  // namespace smdb::bench

int main() { return smdb::bench::Run(); }
