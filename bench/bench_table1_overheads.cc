// Experiment T1 — Table 1: "Overheads of Protocols which Ensure IFA".
//
// The paper's table is qualitative: which incremental overheads (beyond
// plain failure atomicity) each protocol pays during normal operation.
// This driver reproduces the check-mark matrix *and* quantifies each cell by
// running an identical workload under every protocol and measuring:
//   * early commits of structural changes (logged, forced nested top-level
//     actions at splits; the FA-only baseline's synchronous split-page
//     flushes are not early commits),
//   * logical logging of read locks,
//   * undo tag writes,
//   * LBM-attributable log forces (the Stable LBM "higher frequency").
//
// Asserted (exit 1 otherwise), T1: every cell is > 0 where the paper has a
// check mark and 0 where it has "-"; the FA-only baseline pays none.

#include <array>

#include "bench/bench_util.h"

namespace smdb::bench {
namespace {

struct Measured {
  std::string name;
  uint64_t early_commits = 0;
  uint64_t read_lock_records = 0;
  uint64_t tag_writes = 0;
  uint64_t lbm_forces = 0;
  uint64_t commits = 0;
  double tps = 0;
};

Measured RunOne(RecoveryConfig rc) {
  HarnessConfig cfg = StandardConfig(rc, /*nodes=*/8, /*seed=*/77);
  cfg.workload.index_op_ratio = 0.3;  // exercise structural changes
  cfg.workload.txns_per_node = 40;
  Harness h(cfg);
  HarnessReport r = MustRun(h);

  Measured m;
  m.name = rc.Name();
  m.early_commits = r.btree.early_commits;
  m.tag_writes = r.txns.undo_tag_writes;
  m.lbm_forces = r.logs.lbm_forces;
  m.commits = r.exec.committed;
  m.tps = r.throughput_tps();
  // Count logical *read*-lock (shared acquire) records across all logs.
  for (NodeId n = 0; n < cfg.db.machine.num_nodes; ++n) {
    h.db().log().ForEachAll(n, [&](const LogRecord& rec) {
      if (rec.type == LogRecordType::kLockOp &&
          rec.lock_op().mode == LockMode::kShared &&
          rec.lock_op().op == LockOpPayload::Op::kAcquire) {
        ++m.read_lock_records;
      }
    });
  }
  return m;
}

std::string Check(uint64_t v) {
  return v > 0 ? ("YES (" + std::to_string(v) + ")") : "no (0)";
}

/// One row of the paper's matrix: whether each column of Run's `results`
/// pays the overhead.
struct Overhead {
  const char* name;
  uint64_t Measured::*count;
  std::array<bool, 4> paid;
};

constexpr Overhead kOverheads[] = {
    {"early commit structural", &Measured::early_commits,
     {true, true, true, false}},
    {"read-lock logging", &Measured::read_lock_records,
     {true, true, true, false}},
    {"undo tagging", &Measured::tag_writes, {false, true, false, false}},
    {"extra (LBM) log forces", &Measured::lbm_forces,
     {true, false, false, false}},
};

int Run() {
  ShapeChecks checks("T1");
  Header("Table 1: incremental overheads of the IFA protocols",
         "Table 1 (rows: early commit of structural changes, logging of "
         "read locks, undo tagging, higher frequency of log forces)");

  std::vector<Measured> results;
  // Paper columns: Stable LBM | Volatile LBM w/Selective Redo |
  // Volatile LBM w/Redo All. A no-IFA baseline anchors the comparison.
  for (auto rc :
       {RecoveryConfig::StableTriggeredRedoAll(),
        RecoveryConfig::VolatileSelectiveRedo(),
        RecoveryConfig::VolatileRedoAll(),
        RecoveryConfig::BaselineRebootAll()}) {
    results.push_back(RunOne(rc));
  }

  Row({"overhead \\ protocol", results[0].name, results[1].name,
       results[2].name, results[3].name + " (FA-only)"},
      30);
  for (const Overhead& o : kOverheads) {
    std::vector<std::string> cells = {o.name};
    for (const Measured& m : results) cells.push_back(Check(m.*o.count));
    Row(cells, 30);
  }
  Row({"committed txns", std::to_string(results[0].commits),
       std::to_string(results[1].commits), std::to_string(results[2].commits),
       std::to_string(results[3].commits)},
      30);
  Row({"throughput (txn/sim-s)", Fmt(results[0].tps), Fmt(results[1].tps),
       Fmt(results[2].tps), Fmt(results[3].tps)},
      30);

  std::printf(
      "\npaper's matrix: all three IFA protocols pay early-commit +"
      " read-lock logging;\nonly Selective Redo pays undo tagging; only"
      " Stable LBM pays extra log forces.\nThe FA-only baseline pays none"
      " of them (and provides no IFA).\n\n");
  for (const Overhead& o : kOverheads) {
    for (size_t c = 0; c < results.size(); ++c) {
      const uint64_t v = results[c].*o.count;
      checks.Expect(o.paid[c] ? v > 0 : v == 0,
                    results[c].name + " " + o.name +
                        (o.paid[c] ? " > 0" : " == 0"));
    }
  }
  return checks.ExitCode();
}

}  // namespace
}  // namespace smdb::bench

int main() { return smdb::bench::Run(); }
