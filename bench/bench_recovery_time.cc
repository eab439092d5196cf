// Experiment R1 — restart recovery cost: Redo All vs Selective Redo
// (section 4.1.2) vs the whole-machine reboot baseline.
//
// "In general, the Redo All scheme requires more redo operations to be
// performed at recovery time than does Selective Redo. However, Selective
// Redo requires slightly more runtime support [undo tagging]."
//
// Sweep the amount of work performed before the crash and report recovery
// time, redo operations applied/skipped, and pages reloaded from disk.
//
// Experiment R1b — partitioned recovery streams: sweep the
// recovery_streams knob on a multi-node crash with a redo-heavy history
// and report simulated recovery time per stream count. Partitioning the
// redo pass by page (and undo by key) keeps each stream's line traffic
// disjoint, so the line-lock grant chains and header-line transfers that
// serialise the one-stream pass fan out over the survivors' clocks. The
// streams are simulated; the pass runs on one host thread. Results (and
// speedups vs one stream) are written to BENCH_recovery_streams.json.
//
// Asserted (exit 1 otherwise), R1: at every crash size Selective Redo
// applies fewer redos than Redo All and recovers faster; R1b: the redo and
// undo counts are the same at every stream count (the work is identical,
// only its partitioning changes). For every one-stream restart of both:
// the reload phase is ceil(reload reads / survivors) disk reads long (each
// read goes to the survivor that is free first), and no stable page is
// read twice.

#include <fstream>
#include <optional>

#include "bench/bench_util.h"
#include "common/json.h"

namespace smdb::bench {
namespace {

/// The restart I/O checks on a run whose only crash produced `o`.
void CheckRestartIo(Harness& h, const RecoveryOutcome& o,
                    const std::string& what, ShapeChecks* checks) {
  Database& db = h.db();
  // RebootAll's performers are the nodes the crash spared, like every
  // scheme's; only a crash of every node recovers on all of them.
  const uint64_t nodes = db.machine().num_nodes();
  const uint64_t spared = nodes - o.crashed_nodes.size();
  const uint64_t survivors = spared == 0 ? nodes : spared;
  const uint64_t rounds = (o.pages_reloaded + survivors - 1) / survivors;
  const SimTime floor_ns = rounds * db.machine().config().timing.disk_read_ns;
  checks->Expect(
      o.phase_ns[static_cast<size_t>(RecoveryPhase::kReload)] == floor_ns,
      what + " reloads in ceil(reads / survivors) disk reads");
  // Recovery is the run's only reader of the stable database.
  const StableDb& disk = db.stable_db();
  checks->Expect(
      o.stable_reads == disk.reads() && disk.reads() == disk.pages_read(),
      what + " reads no stable page twice");
}

void Run(ShapeChecks* checks) {
  Header("Restart recovery cost: Selective Redo vs Redo All vs RebootAll",
         "section 4.1.2 (restart recovery schemes) + section 7 discussion");
  Row({"txns before crash", "protocol", "recovery time", "redo applied",
       "redo skipped", "pages reloaded", "tag undos"},
      20);
  for (uint64_t txns : {5, 15, 30, 60}) {
    std::optional<RecoveryOutcome> selective, redo_all;
    for (auto rc : {RecoveryConfig::VolatileSelectiveRedo(),
                    RecoveryConfig::VolatileRedoAll(),
                    RecoveryConfig::BaselineRebootAll()}) {
      HarnessConfig cfg = StandardConfig(rc, /*nodes=*/8, /*seed=*/300 + txns);
      cfg.num_records = 512;
      cfg.workload.txns_per_node = txns;
      cfg.workload.index_op_ratio = 0.1;
      // Crash late so most of the workload's updates are in play.
      cfg.crashes = {
          CrashPlan{txns * 8 * 8 * 3 / 4, {2}, /*restart_after=*/false}};
      Harness h(cfg);
      HarnessReport r = MustRun(h);
      if (r.recoveries.empty()) {
        Row({std::to_string(txns), rc.Name(), "(workload finished early)"},
            20);
        continue;
      }
      const RecoveryOutcome& o = r.recoveries[0];
      CheckRestartIo(h, o, rc.Name() + " at " + std::to_string(txns) +
                               " txns/node", checks);
      Row({std::to_string(txns), rc.Name(), FmtMs(o.recovery_time_ns),
           std::to_string(o.redo_applied), std::to_string(o.redo_skipped),
           std::to_string(o.pages_reloaded), std::to_string(o.tag_undos)},
          20);
      if (rc.restart == RestartKind::kSelectiveRedo) selective = o;
      if (rc.restart == RestartKind::kRedoAll) redo_all = o;
    }
    const std::string at = " at " + std::to_string(txns) + " txns/node";
    const bool both = selective && redo_all;
    checks->Expect(both && selective->redo_applied < redo_all->redo_applied,
                   "Selective Redo applies fewer redos than Redo All" + at);
    checks->Expect(
        both && selective->recovery_time_ns < redo_all->recovery_time_ns,
        "Selective Redo recovers faster than Redo All" + at);
    std::printf("\n");
  }
}

/// Redo-heavy multi-node crash workload for the streams sweep: a long
/// update-dominated history with no steal flushes, so almost all of it must
/// be redone from the logs, and a two-node crash late in the run.
HarnessConfig StreamSweepConfig(RecoveryConfig rc, uint32_t streams) {
  HarnessConfig cfg = StandardConfig(rc, /*nodes=*/8, /*seed=*/777);
  cfg.db.recovery.recovery_streams = streams;
  cfg.num_records = 256;
  cfg.workload.txns_per_node = 500;
  cfg.workload.ops_per_txn = 10;
  cfg.workload.write_ratio = 0.9;
  cfg.workload.index_op_ratio = 0.1;
  // No steal flushes: the stable database stays at its checkpoint image,
  // so every committed update must be redone from the logs — recovery is
  // redo-bound, which is the case the partitioned streams target (the page
  // reload cost is a fixed floor already spread over the survivors).
  cfg.steal_flush_prob = 0.0;
  // A two-node crash late in a long update-heavy history.
  cfg.crashes = {CrashPlan{500 * 10 * 8 * 3 / 4, {2, 3},
                           /*restart_after=*/false}};
  return cfg;
}

void RunStreamSweep(ShapeChecks* checks) {
  Header("Partitioned recovery streams: streams vs recovery time",
         "simulated survivor streams (recovery_streams knob), multi-node "
         "crash");
  Row({"protocol", "streams", "recovery time", "speedup", "redo applied",
       "tag undos"},
      20);

  json::Value doc = json::Value::Object();
  doc.Set("bench", json::Value::Str("recovery_streams"));
  doc.Set("nodes", json::Value::Uint(8));
  doc.Set("crashed_nodes", json::Value::Uint(2));
  json::Value series = json::Value::Array();

  for (auto rc : {RecoveryConfig::VolatileRedoAll(),
                  RecoveryConfig::VolatileSelectiveRedo()}) {
    std::optional<RecoveryOutcome> one_stream;
    json::Value sweep = json::Value::Array();
    for (uint32_t streams : {1u, 2u, 4u, 8u}) {
      Harness h(StreamSweepConfig(rc, streams));
      HarnessReport r = MustRun(h);
      const std::string at = " at " + std::to_string(streams) + " streams";
      if (r.recoveries.empty()) {
        checks->Expect(false, rc.Name() + " recovered" + at);
        continue;
      }
      const RecoveryOutcome& o = r.recoveries[0];
      if (streams == 1) {
        one_stream = o;
        CheckRestartIo(h, o, rc.Name() + at, checks);
      }
      const SimTime one_stream_ns =
          one_stream ? one_stream->recovery_time_ns : 0;
      double speedup = o.recovery_time_ns == 0
                           ? 0.0
                           : double(one_stream_ns) / double(o.recovery_time_ns);
      Row({rc.Name(), std::to_string(streams), FmtMs(o.recovery_time_ns),
           Fmt(speedup) + "x", std::to_string(o.redo_applied),
           std::to_string(o.tag_undos)},
          20);
      json::Value pt = json::Value::Object();
      pt.Set("streams", json::Value::Uint(streams));
      pt.Set("recovery_time_ns", json::Value::Uint(o.recovery_time_ns));
      pt.Set("speedup_vs_one_stream", json::Value::Double(speedup));
      pt.Set("redo_applied", json::Value::Uint(o.redo_applied));
      pt.Set("redo_skipped", json::Value::Uint(o.redo_skipped));
      pt.Set("undo_applied", json::Value::Uint(o.undo_applied));
      sweep.Append(std::move(pt));
      if (streams == 1) continue;
      checks->Expect(one_stream && o.redo_applied == one_stream->redo_applied &&
                         o.undo_applied == one_stream->undo_applied &&
                         o.tag_undos == one_stream->tag_undos,
                     rc.Name() + " redo/undo counts equal one stream's" + at);
    }
    json::Value entry = json::Value::Object();
    entry.Set("protocol", json::Value::Str(rc.Name()));
    entry.Set("sweep", std::move(sweep));
    series.Append(std::move(entry));
    std::printf("\n");
  }
  doc.Set("series", std::move(series));

  std::ofstream out("BENCH_recovery_streams.json");
  if (out) {
    out << doc.Dump(2) << "\n";
    std::printf("wrote BENCH_recovery_streams.json\n");
  }
}

}  // namespace
}  // namespace smdb::bench

int main() {
  smdb::bench::ShapeChecks checks("R1");
  smdb::bench::Run(&checks);
  smdb::bench::RunStreamSweep(&checks);
  return checks.ExitCode();
}
