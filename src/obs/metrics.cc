#include "obs/metrics.h"

#include "core/recovery.h"
#include "obs/trace.h"
#include "workload/harness.h"

namespace smdb {

MetricsRegistry MetricsRegistry::FromReport(const HarnessReport& report) {
  MetricsRegistry reg;
  auto add_prefixed = [&reg](const char* prefix) {
    return [&reg, prefix](const auto& name, uint64_t value) {
      reg.Add(std::string(prefix) + name, value);
    };
  };
  ForEachCounter(report.machine, add_prefixed("machine."));
  ForEachCounter(report.logs, add_prefixed("wal."));
  report.gc.ForEachCounter(add_prefixed("group_commit."));
  report.txns.ForEachCounter(add_prefixed("txn."));
  report.locks.ForEachCounter(add_prefixed("locks."));
  report.checkpoint.ForEachCounter(add_prefixed("checkpoint."));

  reg.Add("btree.inserts", report.btree.inserts);
  reg.Add("btree.deletes", report.btree.deletes);
  reg.Add("btree.lookups", report.btree.lookups);
  reg.Add("btree.splits", report.btree.splits);
  reg.Add("btree.early_commits", report.btree.early_commits);
  reg.Add("btree.split_page_flushes", report.btree.split_page_flushes);
  reg.Add("btree.purged_tombstones", report.btree.purged_tombstones);

  reg.Add("exec.committed", report.exec.committed);
  reg.Add("exec.aborted_deadlock", report.exec.aborted_deadlock);
  reg.Add("exec.aborted_other", report.exec.aborted_other);
  reg.Add("exec.retries", report.exec.retries);
  reg.Add("exec.ops_executed", report.exec.ops_executed);
  reg.Add("exec.lock_waits", report.exec.lock_waits);
  reg.Add("exec.commit_waits", report.exec.commit_waits);

  reg.Add("disk.reads", report.disk_reads);
  reg.Add("disk.writes", report.disk_writes);
  reg.Add("run.steps", report.steps);
  reg.Add("run.total_time_ns", report.total_time_ns);
  reg.AddDouble("run.throughput_tps", report.throughput_tps());
  reg.Add("run.unnecessary_aborts", report.unnecessary_aborts());

  if (report.latency.enabled) {
    auto add_hist = [&reg](const std::string& prefix, const Histogram& h) {
      reg.Add(prefix + ".count", h.count());
      reg.AddDouble(prefix + ".mean_ns", h.Mean());
      reg.Add(prefix + ".p50_ns", h.P50());
      reg.Add(prefix + ".p90_ns", h.P90());
      reg.Add(prefix + ".p99_ns", h.P99());
      reg.Add(prefix + ".p999_ns", h.P999());
      reg.Add(prefix + ".max_ns", h.max());
    };
    add_hist("latency.commit", report.latency.commit_latency);
    add_hist("latency.abort", report.latency.abort_latency);
    add_hist("latency.lock_wait", report.latency.lock_wait);
    add_hist("latency.gc_residency", report.latency.gc_residency);
    add_hist("latency.commit_steady", report.latency.commit_steady);
    add_hist("latency.commit_through_crash",
             report.latency.commit_through_crash);

    const auto& crashes = report.latency.availability.crashes;
    reg.Add("availability.crashes", crashes.size());
    for (size_t i = 0; i < crashes.size(); ++i) {
      const CrashAvailability& c = crashes[i];
      const std::string p = "availability." + std::to_string(i) + ".";
      reg.Add(p + "crash_ts_ns", c.crash_ts);
      reg.Add(p + "recovery_end_ts_ns", c.recovery_end_ts);
      reg.Add(p + "ttfc_ns", c.ttfc_ns());
      reg.AddDouble(p + "steady_tps", c.steady_tps);
      reg.AddDouble(p + "trough_depth_pct", c.depth_pct);
      reg.Add(p + "trough_duration_ns", c.trough_duration_ns);
    }

    const auto& contended = report.latency.top_contended;
    reg.Add("locks.contention.count", contended.size());
    for (size_t i = 0; i < contended.size(); ++i) {
      const LockContentionEntry& e = contended[i];
      const std::string p = "locks.contention." + std::to_string(i) + ".";
      reg.Add(p + "name", e.name);
      reg.Add(p + "waits", e.waits);
      reg.Add(p + "total_wait_ns", e.total_wait_ns);
      reg.Add(p + "max_wait_ns", e.max_wait_ns);
    }
  }

  reg.Add("recovery.count", report.recoveries.size());
  for (size_t i = 0; i < report.recoveries.size(); ++i) {
    const RecoveryOutcome& r = report.recoveries[i];
    const std::string p = "recovery." + std::to_string(i) + ".";
    reg.Add(p + "crashed_nodes", r.crashed_nodes.size());
    reg.Add(p + "annulled", r.annulled.size());
    reg.Add(p + "preserved", r.preserved.size());
    reg.Add(p + "forced_aborts", r.forced_aborts.size());
    reg.Add(p + "redo_applied", r.redo_applied);
    reg.Add(p + "redo_skipped", r.redo_skipped);
    reg.Add(p + "undo_applied", r.undo_applied);
    reg.Add(p + "pages_reloaded", r.pages_reloaded);
    reg.Add(p + "lines_reinstalled", r.lines_reinstalled);
    reg.Add(p + "stable_reads", r.stable_reads);
    reg.Add(p + "lcb_lines_cleared", r.lcb_lines_cleared);
    reg.Add(p + "lcbs_rebuilt", r.lcbs_rebuilt);
    reg.Add(p + "locks_dropped", r.locks_dropped);
    reg.Add(p + "tags_scanned", r.tags_scanned);
    reg.Add(p + "tag_undos", r.tag_undos);
    reg.Add(p + "recovery_time_ns", r.recovery_time_ns);
    reg.Add(p + "whole_machine_restart", r.whole_machine_restart ? 1 : 0);
    for (size_t ph = 0; ph < kNumRecoveryPhases; ++ph) {
      reg.Add(p + "phase." +
                  RecoveryPhaseName(static_cast<RecoveryPhase>(ph)) + "_ns",
              r.phase_ns[ph]);
    }
  }
  return reg;
}

void MetricsRegistry::AddTrace(const TraceRecorder& tracer) {
  Add("trace.recorded", tracer.total_recorded());
  Add("trace.dropped", tracer.total_dropped());
}

json::Value MetricsRegistry::ToJson() const {
  json::Value obj = json::Value::Object();
  for (const auto& [name, value] : entries_) {
    obj.Set(name, value);
  }
  return obj;
}

}  // namespace smdb
