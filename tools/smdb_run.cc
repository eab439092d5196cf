// smdb_run — command-line experiment runner: assemble any workload/crash
// configuration from flags, run it on the simulator, and print the report.
//
// Examples:
//   smdb_run --nodes=8 --protocol=volatile-selective --txns=50
//   smdb_run --nodes=16 --protocol=reboot-all --crash=200:3 --crash=500:7
//   smdb_run --nodes=8 --coherence=broadcast --zipf=0.9 --write-ratio=0.8

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "obs/metrics.h"
#include "workload/harness.h"

namespace smdb {
namespace {

struct Flags {
  HarnessConfig cfg;
  bool verbose = false;
  std::string trace_out;    // Chrome trace-event file ("" = no trace)
  std::string stats_json;   // unified metrics snapshot ("" = none)
  std::string latency_json; // observatory export ("" = none)
  std::string profile_out;  // profiler JSON (+ .collapsed) ("" = none)
};

void Usage() {
  std::printf(
      "usage: smdb_run [flags]\n"
      "  --nodes=N                machine size (default 8, max 64)\n"
      "  --protocol=P             volatile-selective | volatile-redoall |\n"
      "                           stable-eager | stable-triggered |\n"
      "                           stable-triggered-selective | reboot-all |\n"
      "                           abort-dependents\n"
      "  --coherence=K            invalidate (default) | broadcast\n"
      "  --records=N              heap table size (default 256)\n"
      "  --record-bytes=N         record payload size (default 22)\n"
      "  --txns=N                 transactions per node (default 25)\n"
      "  --ops=N                  operations per transaction (default 8)\n"
      "  --write-ratio=F          update fraction of record ops (default .5)\n"
      "  --index-ratio=F          index-op fraction (default 0)\n"
      "  --dirty-read-ratio=F     browse-mode read fraction (default 0)\n"
      "  --zipf=F                 record skew theta (default 0)\n"
      "  --shared=F               shared (vs partitioned) fraction "
      "(default 1)\n"
      "  --abort-ratio=F          voluntary abort fraction (default 0)\n"
      "  --crash=STEP:NODES[:r]   crash NODES (one id or a comma list,\n"
      "                           e.g. 200:2,3) before step STEP\n"
      "                           (repeatable; ':r' restarts them)\n"
      "  --steal=F                per-step steal flush probability\n"
      "  --checkpoint-every=N     steps between checkpoints (default 0)\n"
      "  --recovery-streams=N     simulated survivor streams for restart\n"
      "                           recovery (default 1)\n"
      "  --on-demand-recovery     instant recovery: run only the eager\n"
      "                           crash-time prefix, serve traffic in the\n"
      "                           Recovering state, discharge obligations\n"
      "                           on first touch / via the sweeper\n"
      "  --pump-recovery=N        sweeper budget: discharge up to N pending\n"
      "                           objects per workload step (default 1\n"
      "                           when --on-demand-recovery is set)\n"
      "  --group-commit           coalesce commit + eager-LBM forces into\n"
      "                           batched appends (ack after the force)\n"
      "  --group-commit-window=NS coalescing window in sim-ns\n"
      "  --group-commit-max-batch=N  batch size bound\n"
      "  --nvram                  NVRAM log device (cheap forces)\n"
      "  --two-line-lcb           split LCBs over two cache lines\n"
      "  --schedule=S             time (default: step the node with the\n"
      "                           smallest clock; waiters sleep) | uniform\n"
      "                           (random pick, waiters poll)\n"
      "  --seed=N                 workload seed (default 42)\n"
      "  --trace-out=PATH         record event traces and write a Chrome\n"
      "                           trace-event file (chrome://tracing)\n"
      "  --trace-capacity=N       per-node trace ring capacity (default "
      "4096)\n"
      "  --stats-json=PATH        write the unified metrics snapshot\n"
      "  --latency-json=PATH      enable the latency observatory and write\n"
      "                           its full export (histograms, windowed\n"
      "                           series, availability timeline)\n"
      "  --obs                    enable the observatory without the JSON\n"
      "                           export (percentiles land in --stats-json)\n"
      "  --obs-window=NS          time-series window in sim-ns (default "
      "50000)\n"
      "  --obs-influence=NS       post-recovery span still counted as\n"
      "                           through-crash (default 200000)\n"
      "  --obs-top-contended=N    lock-contention profile size (default 8)\n"
      "  --profile-out=PATH       enable the execution/recovery profiler\n"
      "                           and write its JSON export (sim-time phase\n"
      "                           costs) plus PATH.collapsed, a\n"
      "                           flamegraph.pl-compatible collapsed stack\n"
      "  --verbose                dump per-subsystem statistics\n");
}

/// Parses `--crash`'s STEP:NODE[,NODE...][:r].
bool ParseCrash(const std::string& val, CrashPlan* plan) {
  size_t colon = val.find(':');
  if (colon == std::string::npos) return false;
  if (!ParseUint(val.substr(0, colon), &plan->at_step)) return false;
  std::string rest = val.substr(colon + 1);
  size_t colon2 = rest.find(':');
  if (colon2 != std::string::npos) {
    if (rest.substr(colon2 + 1) != "r") return false;
    plan->restart_after = true;
    rest.resize(colon2);
  }
  size_t pos = 0;
  while (true) {
    size_t comma = rest.find(',', pos);
    NodeId node = 0;
    if (!ParseUint(rest.substr(pos, comma - pos), &node)) return false;
    plan->nodes.push_back(node);
    if (comma == std::string::npos) return true;
    pos = comma + 1;
  }
}

bool ParseFlag(Flags& f, const std::string& arg) {
  auto eq = arg.find('=');
  std::string key = arg.substr(0, eq);
  std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
  HarnessConfig& cfg = f.cfg;
  if (key == "--nodes") {
    uint16_t nodes = 0;
    if (!ParseUint(val, &nodes) || nodes == 0 || nodes > kMaxNodes) {
      return false;
    }
    cfg.db.machine.num_nodes = nodes;
  } else if (key == "--protocol") {
    return RecoveryConfig::FromFlagName(val, &cfg.db.recovery);
  } else if (key == "--coherence") {
    if (val == "broadcast") {
      cfg.db.machine.coherence = CoherenceKind::kWriteBroadcast;
    } else if (val != "invalidate") {
      return false;
    }
  } else if (key == "--records") {
    return ParseUint(val, &cfg.num_records);
  } else if (key == "--record-bytes") {
    return ParseUint(val, &cfg.db.record_data_size);
  } else if (key == "--txns") {
    return ParseUint(val, &cfg.workload.txns_per_node);
  } else if (key == "--ops") {
    return ParseUint(val, &cfg.workload.ops_per_txn);
  } else if (key == "--write-ratio") {
    return ParseDouble(val, &cfg.workload.write_ratio);
  } else if (key == "--index-ratio") {
    return ParseDouble(val, &cfg.workload.index_op_ratio);
  } else if (key == "--dirty-read-ratio") {
    return ParseDouble(val, &cfg.workload.dirty_read_ratio);
  } else if (key == "--zipf") {
    return ParseDouble(val, &cfg.workload.zipf_theta);
  } else if (key == "--shared") {
    return ParseDouble(val, &cfg.workload.shared_fraction);
  } else if (key == "--abort-ratio") {
    return ParseDouble(val, &cfg.workload.voluntary_abort_ratio);
  } else if (key == "--crash") {
    CrashPlan plan;
    if (!ParseCrash(val, &plan)) return false;
    cfg.crashes.push_back(plan);
  } else if (key == "--steal") {
    return ParseDouble(val, &cfg.steal_flush_prob);
  } else if (key == "--checkpoint-every") {
    return ParseUint(val, &cfg.checkpoint_every_steps);
  } else if (key == "--recovery-streams") {
    uint32_t streams = 0;
    if (!ParseUint(val, &streams) || streams == 0) return false;
    cfg.db.recovery.recovery_streams = streams;
  } else if (key == "--on-demand-recovery") {
    cfg.db.recovery.on_demand = true;
    if (cfg.pump_recovery_per_step == 0) cfg.pump_recovery_per_step = 1;
  } else if (key == "--pump-recovery") {
    return ParseUint(val, &cfg.pump_recovery_per_step);
  } else if (key == "--group-commit") {
    cfg.db.recovery.group_commit = true;
  } else if (key == "--group-commit-window") {
    cfg.db.recovery.group_commit = true;
    return ParseUint(val, &cfg.db.recovery.group_commit_window_ns);
  } else if (key == "--group-commit-max-batch") {
    cfg.db.recovery.group_commit = true;
    return ParseUint(val, &cfg.db.recovery.group_commit_max_batch);
  } else if (key == "--nvram") {
    cfg.db.machine.nvram_log = true;
  } else if (key == "--two-line-lcb") {
    cfg.db.lock_table.two_line_lcb = true;
  } else if (key == "--schedule") {
    std::optional<SchedulePolicy> p = ParseSchedulePolicy(val);
    if (!p) return false;
    cfg.schedule = *p;
  } else if (key == "--seed") {
    if (!ParseUint(val, &cfg.workload.seed)) return false;
    cfg.seed = cfg.workload.seed ^ 0xBEEF;
  } else if (key == "--trace-out") {
    if (val.empty()) return false;
    f.trace_out = val;
    cfg.db.obs.trace = true;
  } else if (key == "--trace-capacity") {
    return ParseUint(val, &cfg.db.obs.trace_capacity_per_node);
  } else if (key == "--stats-json") {
    if (val.empty()) return false;
    f.stats_json = val;
  } else if (key == "--latency-json") {
    if (val.empty()) return false;
    f.latency_json = val;
    cfg.db.obs.latency = true;
  } else if (key == "--obs") {
    cfg.db.obs.latency = true;
  } else if (key == "--obs-window") {
    cfg.db.obs.latency = true;
    return ParseUint(val, &cfg.db.obs.window_ns);
  } else if (key == "--obs-influence") {
    cfg.db.obs.latency = true;
    return ParseUint(val, &cfg.db.obs.crash_influence_ns);
  } else if (key == "--obs-top-contended") {
    cfg.db.obs.latency = true;
    return ParseUint(val, &cfg.db.obs.top_contended);
  } else if (key == "--profile-out") {
    if (val.empty()) return false;
    f.profile_out = val;
    cfg.db.obs.profile = true;
  } else if (key == "--verbose") {
    f.verbose = true;
  } else {
    return false;
  }
  return true;
}

/// Every crashed node must exist. Checked once all flags are in, since
/// --crash may come before --nodes.
bool CrashNodesExist(const HarnessConfig& cfg) {
  for (const CrashPlan& plan : cfg.crashes) {
    for (NodeId n : plan.nodes) {
      if (n >= cfg.db.machine.num_nodes) return false;
    }
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content << "\n";
  return true;
}

int Run(const Flags& flags) {
  Harness h(flags.cfg);
  auto report = h.Run();
  // The trace is written even for a failed run — the event history leading
  // into the failure is exactly what it is for.
  const TraceRecorder& tracer = h.db().instruments().tracer();
  if (!flags.trace_out.empty()) {
    if (!WriteFile(flags.trace_out, tracer.ToChromeTrace())) return 1;
    std::fprintf(stderr, "trace: %s (%llu events, %llu dropped)\n",
                 flags.trace_out.c_str(),
                 static_cast<unsigned long long>(tracer.total_recorded()),
                 static_cast<unsigned long long>(tracer.total_dropped()));
  }
  if (!report.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (!flags.stats_json.empty()) {
    MetricsRegistry reg = MetricsRegistry::FromReport(*report);
    reg.AddTrace(tracer);
    if (!WriteFile(flags.stats_json, reg.ToJson().Dump(1))) return 1;
  }
  if (!flags.latency_json.empty()) {
    if (!WriteFile(flags.latency_json,
                   report->latency.ToJson().Dump(1))) {
      return 1;
    }
  }
  if (!flags.profile_out.empty()) {
    if (!WriteFile(flags.profile_out,
                   ProfileJsonFromReport(*report).Dump(1))) {
      return 1;
    }
    if (!WriteFile(flags.profile_out + ".collapsed",
                   report->profile.ToCollapsed())) {
      return 1;
    }
    std::fprintf(stderr, "profile: %s (+ .collapsed)\n",
                 flags.profile_out.c_str());
  }
  const HarnessReport& r = *report;
  std::printf("protocol            %s\n",
              flags.cfg.db.recovery.Name().c_str());
  std::printf("committed           %llu\n",
              static_cast<unsigned long long>(r.exec.committed));
  std::printf("aborted (deadlock)  %llu\n",
              static_cast<unsigned long long>(r.exec.aborted_deadlock));
  std::printf("aborted (other)     %llu\n",
              static_cast<unsigned long long>(r.exec.aborted_other));
  std::printf("sim time            %.3f ms\n", r.total_time_ns / 1e6);
  std::printf("throughput          %.1f txn/sim-s\n", r.throughput_tps());
  std::printf("log forces          %llu (LBM: %llu)\n",
              static_cast<unsigned long long>(r.logs.forces),
              static_cast<unsigned long long>(r.logs.lbm_forces));
  std::printf("migrations          %llu\n",
              static_cast<unsigned long long>(r.machine.migrations));
  std::printf("replications        %llu\n",
              static_cast<unsigned long long>(r.machine.replications));
  for (size_t i = 0; i < r.recoveries.size(); ++i) {
    std::printf("recovery[%zu]         %s\n", i,
                r.recoveries[i].ToString().c_str());
  }
  if (r.latency.enabled) {
    std::printf("commit latency      p50 %s  p99 %s  p99.9 %s (n=%llu)\n",
                FormatSimTime(r.latency.commit_latency.P50()).c_str(),
                FormatSimTime(r.latency.commit_latency.P99()).c_str(),
                FormatSimTime(r.latency.commit_latency.P999()).c_str(),
                static_cast<unsigned long long>(
                    r.latency.commit_latency.count()));
    for (size_t i = 0; i < r.latency.availability.crashes.size(); ++i) {
      const CrashAvailability& c = r.latency.availability.crashes[i];
      std::printf(
          "availability[%zu]     ttfc %s  trough %.0f%% for %s  "
          "p99 steady %s vs through-crash %s\n",
          i, FormatSimTime(c.ttfc_ns()).c_str(), c.depth_pct,
          FormatSimTime(c.trough_duration_ns).c_str(),
          FormatSimTime(r.latency.commit_steady.P99()).c_str(),
          FormatSimTime(r.latency.commit_through_crash.P99()).c_str());
    }
  }
  std::printf("unnecessary aborts  %llu\n",
              static_cast<unsigned long long>(r.unnecessary_aborts()));
  std::printf("IFA verification    %s\n", r.verify_status.ToString().c_str());
  if (flags.verbose) {
    std::printf("\nmachine stats:\n%s\n", r.machine.ToString().c_str());
    std::printf("disk reads/writes   %llu / %llu\n",
                static_cast<unsigned long long>(r.disk_reads),
                static_cast<unsigned long long>(r.disk_writes));
    std::printf("undo tag writes     %llu\n",
                static_cast<unsigned long long>(r.txns.undo_tag_writes));
    std::printf("lock log records    %llu\n",
                static_cast<unsigned long long>(r.locks.lock_log_records));
    std::printf(
        "btree splits        %llu (early commits %llu, page flushes %llu)\n",
        static_cast<unsigned long long>(r.btree.splits),
        static_cast<unsigned long long>(r.btree.early_commits),
        static_cast<unsigned long long>(r.btree.split_page_flushes));
  }
  return r.verify_status.ok() ? 0 : 2;
}

}  // namespace
}  // namespace smdb

int main(int argc, char** argv) {
  smdb::Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      smdb::Usage();
      return 0;
    }
    if (!smdb::ParseFlag(flags, arg)) {
      std::fprintf(stderr, "bad flag: %s\n\n", arg.c_str());
      smdb::Usage();
      return 1;
    }
  }
  if (!smdb::CrashNodesExist(flags.cfg)) {
    std::fprintf(stderr, "--crash names a node beyond --nodes\n\n");
    smdb::Usage();
    return 1;
  }
  return smdb::Run(flags);
}
