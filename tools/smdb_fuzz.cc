// smdb_fuzz — randomized crash-schedule fuzzer with deterministic replay.
//
// Samples workload/crash-schedule scenarios from sequential seeds, runs
// each through the harness under every protocol, and checks the IFA oracle
// after every recovery. On failure it shrinks the schedule to a minimal
// reproducer and writes a JSON replay file.
//
// Examples:
//   smdb_fuzz --seeds=200
//   smdb_fuzz --seeds=50 --protocol=volatile-selective --break=no-undo-tags
//   smdb_fuzz --replay=smdb_fuzz_failure.json
//
// Exit codes: 0 clean · 1 usage/IO error · 2 failure found (replay file
// written) · in --replay mode: 0 the recorded failure reproduces, 3 it
// does not (determinism broken).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "fuzz/fuzzer.h"

namespace smdb {
namespace {

/// Upper bound on --jobs (one host thread each).
constexpr uint64_t kMaxJobs = 256;

struct Flags {
  uint64_t seeds = 100;
  uint64_t seed_start = 0;
  std::vector<RecoveryConfig> protocols;
  bool break_undo_tags = false;
  bool shrink = true;
  bool verbose = false;
  uint64_t recovery_streams = 1;
  uint64_t jobs = 1;
  bool group_commit = false;
  uint64_t group_commit_window = 0;
  uint64_t group_commit_max_batch = 0;
  bool on_demand = false;
  bool forensics = true;
  uint64_t trace_capacity = 0;  // 0 = keep the option default
  std::string stats_json;       // campaign summary path ("" = none)
  std::string out_path = "smdb_fuzz_failure.json";
  std::string replay_path;
};

void Usage() {
  std::printf(
      "usage: smdb_fuzz [flags]\n"
      "  --seeds=N             number of sequential seeds to run (default "
      "100)\n"
      "  --seed-start=N        first seed (default 0)\n"
      "  --protocol=P          restrict to one protocol (repeatable):\n"
      "                        volatile-selective | volatile-redoall |\n"
      "                        stable-eager | stable-triggered |\n"
      "                        stable-triggered-selective | reboot-all |\n"
      "                        abort-dependents   (default: all)\n"
      "  --break=no-undo-tags  fault injection: disable undo tagging\n"
      "  --recovery-streams=N  also run the recovery-stream differential:\n"
      "                        every recovery re-runs at N simulated\n"
      "                        streams and must produce the single-stream\n"
      "                        run's state digest (default 1 = off)\n"
      "  --jobs=N              shard seeds across N worker threads (at\n"
      "                        most 256); the verdict, stats, and replay\n"
      "                        file are byte-identical to --jobs=1\n"
      "                        (default 1)\n"
      "  --group-commit        run every protocol with the group-commit\n"
      "                        log-force pipeline on\n"
      "  --group-commit-window=NS   coalescing window in sim-ns (0 = keep\n"
      "                        the protocol default)\n"
      "  --group-commit-max-batch=N size bound on a coalesced batch (0 =\n"
      "                        keep the protocol default)\n"
      "  --on-demand-recovery  run every protocol with on-demand (instant)\n"
      "                        recovery: traffic resumes in the Recovering\n"
      "                        state and obligations discharge lazily\n"
      "  --no-shrink           keep the original failing schedule\n"
      "  --no-forensics        skip the traced forensic re-run of a shrunk\n"
      "                        failure (replay files omit \"forensics\")\n"
      "  --trace-capacity=N    per-node trace ring capacity for the\n"
      "                        forensic re-run (default 4096)\n"
      "  --stats-json=FILE     write the campaign summary (totals plus\n"
      "                        per-seed min/max/mean) as JSON\n"
      "  --out=FILE            replay file path (default "
      "smdb_fuzz_failure.json)\n"
      "  --replay=FILE         re-execute a replay file instead of fuzzing\n"
      "  --verbose             per-seed progress\n");
}

bool TakesValue(const std::string& key) {
  return key == "--seeds" || key == "--seed-start" || key == "--protocol" ||
         key == "--break" || key == "--out" || key == "--replay" ||
         key == "--recovery-streams" || key == "--jobs" ||
         key == "--group-commit-window" ||
         key == "--group-commit-max-batch" || key == "--trace-capacity" ||
         key == "--stats-json";
}

bool ParseFlag(Flags& f, const std::string& key, const std::string& val) {
  if (key == "--seeds") {
    if (!ParseUint(val, &f.seeds)) return false;
  } else if (key == "--seed-start") {
    if (!ParseUint(val, &f.seed_start)) return false;
  } else if (key == "--protocol") {
    RecoveryConfig rc;
    if (!RecoveryConfig::FromFlagName(val, &rc)) return false;
    f.protocols.push_back(rc);
  } else if (key == "--break") {
    if (val != "no-undo-tags") return false;
    f.break_undo_tags = true;
  } else if (key == "--recovery-streams") {
    if (!ParseUint(val, &f.recovery_streams) || f.recovery_streams == 0) {
      return false;
    }
  } else if (key == "--jobs") {
    // One host thread per job: bound the request.
    if (!ParseUint(val, &f.jobs) || f.jobs == 0 || f.jobs > kMaxJobs) {
      return false;
    }
  } else if (key == "--group-commit") {
    f.group_commit = true;
  } else if (key == "--group-commit-window") {
    if (!ParseUint(val, &f.group_commit_window)) return false;
    f.group_commit = true;
  } else if (key == "--group-commit-max-batch") {
    if (!ParseUint(val, &f.group_commit_max_batch)) return false;
    f.group_commit = true;
  } else if (key == "--on-demand-recovery") {
    f.on_demand = true;
  } else if (key == "--no-shrink") {
    f.shrink = false;
  } else if (key == "--no-forensics") {
    f.forensics = false;
  } else if (key == "--trace-capacity") {
    if (!ParseUint(val, &f.trace_capacity) || f.trace_capacity == 0) {
      return false;
    }
  } else if (key == "--stats-json") {
    if (val.empty()) return false;
    f.stats_json = val;
  } else if (key == "--out") {
    f.out_path = val;
  } else if (key == "--replay") {
    f.replay_path = val;
  } else if (key == "--verbose") {
    f.verbose = true;
  } else {
    return false;
  }
  return true;
}

void PrintStats(const FuzzStats& s) {
  std::printf(
      "cases %llu · runs %llu (+%llu shrink) · crashes fired %llu, "
      "skipped %llu · whole-machine restarts %llu · txns committed %llu\n",
      static_cast<unsigned long long>(s.cases),
      static_cast<unsigned long long>(s.runs),
      static_cast<unsigned long long>(s.shrink_runs),
      static_cast<unsigned long long>(s.crashes_fired),
      static_cast<unsigned long long>(s.crashes_skipped),
      static_cast<unsigned long long>(s.whole_machine_restarts),
      static_cast<unsigned long long>(s.committed));
}

/// Campaign summary: run parameters, merged totals, per-seed min/max/mean
/// aggregates, and the failure triple (null when clean).
bool WriteCampaignSummary(const Flags& flags,
                          const FuzzCampaignResult& result,
                          const FuzzStats& totals) {
  json::Value doc = json::Value::Object();
  doc.Set("smdb_fuzz_stats", json::Value::Uint(1));
  doc.Set("seed_start", json::Value::Uint(flags.seed_start));
  doc.Set("seeds", json::Value::Uint(flags.seeds));
  doc.Set("jobs", json::Value::Uint(flags.jobs));
  json::Value t = json::Value::Object();
  totals.ForEachCounter([&](const char* name, uint64_t value) {
    t.Set(name, json::Value::Uint(value));
  });
  doc.Set("totals", t);
  doc.Set("per_seed", PerSeedAggregateJson(result.per_seed));
  if (result.failure.has_value()) {
    json::Value fail = json::Value::Object();
    fail.Set("seed", json::Value::Uint(result.failure->seed));
    fail.Set("protocol",
             json::Value::Str(result.failure->protocol.FlagName()));
    fail.Set("kind", json::Value::Str(result.failure->verdict.kind));
    fail.Set("detail", json::Value::Str(result.failure->verdict.detail));
    doc.Set("failure", fail);
  } else {
    doc.Set("failure", json::Value::Null());
  }
  std::ofstream out(flags.stats_json);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", flags.stats_json.c_str());
    return false;
  }
  out << doc.Dump(1) << "\n";
  return true;
}

int Replay(const Flags& flags) {
  std::ifstream in(flags.replay_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", flags.replay_path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto doc = CrashScheduleFuzzer::ParseReplay(buf.str());
  if (!doc.ok()) {
    std::fprintf(stderr, "bad replay file: %s\n",
                 doc.status().ToString().c_str());
    return 1;
  }
  std::printf("replaying seed %llu under %s%s\n",
              static_cast<unsigned long long>(doc->seed),
              doc->protocol.Name().c_str(),
              doc->recorded_kind.empty()
                  ? ""
                  : (" (recorded: " + doc->recorded_kind + ")").c_str());
  if (flags.verbose) {
    // Re-run through the harness directly to show what each recovery did.
    Harness h(MakeHarnessConfig(doc->fuzz_case, doc->protocol));
    auto report = h.Run();
    if (report.ok()) {
      for (const auto& rec : report->recoveries) {
        std::printf("  recovery: %s\n", rec.ToString().c_str());
      }
      std::printf("  verify: %s\n", report->verify_status.ToString().c_str());
      std::printf("  committed=%llu aborted=%llu unnecessary=%llu\n",
                  static_cast<unsigned long long>(report->exec.committed),
                  static_cast<unsigned long long>(report->exec.aborted_deadlock +
                                                  report->exec.aborted_other),
                  static_cast<unsigned long long>(report->unnecessary_aborts()));
    } else {
      std::printf("  run error: %s\n", report.status().ToString().c_str());
    }
  }
  CrashScheduleFuzzer::Options opts;
  // A --recovery-streams flag overrides the value recorded in the file, so
  // a single-stream failure can be probed at other stream counts (and vice
  // versa).
  opts.recovery_streams = flags.recovery_streams > 1
                              ? static_cast<uint32_t>(flags.recovery_streams)
                              : doc->recovery_streams;
  CrashScheduleFuzzer fuzzer(opts);
  FuzzVerdict verdict = fuzzer.RunCase(doc->fuzz_case, doc->protocol);
  if (verdict.failed) {
    std::printf("reproduced: [%s] %s\n", verdict.kind.c_str(),
                verdict.detail.c_str());
    return 0;
  }
  std::printf("did NOT reproduce — run was clean\n");
  return 3;
}

int Fuzz(const Flags& flags) {
  CrashScheduleFuzzer::Options opts;
  opts.protocols = flags.protocols;  // empty = defaults
  opts.disable_undo_tagging = flags.break_undo_tags;
  opts.recovery_streams = static_cast<uint32_t>(flags.recovery_streams);
  opts.group_commit = flags.group_commit;
  opts.group_commit_window_ns = flags.group_commit_window;
  opts.group_commit_max_batch =
      static_cast<uint32_t>(flags.group_commit_max_batch);
  opts.on_demand = flags.on_demand;
  opts.forensics = flags.forensics;
  if (flags.trace_capacity != 0) {
    opts.trace_capacity = static_cast<uint32_t>(flags.trace_capacity);
  }

  FuzzCampaignResult result;
  if (flags.jobs <= 1 && flags.verbose) {
    // Per-seed progress needs the loop inline; one fresh fuzzer per seed,
    // like the campaign paths, so per-seed stats blocks exist.
    for (uint64_t seed = flags.seed_start;
         seed < flags.seed_start + flags.seeds; ++seed) {
      CrashScheduleFuzzer fuzzer(opts);
      result.failure = fuzzer.RunSeed(seed);
      result.per_seed.push_back(fuzzer.stats());
      result.stats.Merge(fuzzer.stats());
      if (result.failure.has_value()) break;
      std::printf("seed %llu ok\n", static_cast<unsigned long long>(seed));
    }
  } else {
    result = RunFuzzCampaign(opts, flags.seed_start, flags.seeds,
                             static_cast<unsigned>(flags.jobs));
  }
  FuzzStats stats = result.stats;

  if (result.failure.has_value()) {
    const FuzzFailure& failure = *result.failure;
    std::printf("seed %llu FAILED under %s: [%s] %s\n",
                static_cast<unsigned long long>(failure.seed),
                failure.protocol.Name().c_str(),
                failure.verdict.kind.c_str(),
                failure.verdict.detail.c_str());
    // Shrinking is serial regardless of --jobs: it re-runs one failure.
    CrashScheduleFuzzer fuzzer(opts);
    FuzzCase shrunk = failure.fuzz_case;
    if (flags.shrink) {
      shrunk = fuzzer.Shrink(failure);
      std::printf("shrunk: %zu crash plan(s), %zu txns/node x %zu ops\n",
                  shrunk.crashes.size(), shrunk.workload.txns_per_node,
                  shrunk.workload.ops_per_txn);
    }
    json::Value forensics;
    bool have_forensics = false;
    if (opts.forensics) {
      forensics = fuzzer.CollectForensics(failure, shrunk);
      have_forensics = true;
      std::printf("forensics: traced re-run %s\n",
                  forensics.GetBool("reproduced")
                      ? "reproduced the failure"
                      : "was clean (non-state failure kind)");
    }
    std::string replay = fuzzer.ReplayJson(
        failure, shrunk, have_forensics ? &forensics : nullptr);
    std::ofstream out(flags.out_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", flags.out_path.c_str());
      return 1;
    }
    out << replay;
    out.close();
    std::printf("replay file written to %s — re-run with --replay=%s\n",
                flags.out_path.c_str(), flags.out_path.c_str());
    stats.Merge(fuzzer.stats());
    PrintStats(stats);
    if (!flags.stats_json.empty() &&
        !WriteCampaignSummary(flags, result, stats)) {
      return 1;
    }
    return 2;
  }
  std::printf("all %llu seeds clean under %zu protocol(s)\n",
              static_cast<unsigned long long>(flags.seeds),
              opts.protocols.empty()
                  ? CrashScheduleFuzzer::DefaultProtocols().size()
                  : opts.protocols.size());
  PrintStats(stats);
  if (!flags.stats_json.empty() &&
      !WriteCampaignSummary(flags, result, stats)) {
    return 1;
  }
  return 0;
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
    // Both --flag=value and --flag value spellings are accepted.
    auto eq = arg.find('=');
    std::string key = arg.substr(0, eq);
    std::string val = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (eq == std::string::npos && smdb::TakesValue(key) && i + 1 < argc) {
      val = argv[++i];
    }
    if (!smdb::ParseFlag(flags, key, val)) {
      std::fprintf(stderr, "bad flag: %s\n\n", arg.c_str());
      smdb::Usage();
      return 1;
    }
  }
  if (!flags.replay_path.empty()) return smdb::Replay(flags);
  return smdb::Fuzz(flags);
}
