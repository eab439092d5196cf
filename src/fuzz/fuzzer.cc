#include "fuzz/fuzzer.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "obs/forensics.h"

namespace smdb {

std::vector<RecoveryConfig> CrashScheduleFuzzer::DefaultProtocols() {
  return {
      RecoveryConfig::VolatileSelectiveRedo(),
      RecoveryConfig::VolatileRedoAll(),
      RecoveryConfig::StableEagerRedoAll(),
      RecoveryConfig::StableTriggeredRedoAll(),
      RecoveryConfig::StableTriggeredSelectiveRedo(),
      RecoveryConfig::BaselineRebootAll(),
      RecoveryConfig::BaselineAbortDependents(),
  };
}

CrashScheduleFuzzer::CrashScheduleFuzzer(Options opts)
    : opts_(std::move(opts)) {
  if (opts_.protocols.empty()) opts_.protocols = DefaultProtocols();
}

RecoveryConfig CrashScheduleFuzzer::EffectiveProtocol(
    RecoveryConfig protocol) const {
  protocol.disable_undo_tagging =
      protocol.disable_undo_tagging || opts_.disable_undo_tagging;
  protocol.on_demand = protocol.on_demand || opts_.on_demand;
  if (opts_.group_commit) {
    protocol.group_commit = true;
    if (opts_.group_commit_window_ns != 0) {
      protocol.group_commit_window_ns = opts_.group_commit_window_ns;
    }
    if (opts_.group_commit_max_batch != 0) {
      protocol.group_commit_max_batch = opts_.group_commit_max_batch;
    }
  }
  return protocol;
}

FuzzVerdict CrashScheduleFuzzer::RunCase(const FuzzCase& fuzz_case,
                                         RecoveryConfig protocol) {
  protocol = EffectiveProtocol(std::move(protocol));
  HarnessConfig base = MakeHarnessConfig(fuzz_case, protocol);
  base.capture_digests = opts_.recovery_streams > 1;
  if (protocol.on_demand) {
    // Exercise the sweeper alongside first-touch discharge. The stream
    // differential compares digests taken right after each recovery, so
    // those runs drain immediately instead (collapsing the Recovering
    // window makes lazy and eager runs step-comparable).
    base.pump_recovery_per_step = 2;
    base.drain_recovery_immediately = base.capture_digests;
  }
  Harness h(base);
  auto report = h.Run();
  ++stats_.runs;
  if (!report.ok()) {
    // The harness must complete every schedule; an error here is a harness
    // or recovery-path bug, not a legitimate outcome.
    return {true, "run-error", report.status().ToString()};
  }
  stats_.crashes_fired += report->recoveries.size();
  stats_.crashes_skipped += report->skipped_crashes.size();
  stats_.committed += report->exec.committed;
  for (const RecoveryOutcome& r : report->recoveries) {
    if (r.whole_machine_restart) ++stats_.whole_machine_restarts;
  }

  if (!report->verify_status.ok()) {
    return {true, "ifa-verify", report->verify_status.ToString()};
  }
  if (protocol.ensures_ifa() && report->unnecessary_aborts() > 0) {
    return {true, "unnecessary-aborts",
            protocol.Name() + " forced " +
                std::to_string(report->unnecessary_aborts()) +
                " surviving-node aborts"};
  }
  if (protocol.restart == RestartKind::kRebootAll) {
    for (const RecoveryOutcome& r : report->recoveries) {
      if (!r.whole_machine_restart) {
        return {true, "oracle",
                "RebootAll recovery without a whole-machine restart"};
      }
    }
  }
  if (opts_.recovery_streams > 1 && !report->recoveries.empty()) {
    FuzzVerdict dv = CheckStreamEquivalence(base, *report);
    if (dv.failed) return dv;
  }
  return {};
}

FuzzVerdict CrashScheduleFuzzer::CheckStreamEquivalence(
    const HarnessConfig& base, const HarnessReport& serial) {
  const uint32_t w = opts_.recovery_streams;
  // One differential run per fired recovery: digests taken *after* a
  // partitioned recovery are only comparable up to that recovery (CLR log
  // placement is performer-dependent and may legitimately steer later
  // forces and later recoveries differently), so each run partitions
  // exactly one recovery, with everything before it single-stream.
  for (size_t k = 0; k < serial.recoveries.size(); ++k) {
    std::string at = "W=" + std::to_string(w) + " recovery #" +
                     std::to_string(k) + " ";
    HarnessConfig cfg = base;
    cfg.recovery_stream_overrides.assign(k + 1, 1);
    cfg.recovery_stream_overrides[k] = w;
    Harness h(cfg);
    auto report = h.Run();
    ++stats_.runs;
    if (!report.ok()) {
      return {true, "stream-divergence",
              at + "run-error: " + report.status().ToString()};
    }
    if (!report->verify_status.ok()) {
      return {true, "stream-divergence",
              at + "ifa-verify: " + report->verify_status.ToString()};
    }
    if (report->recoveries.size() <= k || report->digests.size() <= k) {
      return {true, "stream-divergence", at + "never fired"};
    }
    if (!(report->digests[k] == serial.digests[k])) {
      return {true, "stream-divergence",
              at + "digest mismatch: one-stream{" +
                  serial.digests[k].ToString() + "} streams{" +
                  report->digests[k].ToString() + "}"};
    }
    const RecoveryOutcome& a = serial.recoveries[k];
    const RecoveryOutcome& b = report->recoveries[k];
    if (a.annulled != b.annulled || a.preserved != b.preserved ||
        a.forced_aborts != b.forced_aborts ||
        a.redo_applied != b.redo_applied ||
        a.redo_skipped != b.redo_skipped ||
        a.undo_applied != b.undo_applied || a.tag_undos != b.tag_undos) {
      return {true, "stream-divergence",
              at + "outcome mismatch: one-stream{" + a.ToString() +
                  "} streams{" + b.ToString() + "}"};
    }
  }
  return {};
}

std::optional<FuzzFailure> CrashScheduleFuzzer::RunSeed(uint64_t seed) {
  FuzzCase fuzz_case = SampleFuzzCase(seed);
  ++stats_.cases;
  for (const RecoveryConfig& rc : opts_.protocols) {
    // Stored in the failure pre-applied so Shrink and ReplayJson see the
    // exact config that failed (RunCase's own application is idempotent).
    RecoveryConfig protocol = EffectiveProtocol(rc);
    FuzzVerdict verdict = RunCase(fuzz_case, protocol);
    if (verdict.failed) {
      return FuzzFailure{seed, fuzz_case, protocol, std::move(verdict)};
    }
  }
  return std::nullopt;
}

FuzzCase CrashScheduleFuzzer::Shrink(const FuzzFailure& failure) {
  FuzzCase best = failure.fuzz_case;
  size_t budget = opts_.max_shrink_runs;
  auto still_fails = [&](const FuzzCase& cand) {
    if (budget == 0) return false;  // out of budget: keep what we have
    --budget;
    ++stats_.shrink_runs;
    // Only the recorded kind counts: a candidate that fails differently is
    // a different bug, and its replay would contradict the document.
    FuzzVerdict v = RunCase(cand, failure.protocol);
    return v.failed && v.kind == failure.verdict.kind;
  };
  auto try_reduce = [&](bool* changed, auto mutate) {
    FuzzCase cand = best;
    mutate(cand);
    if (still_fails(cand)) {
      best = std::move(cand);
      *changed = true;
    }
  };

  // Greedy delta debugging to a fixpoint: every reduction below is retried
  // until none applies. Each candidate run is a full deterministic
  // re-execution, so "still fails" is exact, not probabilistic.
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;

    // 1. Drop whole crash plans.
    for (size_t i = 0; i < best.crashes.size();) {
      FuzzCase cand = best;
      cand.crashes.erase(cand.crashes.begin() + i);
      if (still_fails(cand)) {
        best = std::move(cand);
        changed = true;
      } else {
        ++i;
      }
    }
    // 2. Shrink each plan's node set.
    for (size_t p = 0; p < best.crashes.size(); ++p) {
      for (size_t i = 0;
           best.crashes[p].nodes.size() > 1 && i < best.crashes[p].nodes.size();) {
        FuzzCase cand = best;
        cand.crashes[p].nodes.erase(cand.crashes[p].nodes.begin() + i);
        if (still_fails(cand)) {
          best = std::move(cand);
          changed = true;
        } else {
          ++i;
        }
      }
    }
    // 3. Simplify plan attributes: no restart, earlier step.
    for (size_t p = 0; p < best.crashes.size(); ++p) {
      if (best.crashes[p].restart_after) {
        try_reduce(&changed,
                   [p](FuzzCase& c) { c.crashes[p].restart_after = false; });
      }
      if (best.crashes[p].at_step > 1) {
        try_reduce(&changed,
                   [p](FuzzCase& c) { c.crashes[p].at_step /= 2; });
      }
    }
    // 4. Halve the workload.
    if (best.workload.txns_per_node > 1) {
      try_reduce(&changed, [](FuzzCase& c) { c.workload.txns_per_node /= 2; });
    }
    if (best.workload.ops_per_txn > 1) {
      try_reduce(&changed, [](FuzzCase& c) { c.workload.ops_per_txn /= 2; });
    }
    // 5. Zero the noise knobs.
    if (best.steal_flush_prob > 0.0) {
      try_reduce(&changed, [](FuzzCase& c) { c.steal_flush_prob = 0.0; });
    }
    if (best.checkpoint_every_steps > 0) {
      try_reduce(&changed,
                 [](FuzzCase& c) { c.checkpoint_every_steps = 0; });
    }
    if (best.workload.index_op_ratio > 0.0) {
      try_reduce(&changed, [](FuzzCase& c) { c.workload.index_op_ratio = 0.0; });
    }
    if (best.workload.dirty_read_ratio > 0.0) {
      try_reduce(&changed,
                 [](FuzzCase& c) { c.workload.dirty_read_ratio = 0.0; });
    }
    if (best.workload.voluntary_abort_ratio > 0.0) {
      try_reduce(&changed,
                 [](FuzzCase& c) { c.workload.voluntary_abort_ratio = 0.0; });
    }
    if (best.workload.zipf_theta > 0.0) {
      try_reduce(&changed, [](FuzzCase& c) { c.workload.zipf_theta = 0.0; });
    }
  }
  return best;
}

json::Value CrashScheduleFuzzer::CollectForensics(const FuzzFailure& failure,
                                                  const FuzzCase& shrunk) {
  // The re-run is bit-identical to the shrunk failing run (tracing adds no
  // simulated cost), so the recorder holds the event history leading into
  // the violation when the report is built.
  HarnessConfig cfg =
      MakeHarnessConfig(shrunk, EffectiveProtocol(failure.protocol));
  cfg.db.obs.trace = true;
  cfg.db.obs.trace_capacity_per_node = opts_.trace_capacity;
  Harness h(cfg);
  auto report = h.Run();
  ++stats_.runs;
  const bool failed_again =
      !report.ok() || !report->verify_status.ok();
  json::Value out =
      BuildForensicReport(h.db(), &h.checker(), /*last_n=*/32);
  // "reproduced" is about the *verifiable* failure kinds (run-error,
  // ifa-verify); abort-count and divergence failures verify clean here.
  out.Set("reproduced", json::Value::Bool(failed_again));
  out.Set("verify",
          json::Value::Str(report.ok() ? report->verify_status.ToString()
                                       : report.status().ToString()));
  return out;
}

std::string CrashScheduleFuzzer::ReplayJson(const FuzzFailure& failure,
                                            const FuzzCase& shrunk,
                                            const json::Value* forensics)
    const {
  json::Value doc = json::Value::Object();
  doc.Set("smdb_fuzz_replay", json::Value::Uint(1));
  doc.Set("seed", json::Value::Uint(failure.seed));
  doc.Set("protocol", json::Value::Str(failure.protocol.FlagName()));
  doc.Set("disable_undo_tagging",
          json::Value::Bool(failure.protocol.disable_undo_tagging));
  doc.Set("recovery_streams", json::Value::Uint(opts_.recovery_streams));
  doc.Set("group_commit", json::Value::Bool(failure.protocol.group_commit));
  if (failure.protocol.group_commit) {
    doc.Set("group_commit_window_ns",
            json::Value::Uint(failure.protocol.group_commit_window_ns));
    doc.Set("group_commit_max_batch",
            json::Value::Uint(failure.protocol.group_commit_max_batch));
  }
  doc.Set("on_demand", json::Value::Bool(failure.protocol.on_demand));
  doc.Set("forensics_enabled", json::Value::Bool(opts_.forensics));
  doc.Set("trace_capacity", json::Value::Uint(opts_.trace_capacity));
  doc.Set("case", shrunk.ToJson());
  doc.Set("original_case", failure.fuzz_case.ToJson());
  json::Value fail = json::Value::Object();
  fail.Set("kind", json::Value::Str(failure.verdict.kind));
  fail.Set("detail", json::Value::Str(failure.verdict.detail));
  doc.Set("failure", std::move(fail));
  if (forensics != nullptr) {
    doc.Set("forensics", *forensics);
  }
  return doc.Dump(2);
}

Result<CrashScheduleFuzzer::ReplayDoc> CrashScheduleFuzzer::ParseReplay(
    const std::string& json_text) {
  SMDB_ASSIGN_OR_RETURN(json::Value doc, json::Value::Parse(json_text));
  if (!doc.is_object() || doc.GetUint("smdb_fuzz_replay") != 1) {
    return Status::InvalidArgument("not an smdb_fuzz replay document");
  }
  ReplayDoc out;
  out.seed = doc.GetUint("seed");
  std::string proto = doc.GetString("protocol");
  if (!RecoveryConfig::FromFlagName(proto, &out.protocol)) {
    return Status::InvalidArgument("replay: unknown protocol '" + proto + "'");
  }
  out.protocol.disable_undo_tagging = doc.GetBool("disable_undo_tagging");
  // Absent in documents that predate recovery streams: a single stream.
  uint64_t streams = doc.GetUint("recovery_streams");
  out.recovery_streams = streams == 0 ? 1 : static_cast<uint32_t>(streams);
  // The group-commit and on-demand knobs travel in `protocol`. Absent in
  // documents that predate them: off.
  out.protocol.group_commit = doc.GetBool("group_commit");
  if (out.protocol.group_commit) {
    uint64_t window = doc.GetUint("group_commit_window_ns");
    if (window != 0) out.protocol.group_commit_window_ns = window;
    uint64_t batch = doc.GetUint("group_commit_max_batch");
    if (batch != 0) {
      out.protocol.group_commit_max_batch = static_cast<uint32_t>(batch);
    }
  }
  out.protocol.on_demand = doc.GetBool("on_demand");
  // Absent in documents that predate the observability layer: defaults.
  if (doc.Find("forensics_enabled") != nullptr) {
    out.forensics_enabled = doc.GetBool("forensics_enabled");
  }
  uint64_t cap = doc.GetUint("trace_capacity");
  if (cap != 0) out.trace_capacity = static_cast<uint32_t>(cap);
  const json::Value* c = doc.Find("case");
  if (c == nullptr) {
    return Status::InvalidArgument("replay: missing case");
  }
  SMDB_ASSIGN_OR_RETURN(out.fuzz_case, FuzzCase::FromJson(*c));
  const json::Value* fail = doc.Find("failure");
  if (fail != nullptr) {
    out.recorded_kind = fail->GetString("kind");
    out.recorded_detail = fail->GetString("detail");
  }
  return out;
}

json::Value PerSeedAggregateJson(const std::vector<FuzzStats>& per_seed) {
  json::Value obj = json::Value::Object();
  obj.Set("seeds", json::Value::Uint(per_seed.size()));
  if (per_seed.empty()) return obj;
  // Field-parallel fold over the shared visitor, so the aggregate's key
  // set can never drift from FuzzStats.
  std::vector<std::string> names;
  std::vector<uint64_t> mins, maxs, sums;
  bool first = true;
  for (const FuzzStats& s : per_seed) {
    size_t i = 0;
    s.ForEachCounter([&](const char* name, uint64_t value) {
      if (first) {
        names.emplace_back(name);
        mins.push_back(value);
        maxs.push_back(value);
        sums.push_back(value);
      } else {
        mins[i] = std::min(mins[i], value);
        maxs[i] = std::max(maxs[i], value);
        sums[i] += value;
      }
      ++i;
    });
    first = false;
  }
  for (size_t i = 0; i < names.size(); ++i) {
    json::Value agg = json::Value::Object();
    agg.Set("min", json::Value::Uint(mins[i]));
    agg.Set("max", json::Value::Uint(maxs[i]));
    agg.Set("mean",
            json::Value::Double(double(sums[i]) / double(per_seed.size())));
    obj.Set(names[i], agg);
  }
  return obj;
}

FuzzCampaignResult RunFuzzCampaign(const CrashScheduleFuzzer::Options& opts,
                                   uint64_t seed_start, uint64_t seed_count,
                                   unsigned jobs) {
  // Each seed runs in a fresh fuzzer (a seed's outcome is a pure function of
  // (seed, opts); stats never feed back into sampling or execution) and
  // writes its own slot. Workers claim seeds from one counter in increasing
  // order and stop once they pass the lowest failing seed found so far, so
  // every seed below the first failure runs. Folding the slots in seed
  // order up to and including the first failure then gives the verdict and
  // merged stats of a serial run, whatever `jobs` is.
  std::vector<std::optional<FuzzFailure>> failures(seed_count);
  std::vector<FuzzStats> stats(seed_count);
  std::atomic<uint64_t> next{0};
  std::atomic<uint64_t> first_failure{seed_count};
  auto claim_seeds = [&] {
    for (uint64_t i = next++; i < first_failure.load(); i = next++) {
      CrashScheduleFuzzer fuzzer(opts);
      failures[i] = fuzzer.RunSeed(seed_start + i);
      stats[i] = fuzzer.stats();
      if (!failures[i].has_value()) continue;
      // Lower the shared bound to i (an atomic min).
      uint64_t seen = first_failure.load();
      while (i < seen && !first_failure.compare_exchange_weak(seen, i)) {}
    }
  };
  {
    std::vector<std::jthread> workers;  // joined when the scope ends
    const uint64_t threads =
        std::min<uint64_t>(std::max(jobs, 1u), seed_count);
    for (uint64_t t = 0; t < threads; ++t) workers.emplace_back(claim_seeds);
  }

  FuzzCampaignResult out;
  for (uint64_t i = 0; i < seed_count; ++i) {
    out.per_seed.push_back(stats[i]);
    out.stats.Merge(stats[i]);
    if (failures[i].has_value()) {
      out.failure = std::move(failures[i]);
      break;
    }
  }
  return out;
}

}  // namespace smdb
