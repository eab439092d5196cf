// Coverage for the observability layer (src/obs/): event tracing, the
// unified metrics snapshot, and crash forensics.
//
//   1. Trace determinism: for a fixed config + seed the recorded event
//      sequence (kinds, nodes, payloads, timestamps, global order) is
//      bit-identical run to run — at recovery_streams = 1 and at 4. That
//      is what makes traces embedded in fuzzer replay documents evidence
//      rather than noise.
//   2. Ring accounting: fixed-capacity drop-oldest overflow keeps exactly
//      the newest events and counts every drop; out-of-range nodes clamp
//      to ring 0 instead of vanishing.
//   3. Chrome-trace export: well-formed JSON, one named track per node,
//      recovery phases as "X" complete spans.
//   4. Stats parity: MachineStats/LogStats::ToString and the ForEachCounter
//      visitors cover the same field set, so the human dump and the JSON
//      snapshot can never drift apart.
//   5. Metrics snapshot: FromReport unifies every subsystem prefix and the
//      per-recovery phase durations into one parseable object.
//   6. Forensics: a fuzz-caught IFA violation yields a non-empty forensic
//      report (violation, trace tails, log chain, tag decisions) that
//      rides inside the replay document and round-trips through ParseReplay.
//   7. Histogram algebra: the fixed bucket layout makes Merge partition-
//      and order-invariant, so recording in any partition yields
//      bit-identical percentiles.
//   8. Time series + availability: window-edge events land in the next
//      window, quiet stretches are explicit zero windows, the derived
//      TTFC / trough numbers match a hand-built crash schedule, trough
//      spans are sized from the steady commit rate, and Reboot-All's
//      whole-machine outage shows as a trough of at least 50 ms.
//   9. Observatory determinism: its histograms are identical run to run
//      at every recovery stream count.
//  10. LogStats now stores force batches in a Histogram; the classic
//      bucket counters derived from it match the old classification.
//  11. Plane neutrality: the StateDigest, commits and simulated time are
//      bit-identical with every view (trace, observatory, profiler) on vs
//      off (steal flushes included); sweeper discharges attribute under
//      the sweep root, and the collapsed-stack / JSON exports are
//      well-formed.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzzer.h"
#include "obs/forensics.h"
#include "obs/histogram.h"
#include "obs/instruments.h"
#include "obs/metrics.h"
#include "obs/observatory.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "workload/harness.h"

namespace smdb {
namespace {

HarnessConfig TracedConfig(uint32_t recovery_streams) {
  HarnessConfig cfg;
  cfg.db.machine.num_nodes = 6;
  cfg.db.recovery = RecoveryConfig::VolatileSelectiveRedo();
  cfg.db.recovery.recovery_streams = recovery_streams;
  cfg.db.obs.trace = true;
  cfg.workload.txns_per_node = 12;
  cfg.workload.ops_per_txn = 6;
  cfg.workload.write_ratio = 0.6;
  cfg.workload.index_op_ratio = 0.2;
  cfg.workload.seed = 4242;
  cfg.crashes.push_back(CrashPlan{120, {2}, /*restart_after=*/true});
  cfg.crashes.push_back(CrashPlan{260, {4}, /*restart_after=*/false});
  return cfg;
}

std::vector<TraceEvent> RunAndCollect(uint32_t recovery_streams) {
  Harness h(TracedConfig(recovery_streams));
  auto report = h.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->verify_status.ok())
      << report->verify_status.ToString();
  return h.db().instruments().tracer().AllEvents();
}

void ExpectIdenticalTraces(const std::vector<TraceEvent>& a,
                           const std::vector<TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // The JSON form carries every field but begin_ts.
    EXPECT_EQ(TraceEventJson(a[i]).Dump(), TraceEventJson(b[i]).Dump())
        << "event " << i;
    EXPECT_EQ(a[i].begin_ts, b[i].begin_ts) << "event " << i;
  }
}

TEST(TraceDeterminism, SameSeedSameEventsAtOneAndFourRecoveryStreams) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  for (uint32_t streams : {1u, 4u}) {
    SCOPED_TRACE("streams " + std::to_string(streams));
    std::vector<TraceEvent> first = RunAndCollect(streams);
    std::vector<TraceEvent> second = RunAndCollect(streams);
    ASSERT_FALSE(first.empty());
    ExpectIdenticalTraces(first, second);
  }
}

TEST(TraceDeterminism, RunCoversTheInstrumentedSubsystems) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  std::vector<TraceEvent> events = RunAndCollect(1);
  std::set<TraceEventKind> kinds;
  for (const TraceEvent& ev : events) kinds.insert(ev.kind);
  // A crashing update-heavy workload must cross all the major families:
  // coherence traffic, WAL appends + forces, txn lifecycle, locks, the
  // crash itself, and recovery-phase spans with tag-scan decisions.
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLogAppend));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLogForce));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kTxnBegin));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kTxnCommit));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLockAcquire));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kLockRelease));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kCrash));
  EXPECT_TRUE(kinds.contains(TraceEventKind::kRecoveryPhase));
  bool coherence = kinds.contains(TraceEventKind::kMigration) ||
                   kinds.contains(TraceEventKind::kReplication) ||
                   kinds.contains(TraceEventKind::kInvalidation);
  EXPECT_TRUE(coherence) << "no coherence events on a shared workload";
}

TEST(TraceRecorderRing, DropOldestKeepsTheNewestAndCounts) {
  TraceRecorder rec(/*num_nodes=*/2, /*capacity_per_node=*/8);
  for (uint64_t i = 0; i < 20; ++i) {
    rec.Record({.kind = TraceEventKind::kLogAppend, .node = 0, .a = i});
  }
  std::vector<TraceEvent> kept = rec.Events(0);
  ASSERT_EQ(kept.size(), 8u);
  for (size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].a, 12 + i) << "ring must keep the newest 8";
  }
  EXPECT_EQ(rec.dropped(0), 12u);
  EXPECT_EQ(rec.dropped(1), 0u);
  EXPECT_EQ(rec.total_dropped(), 12u);
  EXPECT_EQ(rec.total_recorded(), 20u);
  // Tail returns the last n, oldest first.
  std::vector<TraceEvent> tail = rec.Tail(0, 3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].a, 17u);
  EXPECT_EQ(tail[2].a, 19u);
}

TEST(TraceRecorderRing, OutOfRangeNodeClampsToRingZero) {
  TraceRecorder rec(/*num_nodes=*/2, /*capacity_per_node=*/8);
  rec.Record({.kind = TraceEventKind::kCrash, .node = 77});
  std::vector<TraceEvent> ring0 = rec.Events(0);
  ASSERT_EQ(ring0.size(), 1u);
  EXPECT_EQ(ring0[0].node, 77);  // original node id preserved in the event
  EXPECT_EQ(rec.total_recorded(), 1u);
}

// One emission reaches every enabled view: the ring records the event and
// the observatory folds the same event into its aggregates.
TEST(Instruments, OneEmissionFeedsTheRingAndTheObservatory) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  ObsConfig oc;
  oc.trace = true;
  oc.latency = true;
  Instruments inst(/*num_nodes=*/2, oc);
  SMDB_EMIT(&inst, {.kind = TraceEventKind::kTxnBegin, .node = 1, .txn = 7,
                    .ts = 105, .begin_ts = 100});
  SMDB_EMIT(&inst, {.kind = TraceEventKind::kTxnCommit, .node = 1, .txn = 7,
                    .ts = 160, .begin_ts = 100});
  std::vector<TraceEvent> ring = inst.tracer().Events(1);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[1].kind, TraceEventKind::kTxnCommit);
  LatencyReport rep = inst.observatory().Snapshot();
  ASSERT_EQ(rep.commit_latency.count(), 1u);
  EXPECT_EQ(rep.commit_latency.max(), 60u) << "latency = ts - begin_ts";

  // A null plane is a no-op; with every view off, or only the
  // observatory on, nothing lands in the ring.
  SMDB_EMIT(static_cast<Instruments*>(nullptr),
            {.kind = TraceEventKind::kCrash, .node = 0});
  Instruments off(/*num_nodes=*/1, ObsConfig{});
  SMDB_EMIT(&off, {.kind = TraceEventKind::kCrash, .node = 0});
  EXPECT_EQ(off.tracer().total_recorded(), 0u);
  ObsConfig latency_only;
  latency_only.latency = true;
  Instruments quiet(/*num_nodes=*/2, latency_only);
  SMDB_EMIT(&quiet, {.kind = TraceEventKind::kTxnBegin, .txn = 1});
  EXPECT_EQ(quiet.tracer().total_recorded(), 0u);
  EXPECT_EQ(quiet.observatory().Snapshot().series.windows().size(), 1u);
}

TEST(ChromeTrace, ExportIsWellFormedWithPerNodeTracks) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  Harness h(TracedConfig(1));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto parsed =
      json::Value::Parse(h.db().instruments().tracer().ToChromeTrace());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array().empty());

  size_t thread_names = 0;
  size_t recovery_spans = 0;
  for (const json::Value& ev : events->array()) {
    ASSERT_TRUE(ev.is_object());
    const std::string ph = ev.GetString("ph");
    ASSERT_FALSE(ph.empty());
    ASSERT_NE(ev.Find("name"), nullptr);
    ASSERT_NE(ev.Find("pid"), nullptr);
    ASSERT_NE(ev.Find("tid"), nullptr);
    if (ph != "M") {
      ASSERT_NE(ev.Find("ts"), nullptr);
    }
    if (ph == "M" && ev.GetString("name") == "thread_name") ++thread_names;
    if (ph == "X") {
      ASSERT_NE(ev.Find("dur"), nullptr);
      const std::string name = ev.GetString("name");
      if (name == "recovery" || name == "redo" || name == "undo" ||
          name == "tag_scan" || name == "reload" || name == "reboot" ||
          name == "lock_rebuild" || name == "log_analysis") {
        ++recovery_spans;
      }
    }
  }
  EXPECT_EQ(thread_names, 6u) << "one metadata track per node";
  EXPECT_GT(recovery_spans, 0u) << "no recovery-phase spans in the export";
}

TEST(StatsParity, MachineStatsToStringCoversTheVisitorFieldSet) {
  MachineStats s;
  std::string dump = s.ToString();
  size_t visited = 0;
  ForEachCounter(s, [&](const char* name, uint64_t) {
    ++visited;
    EXPECT_NE(dump.find(std::string(name) + "="), std::string::npos)
        << "field " << name << " missing from MachineStats::ToString";
  });
  // Every name=value token in the dump corresponds to a visited field.
  size_t tokens = 0;
  for (size_t pos = dump.find('='); pos != std::string::npos;
       pos = dump.find('=', pos + 1)) {
    ++tokens;
  }
  EXPECT_EQ(tokens, visited);
  EXPECT_GE(visited, 10u);
}

TEST(StatsParity, LogStatsToStringCoversTheVisitorFieldSet) {
  LogStats s;
  std::string dump = s.ToString();
  size_t visited = 0;
  ForEachCounter(s, [&](const auto& name, uint64_t) {
    ++visited;
    EXPECT_NE(dump.find(std::string(name) + "="), std::string::npos)
        << "field " << std::string(name)
        << " missing from LogStats::ToString";
  });
  size_t tokens = 0;
  for (size_t pos = dump.find('='); pos != std::string::npos;
       pos = dump.find('=', pos + 1)) {
    ++tokens;
  }
  EXPECT_EQ(tokens, visited);
  // 6 scalars + 8 histogram buckets.
  EXPECT_EQ(visited, 6u + LogStats::kBatchBuckets);
}

TEST(Metrics, SnapshotUnifiesEverySubsystemAndRecoveryPhases) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  Harness h(TracedConfig(1));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->recoveries.empty());

  MetricsRegistry reg = MetricsRegistry::FromReport(*report);
  reg.AddTrace(h.db().instruments().tracer());
  json::Value snap = reg.ToJson();
  ASSERT_TRUE(snap.is_object());

  // One representative key per subsystem prefix.
  for (const char* key :
       {"machine.reads", "machine.migrations", "wal.appends", "wal.forces",
        "txn.undo_tag_writes", "locks.acquires", "btree.splits",
        "exec.committed", "disk.reads", "run.steps", "run.total_time_ns",
        "recovery.count", "trace.recorded", "trace.dropped"}) {
    EXPECT_NE(snap.Find(key), nullptr) << "missing " << key;
  }
  // The per-recovery phase gauges exist for every phase name.
  for (const char* phase : {"log_analysis", "reboot", "reload", "redo",
                            "undo", "tag_scan", "lock_rebuild"}) {
    std::string key = std::string("recovery.0.phase.") + phase + "_ns";
    EXPECT_NE(snap.Find(key), nullptr) << "missing " << key;
  }
  EXPECT_EQ(snap.GetUint("recovery.count"), report->recoveries.size());
  EXPECT_EQ(snap.GetUint("exec.committed"), report->exec.committed);
  EXPECT_GT(snap.GetUint("trace.recorded"), 0u);

  // The snapshot serializes and parses back.
  auto reparsed = json::Value::Parse(snap.Dump(1));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->members().size(), snap.members().size());
}

TEST(Metrics, PhaseDurationsSumIntoRecoveryTime) {
  // On demand without a sweeper, the first window stays open until the
  // second crash supersedes it and the second until the final drain: each
  // ledger closes late and carries drain phases timed long after the crash.
  HarnessConfig on_demand = TracedConfig(1);
  on_demand.db.recovery.on_demand = true;
  on_demand.pump_recovery_per_step = 0;
  for (const HarnessConfig& cfg : {TracedConfig(1), on_demand}) {
    SCOPED_TRACE(cfg.db.recovery.on_demand ? "on-demand" : "eager");
    Harness h(cfg);
    auto report = h.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->recoveries.size(), 2u);
    for (const RecoveryOutcome& out : report->recoveries) {
      SimTime phase_total = 0;
      for (SimTime ns : out.phase_ns) phase_total += ns;
      EXPECT_GT(phase_total, 0u);
      EXPECT_LE(phase_total, out.recovery_time_ns)
          << "phase spans exceed the recovery envelope: " << out.ToString();
      // The ToString dump now carries the nonzero phases.
      std::string dump = out.ToString();
      EXPECT_NE(dump.find("_ns="), std::string::npos) << dump;
    }
  }
}

TEST(Forensics, IfaViolationYieldsABoundedReportInsideTheReplay) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  opts.disable_undo_tagging = true;
  opts.trace_capacity = 512;
  CrashScheduleFuzzer fuzzer(opts);

  std::optional<FuzzFailure> failure;
  for (uint64_t seed = 0; seed < 60 && !failure.has_value(); ++seed) {
    failure = fuzzer.RunSeed(seed);
  }
  ASSERT_TRUE(failure.has_value())
      << "disabled undo tagging was not detected within 60 seeds";
  ASSERT_EQ(failure->verdict.kind, "ifa-verify") << failure->verdict.detail;

  FuzzCase shrunk = fuzzer.Shrink(*failure);
  json::Value forensics = fuzzer.CollectForensics(*failure, shrunk);
  EXPECT_TRUE(forensics.GetBool("reproduced"));
  const json::Value* violation = forensics.Find("violation");
  ASSERT_NE(violation, nullptr);
  ASSERT_TRUE(violation->is_object()) << "violation not captured";
  EXPECT_FALSE(violation->GetString("detail").empty());

  const json::Value* tails = forensics.Find("trace_tails");
  ASSERT_NE(tails, nullptr);
  ASSERT_TRUE(tails->is_array());
  size_t tail_events = 0;
  for (const json::Value& node : tails->array()) {
    tail_events += node.Find("events")->array().size();
  }
  EXPECT_GT(tail_events, 0u) << "forensic report has empty trace tails";

  // The log chain may legitimately be empty — the offending update's log
  // record can die in the crashed node's volatile tail (the paper's
  // failure mode itself) — but the object's lock history comes from the
  // trace, which a simulated crash cannot destroy: a record violation
  // implies somebody locked and updated it.
  const json::Value* chain = forensics.Find("log_chain");
  ASSERT_NE(chain, nullptr);
  ASSERT_NE(chain->Find("total"), nullptr);
  const json::Value* object_events = forensics.Find("object_events");
  ASSERT_NE(object_events, nullptr);
  EXPECT_FALSE(object_events->array().empty())
      << "no lock history for the violated object in the trace";
  ASSERT_NE(forensics.Find("locks"), nullptr);
  ASSERT_NE(forensics.Find("tag_decisions"), nullptr);

  // The report is embedded in the replay document, and the observability
  // settings round-trip through ParseReplay.
  std::string replay = fuzzer.ReplayJson(*failure, shrunk, &forensics);
  auto raw = json::Value::Parse(replay);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  const json::Value* embedded = raw->Find("forensics");
  ASSERT_NE(embedded, nullptr);
  EXPECT_TRUE(embedded->GetBool("reproduced"));
  auto doc = CrashScheduleFuzzer::ParseReplay(replay);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->forensics_enabled);
  EXPECT_EQ(doc->trace_capacity, 512u);
}

TEST(Forensics, PerSeedCampaignAggregatesCoverEveryCounter) {
  CrashScheduleFuzzer::Options opts;
  FuzzCampaignResult result = RunFuzzCampaign(opts, 0, 6, 2);
  ASSERT_FALSE(result.failure.has_value());
  ASSERT_EQ(result.per_seed.size(), 6u);

  // Merging the per-seed blocks reproduces the campaign totals.
  FuzzStats remerged;
  for (const FuzzStats& s : result.per_seed) remerged.Merge(s);
  EXPECT_EQ(remerged.runs, result.stats.runs);
  EXPECT_EQ(remerged.committed, result.stats.committed);

  json::Value agg = PerSeedAggregateJson(result.per_seed);
  EXPECT_EQ(agg.GetUint("seeds"), 6u);
  FuzzStats probe;
  probe.ForEachCounter([&](const char* name, uint64_t) {
    const json::Value* entry = agg.Find(name);
    ASSERT_NE(entry, nullptr) << "aggregate missing " << name;
    EXPECT_NE(entry->Find("min"), nullptr);
    EXPECT_NE(entry->Find("max"), nullptr);
    EXPECT_NE(entry->Find("mean"), nullptr);
  });
  // min <= mean <= max on a counter that definitely varies.
  const json::Value* runs = agg.Find("runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_LE(runs->GetUint("min"), runs->GetUint("max"));
  EXPECT_GE(runs->GetDouble("mean"),
            static_cast<double>(runs->GetUint("min")));
  EXPECT_LE(runs->GetDouble("mean"),
            static_cast<double>(runs->GetUint("max")));
}

// ---- Latency observatory (histograms, time series, availability) -------

HarnessConfig ObservedConfig(uint32_t recovery_streams, bool obs_on) {
  HarnessConfig cfg = TracedConfig(recovery_streams);
  cfg.db.obs.trace = false;
  cfg.db.obs.latency = obs_on;
  return cfg;
}

TEST(LatencyHistogram, MergeIsPartitionAndOrderInvariant) {
  // Deterministic value stream spanning both the exact (<128) and the
  // log-bucketed range.
  std::vector<uint64_t> values;
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(x % (i % 3 == 0 ? 100 : 10'000'000));
  }
  Histogram whole;
  for (uint64_t v : values) whole.Record(v);

  for (size_t width : {size_t{1}, size_t{4}, size_t{8}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // Round-robin partitioning into per-shard histograms.
    std::vector<Histogram> shards(width);
    for (size_t i = 0; i < values.size(); ++i) {
      shards[i % width].Record(values[i]);
    }
    Histogram forward;
    for (const Histogram& s : shards) forward.Merge(s);
    Histogram reverse;
    for (size_t i = shards.size(); i-- > 0;) reverse.Merge(shards[i]);

    EXPECT_TRUE(forward == whole) << "merge order changed the counts";
    EXPECT_TRUE(reverse == whole);
    EXPECT_EQ(forward.count(), values.size());
    EXPECT_EQ(forward.P50(), whole.P50());
    EXPECT_EQ(forward.P90(), whole.P90());
    EXPECT_EQ(forward.P99(), whole.P99());
    EXPECT_EQ(forward.P999(), whole.P999());
    EXPECT_EQ(forward.min(), whole.min());
    EXPECT_EQ(forward.max(), whole.max());
    EXPECT_EQ(forward.sum(), whole.sum());
  }
}

TEST(LatencyHistogram, ExactBelowSubBucketsBoundedErrorAbove) {
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    size_t idx = Histogram::CountsIndex(v);
    EXPECT_EQ(Histogram::LowestEquivalent(idx), v) << "unit bucket expected";
    EXPECT_EQ(Histogram::HighestEquivalent(idx), v);
    h.Record(v);
  }
  EXPECT_EQ(h.CountInRange(0, Histogram::kSubBuckets - 1),
            uint64_t{Histogram::kSubBuckets});
  // Above the exact range the representative overshoots by at most 1/64.
  for (uint64_t v : {1'000ULL, 123'456ULL, 7'000'000'000ULL}) {
    size_t idx = Histogram::CountsIndex(v);
    uint64_t lo = Histogram::LowestEquivalent(idx);
    uint64_t hi = Histogram::HighestEquivalent(idx);
    EXPECT_LE(lo, v);
    EXPECT_GE(hi, v);
    EXPECT_LE(double(hi - lo), double(lo) / 64.0 + 1.0);
  }
  // Percentiles report the max exactly (the representative is clamped).
  h.Record(999);
  EXPECT_EQ(h.ValueAtPercentile(100.0), 999u);
  EXPECT_EQ(Histogram().P99(), 0u) << "empty histogram percentile";
}

TEST(TimeSeriesWindows, EdgeEventsAndEmptyWindowsAreExplicit) {
  TimeSeries ts(/*window_ns=*/100);
  ts.OnCommit(99);    // window 0
  ts.OnCommit(100);   // exactly on the edge -> window 1, not 0
  ts.OnCommit(950);   // window 9
  ts.OnBegin(950);
  ts.NoteInflight(950, 3);
  ASSERT_EQ(ts.windows().size(), 10u) << "windows are dense from t=0";
  EXPECT_EQ(ts.windows()[0].commits, 1u);
  EXPECT_EQ(ts.windows()[1].commits, 1u);
  for (size_t w = 2; w <= 8; ++w) {
    EXPECT_EQ(ts.windows()[w].commits, 0u) << "window " << w
                                           << " must be an explicit zero";
  }
  EXPECT_EQ(ts.windows()[9].commits, 1u);
  EXPECT_EQ(ts.windows()[9].max_inflight, 3u);
  EXPECT_EQ(ts.WindowIndex(200), 2u);
  EXPECT_EQ(ts.WindowStart(9), 900u);
  EXPECT_DOUBLE_EQ(ts.Tps(0), 1e9 / 100.0);
  EXPECT_DOUBLE_EQ(ts.Tps(5), 0.0);
}

TEST(TimeSeriesWindows, TroughWithCrashExactlyOnAWindowEdge) {
  TimeSeries s(/*window_ns=*/100);
  // Steady state: 4 commits per window for windows 0..4.
  for (SimTime w = 0; w < 5; ++w) {
    for (SimTime off : {10, 30, 50, 70}) s.OnCommit(w * 100 + off);
  }
  // Post-crash: two stragglers during the outage, then a recovered burst.
  s.OnCommit(760);
  s.OnCommit(900);
  for (SimTime t : {1500, 1520, 1540, 1560}) s.OnCommit(t);

  CrashAvailability ca;
  ca.crash_ts = 500;  // exactly on the window 4|5 boundary
  ComputeThroughputTrough(s, &ca);
  // Steady rate comes from windows strictly before the crash window: 4
  // commits / 100ns window.
  EXPECT_DOUBLE_EQ(ca.steady_tps, 4e7);
  // Trough: windows 5..14 all stay below half of steady (the straggler
  // windows hold 1 < 2); the burst window 15 ends it. Its depth is the
  // mean rate inside it: 2 stragglers over 10 windows.
  EXPECT_EQ(ca.trough_windows, 10u);
  EXPECT_EQ(ca.trough_duration_ns, 1000u);
  EXPECT_DOUBLE_EQ(ca.trough_tps, 0.2 * 1e9 / 100.0);
  EXPECT_DOUBLE_EQ(ca.depth_pct, 95.0);

  // Crash at t=0: no pre-crash windows, steady falls back to the
  // whole-series mean and the busy first window means no trough at all.
  CrashAvailability at_zero;
  at_zero.crash_ts = 0;
  ComputeThroughputTrough(s, &at_zero);
  EXPECT_DOUBLE_EQ(at_zero.steady_tps, 26.0 / 16.0 * 1e7);
  EXPECT_EQ(at_zero.trough_windows, 0u);
}

// Drives an Observatory with the events the emission sites send.
struct ObsFeed {
  Observatory& obs;

  void Send(TraceEventKind kind, NodeId node, TxnId txn, SimTime ts,
            uint64_t a = 0, SimTime begin_ts = 0) {
    obs.Consume({.kind = kind, .node = node, .txn = txn, .ts = ts, .a = a,
                 .begin_ts = begin_ts});
  }
  void Begin(NodeId n, TxnId t, SimTime ts) {
    Send(TraceEventKind::kTxnBegin, n, t, ts, 0, ts);
  }
  /// `latency` = ts - the transaction's begin time.
  void Commit(NodeId n, TxnId t, SimTime ts, SimTime latency) {
    Send(TraceEventKind::kTxnCommit, n, t, ts, 0, ts - latency);
  }
  void Crash(NodeId n, SimTime ts) {
    Send(TraceEventKind::kCrash, n, kInvalidTxn, ts);
  }
  void NodeUp(NodeId n, SimTime ts) {
    Send(TraceEventKind::kNodeUp, n, kInvalidTxn, ts);
  }
  void RecoveryStart(SimTime ts) {
    Send(TraceEventKind::kRecoveryStart, 0, kInvalidTxn, ts);
  }
  void RecoveryEnd(SimTime ts) {
    Send(TraceEventKind::kRecoveryEnd, 0, kInvalidTxn, ts);
  }
  void LockQueued(TxnId t, uint64_t name, SimTime ts) {
    Send(TraceEventKind::kLockQueued, 0, t, ts, name);
  }
  void LockGranted(TxnId t, uint64_t name, SimTime ts) {
    Send(TraceEventKind::kLockAcquire, 0, t, ts, name);
  }
};

TEST(Availability, HandBuiltCrashScheduleYieldsKnownTtfc) {
  ObsConfig oc;
  oc.latency = true;
  oc.window_ns = 100;
  oc.crash_influence_ns = 500;
  Observatory obs(/*num_nodes=*/4, oc);
  ObsFeed feed{obs};

  // Steady phase: 4 commits per window for windows 0..4, latency 40 each.
  TxnId next = 1;
  for (SimTime w = 0; w < 5; ++w) {
    for (SimTime off : {10, 30, 50, 70}) {
      TxnId t = next++;
      feed.Begin(0, t, w * 100 + off);
      feed.Commit(0, t, w * 100 + off, /*latency=*/40);
    }
  }
  // Node 1 crashes at t=500; recovery runs 500..700; the node restarts at
  // 650 (mid-pass, as RestartNodes does).
  feed.Crash(1, 500);
  feed.RecoveryStart(500);
  feed.NodeUp(1, 650);
  feed.RecoveryEnd(700);
  // First commit anywhere after the crash: node 2 at t=760.
  feed.Begin(2, next, 720);
  feed.Commit(2, next++, 760, 40);
  // First commit on the restarted node: t=900.
  feed.Begin(1, next, 800);
  feed.Commit(1, next++, 900, 100);
  // Recovered burst well past the crash shadow (ends 700 + 500 = 1200).
  for (SimTime t : {1500, 1520, 1540, 1560}) {
    feed.Begin(0, next, t - 40);
    feed.Commit(0, next++, t, 40);
  }

  LatencyReport rep = obs.Snapshot();
  ASSERT_TRUE(rep.enabled);
  ASSERT_EQ(rep.availability.crashes.size(), 1u);
  const CrashAvailability& c = rep.availability.crashes[0];
  EXPECT_EQ(c.crash_ts, 500u);
  EXPECT_EQ(c.recovery_end_ts, 700u);
  EXPECT_TRUE(c.saw_commit_after);
  EXPECT_EQ(c.ttfc_ns(), 260u) << "first commit at 760, crash at 500";
  ASSERT_EQ(c.node_ttfc.size(), 1u);
  EXPECT_EQ(c.node_ttfc[0].node, 1u);
  EXPECT_TRUE(c.node_ttfc[0].committed);
  EXPECT_EQ(c.node_ttfc[0].ttfc_ns(), 250u) << "restart 650, commit 900";
  EXPECT_EQ(c.trough_windows, 10u);
  EXPECT_DOUBLE_EQ(c.depth_pct, 95.0) << "2 commits in 10 windows";

  // Latency split: the 2 commits inside the crash shadow vs 24 steady.
  EXPECT_EQ(rep.commit_latency.count(), 26u);
  EXPECT_EQ(rep.commit_through_crash.count(), 2u);
  EXPECT_EQ(rep.commit_steady.count(), 24u);
  EXPECT_EQ(rep.commit_steady.P50(), 40u);
  EXPECT_EQ(rep.commit_through_crash.max(), 100u);

  // Node-state timeline: down@500(n1), survivors recovering@500 (n0,2,3),
  // restarted node recovering@650, everyone serving@700.
  ASSERT_EQ(rep.node_states.size(), 9u);
  EXPECT_EQ(rep.node_states[0].node, 1u);
  EXPECT_EQ(rep.node_states[0].state, NodeServiceState::kDown);
  EXPECT_EQ(rep.node_states[0].ts, 500u);
  EXPECT_EQ(rep.node_states[4].node, 1u);
  EXPECT_EQ(rep.node_states[4].state, NodeServiceState::kRecovering);
  EXPECT_EQ(rep.node_states[4].ts, 650u);
  for (size_t i = 5; i < 9; ++i) {
    EXPECT_EQ(rep.node_states[i].state, NodeServiceState::kServing);
    EXPECT_EQ(rep.node_states[i].ts, 700u);
  }
}

// The trough sees a whole-machine outage: after one node crashes, Reboot-All
// stalls every node for the reboot and redo (about 55 ms on this schedule),
// while Selective Redo stalls the survivors only for its recovery pass.
TEST(Availability, RebootAllShowsATroughOfAtLeast50Ms) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  // smdb_run --nodes=8 --protocol=P --txns=100 --crash=400:3:r
  auto first_crash = [](const RecoveryConfig& rc) {
    HarnessConfig cfg;
    cfg.db.machine.num_nodes = 8;
    cfg.db.recovery = rc;
    cfg.db.obs.latency = true;
    cfg.workload.txns_per_node = 100;
    cfg.crashes.push_back(CrashPlan{400, {3}, /*restart_after=*/true});
    Harness h(cfg);
    auto report = h.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->latency.availability.crashes.size(), 1u);
    return report->latency.availability.crashes.at(0);
  };
  CrashAvailability reboot = first_crash(RecoveryConfig::BaselineRebootAll());
  EXPECT_GE(reboot.ttfc_ns(), 50'000'000u);
  EXPECT_GE(reboot.trough_duration_ns, 50'000'000u);
  EXPECT_DOUBLE_EQ(reboot.depth_pct, 100.0);
  CrashAvailability ifa = first_crash(RecoveryConfig::VolatileSelectiveRedo());
  EXPECT_GT(ifa.trough_duration_ns, 0u);
  EXPECT_LT(ifa.trough_duration_ns, reboot.trough_duration_ns);
}

TEST(Availability, RestartedNodeThatNeverCommitsIsReportedUncommitted) {
  ObsConfig oc;
  oc.latency = true;
  Observatory obs(/*num_nodes=*/2, oc);
  ObsFeed feed{obs};
  feed.Begin(0, 1, 10);
  feed.Commit(0, 1, 50, 40);
  feed.Crash(1, 100);
  feed.RecoveryStart(100);
  feed.NodeUp(1, 150);
  feed.RecoveryEnd(200);
  // No commits after the crash at all.
  LatencyReport rep = obs.Snapshot();
  ASSERT_EQ(rep.availability.crashes.size(), 1u);
  const CrashAvailability& c = rep.availability.crashes[0];
  EXPECT_FALSE(c.saw_commit_after);
  EXPECT_EQ(c.ttfc_ns(), 0u);
  ASSERT_EQ(c.node_ttfc.size(), 1u);
  EXPECT_EQ(c.node_ttfc[0].node, 1u);
  EXPECT_FALSE(c.node_ttfc[0].committed);
  EXPECT_EQ(c.node_ttfc[0].ttfc_ns(), 0u);
}

TEST(Availability, LockContentionProfileRanksAndClearsPendingWaits) {
  ObsConfig oc;
  oc.latency = true;
  oc.top_contended = 2;
  Observatory obs(/*num_nodes=*/1, oc);
  ObsFeed feed{obs};
  feed.Begin(0, 1, 0);
  feed.Begin(0, 2, 0);
  // Lock 777: two waits totalling 180ns; lock 888: one wait of 130ns.
  feed.LockQueued(1, 777, 10);
  feed.LockGranted(1, 777, 60);  // wait 50
  feed.LockQueued(2, 777, 70);
  feed.LockGranted(2, 777, 200);  // wait 130
  feed.LockQueued(1, 888, 70);
  feed.LockGranted(1, 888, 200);  // wait 130
  // A grant that was never queued is ignored.
  feed.LockGranted(9, 123, 10);
  // A wait still pending when the txn ends must not dangle: the later
  // grant no longer matches anything.
  feed.LockQueued(1, 999, 300);
  feed.Commit(0, 1, 400, 400);
  feed.LockGranted(1, 999, 900);

  LatencyReport rep = obs.Snapshot();
  EXPECT_EQ(rep.lock_wait.count(), 3u);
  EXPECT_EQ(rep.lock_wait.max(), 130u);
  ASSERT_EQ(rep.top_contended.size(), 2u);
  EXPECT_EQ(rep.top_contended[0].name, 777u);
  EXPECT_EQ(rep.top_contended[0].waits, 2u);
  EXPECT_EQ(rep.top_contended[0].total_wait_ns, 180u);
  EXPECT_EQ(rep.top_contended[0].max_wait_ns, 130u);
  EXPECT_DOUBLE_EQ(rep.top_contended[0].mean_wait_ns(), 90.0);
  EXPECT_EQ(rep.top_contended[1].name, 888u);
  EXPECT_EQ(rep.top_contended[1].total_wait_ns, 130u);

  // Duplicate completion of an already-finished txn is a no-op.
  feed.Commit(0, 1, 500, 500);
  EXPECT_EQ(obs.Snapshot().commit_latency.count(), 1u);
}

TEST(Metrics, LatencyAvailabilityAndContentionKeysAreStable) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  Harness h(ObservedConfig(1, /*obs_on=*/true));
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->latency.enabled);
  ASSERT_FALSE(report->recoveries.empty());

  json::Value snap = MetricsRegistry::FromReport(*report).ToJson();
  for (const char* hist : {"commit", "abort", "lock_wait", "gc_residency",
                           "commit_steady", "commit_through_crash"}) {
    for (const char* stat : {"count", "mean_ns", "p50_ns", "p90_ns",
                             "p99_ns", "p999_ns", "max_ns"}) {
      std::string key = std::string("latency.") + hist + "." + stat;
      EXPECT_NE(snap.Find(key), nullptr) << "missing " << key;
    }
  }
  EXPECT_GT(snap.GetUint("latency.commit.count"), 0u);
  ASSERT_NE(snap.Find("availability.crashes"), nullptr);
  EXPECT_EQ(snap.GetUint("availability.crashes"),
            report->recoveries.size());
  for (size_t i = 0; i < report->recoveries.size(); ++i) {
    const std::string p = "availability." + std::to_string(i) + ".";
    for (const char* leaf : {"crash_ts_ns", "recovery_end_ts_ns", "ttfc_ns",
                             "steady_tps", "trough_depth_pct",
                             "trough_duration_ns"}) {
      EXPECT_NE(snap.Find(p + leaf), nullptr) << "missing " << p << leaf;
    }
  }
  ASSERT_NE(snap.Find("locks.contention.count"), nullptr);

  // The full latency report serializes and exposes its stable sections.
  auto parsed = json::Value::Parse(report->latency.ToJson().Dump(1));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const char* key : {"latency", "series", "availability",
                          "node_state_transitions", "lock_contention"}) {
    EXPECT_NE(parsed->Find(key), nullptr) << "missing section " << key;
  }

  // With the observatory off the latency keys vanish rather than showing
  // up zeroed — downstream dashboards can key off presence.
  Harness off(ObservedConfig(1, /*obs_on=*/false));
  auto off_report = off.Run();
  ASSERT_TRUE(off_report.ok()) << off_report.status().ToString();
  EXPECT_FALSE(off_report->latency.enabled);
  json::Value off_snap = MetricsRegistry::FromReport(*off_report).ToJson();
  EXPECT_EQ(off_snap.Find("latency.commit.count"), nullptr);
  EXPECT_EQ(off_snap.Find("availability.crashes"), nullptr);
}

TEST(ObservatoryDeterminism, HistogramsInvariantAcrossRecoveryStreams) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  auto run = [](uint32_t streams) {
    Harness h(ObservedConfig(streams, /*obs_on=*/true));
    auto report = h.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report->latency;
  };
  // At every stream count a repeated run yields a bit-identical report —
  // every histogram, the availability timeline, and the contention
  // ranking. (recovery_streams models simulated partitioned recovery,
  // which by design shortens the recovery envelope; across stream counts,
  // the quantities derived from the identical pre-crash execution must
  // agree exactly.)
  LatencyReport w1 = run(1);
  std::vector<LatencyReport> reports;
  for (uint32_t streams : {1u, 4u, 8u}) {
    SCOPED_TRACE("streams " + std::to_string(streams));
    LatencyReport a = run(streams);
    LatencyReport b = run(streams);
    ASSERT_GT(a.commit_latency.count(), 0u);
    EXPECT_TRUE(a.commit_latency == b.commit_latency);
    EXPECT_TRUE(a.abort_latency == b.abort_latency);
    EXPECT_TRUE(a.lock_wait == b.lock_wait);
    EXPECT_TRUE(a.gc_residency == b.gc_residency);
    EXPECT_TRUE(a.commit_steady == b.commit_steady);
    EXPECT_TRUE(a.commit_through_crash == b.commit_through_crash);
    EXPECT_EQ(a.commit_latency.P99(), b.commit_latency.P99());
    EXPECT_EQ(a.commit_latency.P999(), b.commit_latency.P999());
    ASSERT_EQ(a.availability.crashes.size(), b.availability.crashes.size());
    for (size_t i = 0; i < a.availability.crashes.size(); ++i) {
      EXPECT_EQ(a.availability.crashes[i].ttfc_ns(),
                b.availability.crashes[i].ttfc_ns());
      EXPECT_EQ(a.availability.crashes[i].trough_windows,
                b.availability.crashes[i].trough_windows);
    }
    ASSERT_EQ(a.top_contended.size(), b.top_contended.size());
    for (size_t i = 0; i < a.top_contended.size(); ++i) {
      EXPECT_EQ(a.top_contended[i].name, b.top_contended[i].name);
      EXPECT_EQ(a.top_contended[i].total_wait_ns,
                b.top_contended[i].total_wait_ns);
    }
    reports.push_back(std::move(a));
  }
  // Across stream counts: the same transactions commit (state equivalence,
  // per the differential oracle), and everything anchored
  // before the first crash is timing-identical — the crash instant and the
  // steady throughput derived from the pre-crash windows.
  for (size_t i = 1; i < reports.size(); ++i) {
    SCOPED_TRACE("cross-stream report " + std::to_string(i));
    EXPECT_EQ(reports[i].commit_latency.count(),
              w1.commit_latency.count());
    EXPECT_EQ(reports[i].abort_latency.count(), w1.abort_latency.count());
    ASSERT_EQ(reports[i].availability.crashes.size(),
              w1.availability.crashes.size());
    ASSERT_FALSE(w1.availability.crashes.empty());
    EXPECT_EQ(reports[i].availability.crashes[0].crash_ts,
              w1.availability.crashes[0].crash_ts);
    EXPECT_DOUBLE_EQ(reports[i].availability.crashes[0].steady_tps,
                     w1.availability.crashes[0].steady_tps);
  }
}

TEST(StatsParity, ForceBatchHistogramMatchesTheClassicBuckets) {
  LogStats s;
  uint64_t manual[LogStats::kBatchBuckets] = {};
  for (uint64_t n = 1; n <= 200; ++n) {
    s.force_batches.Record(n);
    size_t b = LogStats::BatchBucket(n);
    ++manual[b];
    auto [lo, hi] = LogStats::BatchBucketRange(b);
    EXPECT_GE(n, lo) << "bucket range excludes its own member";
    EXPECT_LE(n, hi);
  }
  uint64_t total = 0;
  for (size_t b = 0; b < LogStats::kBatchBuckets; ++b) {
    EXPECT_EQ(s.force_batch_bucket(b), manual[b]) << "bucket " << b << " ("
                                                  << LogStats::BatchBucketLabel(b)
                                                  << ")";
    total += s.force_batch_bucket(b);
  }
  EXPECT_EQ(total, 200u) << "derived buckets must partition the recordings";
  EXPECT_EQ(s.max_force_batch(), 200u);
}

// ---- Execution/recovery profiler ---------------------------------------

HarnessConfig ProfiledConfig(bool prof_on = true) {
  HarnessConfig cfg = TracedConfig(/*recovery_streams=*/1);
  cfg.db.obs.trace = false;
  cfg.db.obs.profile = prof_on;
  cfg.capture_digests = true;
  return cfg;
}

// No view makes a machine operation (the profiler only observes
// Machine::Tick charges), so an instrumented run is the uninstrumented
// run: same schedule, same digests, same simulated time. The steal-flush
// input pins that the steal daemon's draws interleave with the steps
// exactly as they do without instrumentation.
TEST(Instruments, DigestsBitIdenticalEveryViewOnVsOff) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  for (double steal : {0.0, 0.05}) {
    SCOPED_TRACE("steal_flush_prob " + std::to_string(steal));
    HarnessConfig off_cfg = ProfiledConfig(/*prof_on=*/false);
    off_cfg.steal_flush_prob = steal;
    HarnessConfig on_cfg = ProfiledConfig(/*prof_on=*/true);
    on_cfg.db.obs.trace = true;
    on_cfg.db.obs.latency = true;
    on_cfg.steal_flush_prob = steal;
    Harness off(off_cfg);
    auto off_report = off.Run();
    ASSERT_TRUE(off_report.ok()) << off_report.status().ToString();
    Harness on(on_cfg);
    auto on_report = on.Run();
    ASSERT_TRUE(on_report.ok()) << on_report.status().ToString();

    EXPECT_FALSE(off_report->profile.enabled);
    ASSERT_TRUE(on_report->profile.enabled);
    ASSERT_TRUE(on_report->latency.enabled);
    EXPECT_GT(on.db().instruments().tracer().total_recorded(), 0u);
    ASSERT_FALSE(off_report->digests.empty());
    ASSERT_EQ(off_report->digests.size(), on_report->digests.size());
    for (size_t i = 0; i < off_report->digests.size(); ++i) {
      EXPECT_TRUE(off_report->digests[i] == on_report->digests[i])
          << "digest " << i << " diverged:\n  off "
          << off_report->digests[i].ToString() << "\n  on  "
          << on_report->digests[i].ToString();
    }
    EXPECT_EQ(off_report->exec.committed, on_report->exec.committed);
    EXPECT_EQ(off_report->total_time_ns, on_report->total_time_ns);
    if (steal > 0.0) {
      EXPECT_GT(off_report->disk_writes, 0u);
    }
    EXPECT_EQ(off_report->disk_writes, on_report->disk_writes);
    EXPECT_EQ(off_report->logs.forces, on_report->logs.forces);
  }
}

TEST(ProfilerAttribution, SweepDischargesAttributeUnderTheSweepRoot) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  auto run = [] {
    HarnessConfig cfg = ProfiledConfig();
    cfg.db.recovery.on_demand = true;
    cfg.pump_recovery_per_step = 1;
    Harness h(cfg);
    auto report = h.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->verify_status.ok())
        << report->verify_status.ToString();
    return report->profile;
  };
  ProfilerReport a = run();
  ProfilerReport b = run();
  // Sweep discharges attribute their coherence/WAL costs under the sweep
  // root, and two identical configs attribute identically.
  bool saw_sweep_root = false;
  for (const auto& [path, cell] : a.phases) {
    if (path.rfind("sweep", 0) == 0) saw_sweep_root = true;
  }
  EXPECT_TRUE(saw_sweep_root) << "no sweep-rooted phase cells";
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (const auto& [path, cell] : a.phases) {
    auto it = b.phases.find(path);
    ASSERT_NE(it, b.phases.end()) << path;
    EXPECT_EQ(cell.ns, it->second.ns) << path;
    EXPECT_EQ(cell.ticks, it->second.ticks) << path;
    EXPECT_EQ(cell.samples, it->second.samples) << path;
  }
}

TEST(ProfilerExport, CollapsedStackAndJsonAreWellFormed) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  Harness h(ProfiledConfig());
  auto report = h.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const ProfilerReport& p = report->profile;
  ASSERT_FALSE(p.phases.empty());

  // Every phase path is rooted at a unit of work, and a crashing run
  // covers both the step and the recovery trees.
  std::set<std::string> roots;
  for (const auto& [path, cell] : p.phases) {
    roots.insert(path.substr(0, path.find(';')));
  }
  for (const std::string& root : roots) {
    EXPECT_TRUE(root == "step" || root == "sweep" || root == "recovery")
        << "unknown root " << root;
  }
  EXPECT_TRUE(roots.contains("step"));
  EXPECT_TRUE(roots.contains("recovery"));

  // Collapsed stacks: "<stack> <uint>" per line, one line per cell.
  std::string collapsed = p.ToCollapsed();
  size_t lines = 0;
  size_t start = 0;
  while (start < collapsed.size()) {
    size_t nl = collapsed.find('\n', start);
    ASSERT_NE(nl, std::string::npos) << "unterminated collapsed line";
    std::string line = collapsed.substr(start, nl - start);
    start = nl + 1;
    ++lines;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_EQ(line.substr(space + 1).find_first_not_of("0123456789"),
              std::string::npos)
        << line;
    EXPECT_NE(p.phases.find(line.substr(0, space)), p.phases.end()) << line;
  }
  EXPECT_EQ(lines, p.phases.size());

  // The standalone profile document parses back.
  json::Value doc = ProfileJsonFromReport(*report);
  auto reparsed = json::Value::Parse(doc.Dump(1));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  const json::Value* prof = reparsed->Find("profiler");
  ASSERT_NE(prof, nullptr);
  EXPECT_TRUE(prof->GetBool("enabled"));
  const json::Value* phases = prof->Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_EQ(phases->members().size(), p.phases.size());
}

}  // namespace
}  // namespace smdb
