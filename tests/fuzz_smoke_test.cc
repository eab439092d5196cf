// Smoke coverage for the crash-schedule fuzzer (src/fuzz/).
//
// Three properties are pinned down here:
//   1. A batch of fixed seeds runs clean under every default protocol —
//      the IFA variants show zero violations and zero unnecessary aborts,
//      and the baselines honor their own contracts.
//   2. The fuzzer is deterministic: equal seeds produce bit-identical
//      cases and verdicts, which is what makes replay files trustworthy.
//   3. Fault injection is actually detectable: disabling undo tagging
//      under SelectiveRedo is caught within a small seed budget, shrinks
//      to a tiny crash schedule, and the emitted replay document
//      round-trips and reproduces the failure.
//   4. The recovery-stream differential (Options::recovery_streams > 1)
//      composes with all of the above: clean seeds stay clean, replay
//      documents record the stream count, and the shrinker minimises
//      failures through the differential predicate.

//   5. Campaign sharding (RunFuzzCampaign with jobs > 1) is invisible in
//      the results: the verdict, the failing seed, the merged stats, and
//      the replay document are byte-identical to a serial campaign.
//   6. The group-commit pipeline composes with the fuzzer: campaigns with
//      group_commit on stay clean under every protocol, and replay
//      documents round-trip the pipeline knobs.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "fuzz/fuzzer.h"

namespace smdb {
namespace {

TEST(FuzzSmoke, FixedSeedsRunCleanUnderAllProtocols) {
  CrashScheduleFuzzer fuzzer;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << " failed under "
        << failure->protocol.Name() << ": [" << failure->verdict.kind
        << "] " << failure->verdict.detail;
  }
  const FuzzStats& stats = fuzzer.stats();
  EXPECT_EQ(stats.cases, 50u);
  // 50 cases x 7 protocols.
  EXPECT_EQ(stats.runs, 350u);
  // The schedule sampler must actually exercise the failure model: crashes
  // that fire, crashes that get skipped, and at least one crash-all.
  EXPECT_GT(stats.crashes_fired, 0u);
  EXPECT_GT(stats.crashes_skipped, 0u);
  EXPECT_GT(stats.whole_machine_restarts, 0u);
  EXPECT_GT(stats.committed, 0u);
}

TEST(FuzzSmoke, EqualSeedsAreBitIdentical) {
  FuzzCase a = SampleFuzzCase(7);
  FuzzCase b = SampleFuzzCase(7);
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());

  CrashScheduleFuzzer f1;
  CrashScheduleFuzzer f2;
  FuzzVerdict v1 = f1.RunCase(a, RecoveryConfig::VolatileSelectiveRedo());
  FuzzVerdict v2 = f2.RunCase(b, RecoveryConfig::VolatileSelectiveRedo());
  EXPECT_EQ(v1.failed, v2.failed);
  EXPECT_EQ(v1.kind, v2.kind);
  EXPECT_EQ(v1.detail, v2.detail);
}

TEST(FuzzSmoke, CaseJsonRoundTrips) {
  FuzzCase original = SampleFuzzCase(12345);
  auto parsed_doc = json::Value::Parse(original.ToJson().Dump(2));
  ASSERT_TRUE(parsed_doc.ok()) << parsed_doc.status().ToString();
  auto restored = FuzzCase::FromJson(*parsed_doc);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->ToJson().Dump(), original.ToJson().Dump());
}

TEST(FuzzSmoke, ScheduleRoundTripsAndDefaultsToUniform) {
  // The sampler draws both policies.
  bool seen[2] = {false, false};
  for (uint64_t seed = 0; seed < 16; ++seed) {
    seen[static_cast<int>(SampleFuzzCase(seed).schedule)] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1]);

  for (SchedulePolicy p :
       {SchedulePolicy::kTimeOrdered, SchedulePolicy::kUniform}) {
    FuzzCase c = SampleFuzzCase(3);
    c.schedule = p;
    auto doc = json::Value::Parse(c.ToJson().Dump());
    ASSERT_TRUE(doc.ok());
    auto restored = FuzzCase::FromJson(*doc);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    EXPECT_EQ(restored->schedule, p);
    EXPECT_EQ(MakeHarnessConfig(*restored, RecoveryConfig::VolatileRedoAll())
                  .schedule,
              p);
  }

  // A document written before the field existed replays uniform.
  FuzzCase c = SampleFuzzCase(3);
  c.schedule = SchedulePolicy::kTimeOrdered;
  std::string text = c.ToJson().Dump();
  size_t at = text.find("\"schedule\"");
  ASSERT_NE(at, std::string::npos);
  text = text.substr(0, text.rfind(',', at)) + "}";
  auto old_doc = json::Value::Parse(text);
  ASSERT_TRUE(old_doc.ok()) << text;
  ASSERT_EQ(old_doc->Find("schedule"), nullptr);
  auto old_case = FuzzCase::FromJson(*old_doc);
  ASSERT_TRUE(old_case.ok());
  EXPECT_EQ(old_case->schedule, SchedulePolicy::kUniform);
}

// Shrunk time-ordered reproducers of two bugs the time-ordered schedule
// exposed. Each fails without its fix.
//
// The WAL table lowered a node's page requirement when restart redo
// re-noted an older record, so a later steal flush skipped forcing a newer,
// still-volatile update of an active transaction.
constexpr const char* kWalRequirementDropCase = R"json(
{"num_nodes": 8, "num_records": 32, "record_data_size": 22,
"workload": {"txns_per_node": 5, "ops_per_txn": 8,
"write_ratio": 0.8806433738356034,
"index_op_ratio": 0.1997916153088788, "dirty_read_ratio": 0,
"zipf_theta": 0, "shared_fraction": 1, "voluntary_abort_ratio": 0,
"index_key_space": 256, "seed": 1053159665945360589},
"crashes": [{"at_step": 223, "nodes": [4], "restart_after": false},
{"at_step": 181, "nodes": [5], "restart_after": false}],
"steal_flush_prob": 0.03, "checkpoint_every_steps": 0,
"harness_seed": 3864416282065987508, "schedule": "time"}
)json";
// Tag clears are not logged: restart reloaded a committed index entry that
// still carried a survivor's tag, and that survivor's next delete of the
// key took it for its own uncommitted insert and removed it physically.
constexpr const char* kStaleIndexTagCase = R"json(
{"num_nodes": 6, "num_records": 32, "record_data_size": 16,
"workload": {"txns_per_node": 9, "ops_per_txn": 5,
"write_ratio": 0.5803415892277808,
"index_op_ratio": 0.046665462591578666, "dirty_read_ratio": 0.05,
"zipf_theta": 0, "shared_fraction": 1, "voluntary_abort_ratio": 0,
"index_key_space": 256, "seed": 9150988728586219907},
"crashes": [{"at_step": 138, "nodes": [1, 3],
"restart_after": true}, {"at_step": 219, "nodes": [1],
"restart_after": false}], "steal_flush_prob": 0.03,
"checkpoint_every_steps": 0, "harness_seed": 12980648721252299397,
"schedule": "time"}
)json";

void ExpectReplayClean(const char* case_json, const RecoveryConfig& protocol) {
  auto doc = json::Value::Parse(case_json);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto c = FuzzCase::FromJson(*doc);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  ASSERT_EQ(c->schedule, SchedulePolicy::kTimeOrdered);
  CrashScheduleFuzzer fuzzer;
  FuzzVerdict v = fuzzer.RunCase(*c, protocol);
  EXPECT_FALSE(v.failed) << v.kind << ": " << v.detail;
}

TEST(FuzzRegression, WalRequirementNeverDrops) {
  ExpectReplayClean(kWalRequirementDropCase,
                    RecoveryConfig::VolatileSelectiveRedo());
}

TEST(FuzzRegression, StaleSurvivorTagIsNotAnOwnInsert) {
  ExpectReplayClean(kStaleIndexTagCase,
                    RecoveryConfig::StableTriggeredSelectiveRedo());
}

TEST(FuzzSmoke, BrokenUndoTaggingIsCaughtShrunkAndReplayable) {
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  opts.disable_undo_tagging = true;
  CrashScheduleFuzzer fuzzer(opts);

  std::optional<FuzzFailure> failure;
  for (uint64_t seed = 0; seed < 60 && !failure.has_value(); ++seed) {
    failure = fuzzer.RunSeed(seed);
  }
  ASSERT_TRUE(failure.has_value())
      << "disabled undo tagging was not detected within 60 seeds";
  EXPECT_EQ(failure->verdict.kind, "ifa-verify") << failure->verdict.detail;

  FuzzCase shrunk = fuzzer.Shrink(*failure);
  EXPECT_LE(shrunk.crashes.size(), 2u);
  FuzzVerdict direct = fuzzer.RunCase(shrunk, failure->protocol);
  EXPECT_TRUE(direct.failed) << "shrunk case no longer fails";

  std::string replay_text = fuzzer.ReplayJson(*failure, shrunk);
  auto doc = CrashScheduleFuzzer::ParseReplay(replay_text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->seed, failure->seed);
  EXPECT_TRUE(doc->protocol.disable_undo_tagging);
  EXPECT_EQ(doc->fuzz_case.ToJson().Dump(), shrunk.ToJson().Dump());

  // Replaying the parsed document reproduces the direct run exactly.
  FuzzVerdict replayed = fuzzer.RunCase(doc->fuzz_case, doc->protocol);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.kind, direct.kind);
  EXPECT_EQ(replayed.detail, direct.detail);
}

// The shrinker accepts a smaller case only if it fails with the recorded
// kind: a replay of the shrunk case must reproduce what its document says
// (a shrunk stream-divergence once replayed as a plain ifa-verify).
TEST(FuzzSmoke, ShrinkerKeepsTheRecordedFailureKind) {
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  opts.disable_undo_tagging = true;
  opts.max_shrink_runs = 60;
  opts.forensics = false;
  CrashScheduleFuzzer fuzzer(opts);
  std::optional<FuzzFailure> failure;
  for (uint64_t seed = 0; seed < 60 && !failure.has_value(); ++seed) {
    failure = fuzzer.RunSeed(seed);
  }
  ASSERT_TRUE(failure.has_value());

  FuzzCase shrunk = fuzzer.Shrink(*failure);
  auto doc =
      CrashScheduleFuzzer::ParseReplay(fuzzer.ReplayJson(*failure, shrunk));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  FuzzVerdict replayed = fuzzer.RunCase(doc->fuzz_case, doc->protocol);
  EXPECT_TRUE(replayed.failed);
  EXPECT_EQ(replayed.kind, doc->recorded_kind) << replayed.detail;

  // Relabelled with a kind this schedule never produces, no candidate
  // qualifies, so the case comes back unshrunk.
  FuzzFailure relabelled = *failure;
  relabelled.verdict.kind = "unnecessary-aborts";
  EXPECT_EQ(fuzzer.Shrink(relabelled).ToJson().Dump(),
            failure->fuzz_case.ToJson().Dump());
}

TEST(FuzzSmoke, StreamDifferentialIsCleanAndRecordedInReplays) {
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo(),
                    RecoveryConfig::StableEagerRedoAll()};
  opts.recovery_streams = 2;
  CrashScheduleFuzzer fuzzer(opts);
  for (uint64_t seed = 0; seed < 10; ++seed) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << " diverged under "
        << failure->protocol.Name() << ": [" << failure->verdict.kind
        << "] " << failure->verdict.detail;
  }
  // The differential actually ran: more harness runs than cases x protocols.
  EXPECT_GT(fuzzer.stats().runs, 20u);

  // Replay documents carry the stream count so a stream-only divergence
  // re-executes at the stream count that exposed it.
  FuzzFailure failure;
  failure.seed = 7;
  failure.fuzz_case = SampleFuzzCase(7);
  failure.protocol = RecoveryConfig::VolatileSelectiveRedo();
  failure.verdict = {true, "stream-divergence", "digest mismatch"};
  std::string text = fuzzer.ReplayJson(failure, failure.fuzz_case);
  EXPECT_NE(text.find("\"recovery_streams\""), std::string::npos);
  EXPECT_EQ(text.find("recovery_threads"), std::string::npos);
  EXPECT_EQ(text.find("execution_threads"), std::string::npos);
  auto doc = CrashScheduleFuzzer::ParseReplay(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->recovery_streams, 2u);
  EXPECT_EQ(doc->recorded_kind, "stream-divergence");
}

TEST(FuzzSmoke, ShrinkerMinimisesThroughTheDifferentialPredicate) {
  // With recovery_streams set, every still-fails probe of the shrinker
  // re-runs the single-stream leg *and* the per-recovery differential leg,
  // so a minimised schedule is guaranteed to still fail under the combined
  // predicate — the property that makes shrunk stream-divergence
  // reproducers trustworthy. Forced here with the undo-tagging fault,
  // which the serial leg catches.
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  opts.disable_undo_tagging = true;
  opts.recovery_streams = 2;
  opts.max_shrink_runs = 120;
  CrashScheduleFuzzer fuzzer(opts);

  std::optional<FuzzFailure> failure;
  for (uint64_t seed = 0; seed < 60 && !failure.has_value(); ++seed) {
    failure = fuzzer.RunSeed(seed);
  }
  ASSERT_TRUE(failure.has_value());
  FuzzCase shrunk = fuzzer.Shrink(*failure);
  FuzzVerdict direct = fuzzer.RunCase(shrunk, failure->protocol);
  EXPECT_TRUE(direct.failed) << "shrunk case no longer fails differentially";
}

TEST(FuzzSmoke, CampaignShardingIsDeterministic) {
  // The undo-tagging fault guarantees a failure inside the seed range, so
  // this exercises the interesting path: a failing chunk whose later seeds
  // must be discarded. Verdict, failing seed, merged stats, and the replay
  // document must not depend on the job count.
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  opts.disable_undo_tagging = true;
  FuzzCampaignResult serial = RunFuzzCampaign(opts, 0, 60, 1);
  FuzzCampaignResult sharded = RunFuzzCampaign(opts, 0, 60, 4);

  ASSERT_TRUE(serial.failure.has_value());
  ASSERT_TRUE(sharded.failure.has_value());
  EXPECT_EQ(serial.failure->seed, sharded.failure->seed);
  EXPECT_EQ(serial.failure->verdict.kind, sharded.failure->verdict.kind);
  EXPECT_EQ(serial.failure->verdict.detail, sharded.failure->verdict.detail);
  EXPECT_EQ(serial.failure->fuzz_case.ToJson().Dump(),
            sharded.failure->fuzz_case.ToJson().Dump());

  EXPECT_EQ(serial.stats.cases, sharded.stats.cases);
  EXPECT_EQ(serial.stats.runs, sharded.stats.runs);
  EXPECT_EQ(serial.stats.crashes_fired, sharded.stats.crashes_fired);
  EXPECT_EQ(serial.stats.crashes_skipped, sharded.stats.crashes_skipped);
  EXPECT_EQ(serial.stats.whole_machine_restarts,
            sharded.stats.whole_machine_restarts);
  EXPECT_EQ(serial.stats.committed, sharded.stats.committed);

  // Replay serialization depends only on (opts, failure) — byte-identical.
  CrashScheduleFuzzer f1(opts);
  CrashScheduleFuzzer f2(opts);
  EXPECT_EQ(f1.ReplayJson(*serial.failure, serial.failure->fuzz_case),
            f2.ReplayJson(*sharded.failure, sharded.failure->fuzz_case));
}

TEST(FuzzSmoke, GroupCommitCampaignRunsCleanUnderAllProtocols) {
  // Group commit is orthogonal to protocol identity: the same seeds that
  // are clean synchronously must stay clean with coalesced forces — the
  // acknowledgement-after-force discipline means no observer ever sees a
  // commit a crash could annul.
  CrashScheduleFuzzer::Options opts;
  opts.group_commit = true;
  FuzzCampaignResult result = RunFuzzCampaign(opts, 0, 20, 2);
  ASSERT_FALSE(result.failure.has_value())
      << "seed " << result.failure->seed << " failed under "
      << result.failure->protocol.Name() << ": ["
      << result.failure->verdict.kind << "] "
      << result.failure->verdict.detail;
  EXPECT_EQ(result.stats.cases, 20u);
  EXPECT_GT(result.stats.committed, 0u);
  EXPECT_GT(result.stats.crashes_fired, 0u);
}

TEST(FuzzSmoke, GroupCommitKnobsRoundTripThroughReplays) {
  CrashScheduleFuzzer::Options opts;
  opts.protocols = {RecoveryConfig::StableEagerRedoAll()};
  opts.group_commit = true;
  opts.group_commit_window_ns = 50'000;
  opts.group_commit_max_batch = 16;
  CrashScheduleFuzzer fuzzer(opts);

  FuzzFailure failure;
  failure.seed = 3;
  failure.fuzz_case = SampleFuzzCase(3);
  failure.protocol =
      fuzzer.EffectiveProtocol(RecoveryConfig::StableEagerRedoAll());
  failure.verdict = {true, "ifa-verify", "synthetic"};
  std::string text = fuzzer.ReplayJson(failure, failure.fuzz_case);
  auto doc = CrashScheduleFuzzer::ParseReplay(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->protocol.group_commit);
  EXPECT_EQ(doc->protocol.group_commit_window_ns, 50'000u);
  EXPECT_EQ(doc->protocol.group_commit_max_batch, 16u);
}

TEST(FuzzSmoke, RebootAllSurvivesSplitHeavySchedules) {
  // Split-heavy slice of the ROADMAP item 5 regression: BaselineRebootAll
  // reloads the whole stable database, so every B+-tree split must have
  // been forced durably at structural commit — the sampled cases are
  // re-biased towards index traffic so splits happen before (and between)
  // the sampled crash schedules' whole-machine reboots.
  CrashScheduleFuzzer fuzzer;
  for (uint64_t seed = 0; seed < 15; ++seed) {
    FuzzCase fc = SampleFuzzCase(seed);
    fc.workload.index_op_ratio = 0.6;
    fc.workload.index_key_space = 64;  // dense keys: splits early and often
    FuzzVerdict v = fuzzer.RunCase(fc, RecoveryConfig::BaselineRebootAll());
    ASSERT_FALSE(v.failed)
        << "seed " << seed << ": [" << v.kind << "] " << v.detail;
  }
}

TEST(FuzzSmoke, EnvDrivenCampaignMatrix) {
  // CI hook: SMDB_FUZZ_GROUP_COMMIT=1 / SMDB_FUZZ_ON_DEMAND=1 /
  // SMDB_FUZZ_JOBS=N re-run a slice of the default campaign in the
  // sanitizer build's configuration without a dedicated test binary per
  // matrix cell. Unset, this is a plain small single-job campaign.
  CrashScheduleFuzzer::Options opts;
  const char* gc = std::getenv("SMDB_FUZZ_GROUP_COMMIT");
  opts.group_commit = gc != nullptr && std::string(gc) == "1";
  const char* od = std::getenv("SMDB_FUZZ_ON_DEMAND");
  opts.on_demand = od != nullptr && std::string(od) == "1";
  const char* jobs_env = std::getenv("SMDB_FUZZ_JOBS");
  unsigned jobs = 1;
  if (jobs_env != nullptr) {
    int v = std::atoi(jobs_env);
    if (v > 0) jobs = static_cast<unsigned>(v);
  }
  FuzzCampaignResult result = RunFuzzCampaign(opts, 100, 10, jobs);
  ASSERT_FALSE(result.failure.has_value())
      << "seed " << result.failure->seed << " failed under "
      << result.failure->protocol.Name() << ": ["
      << result.failure->verdict.kind << "] "
      << result.failure->verdict.detail;
  EXPECT_EQ(result.stats.cases, 10u);
}

}  // namespace
}  // namespace smdb
