// On-demand (instant) recovery: the Recovering serving state must change
// *when* recovery work happens, never *what* state it produces.
//
// The core oracle is differential: an on-demand run whose obligations are
// drained immediately after the crash-time prefix (before any new traffic)
// must be bit-identical — every captured StateDigest — to the plain eager
// run of the same schedule, across fuzz seeds, protocol presets, and
// recovery stream counts. On top of that, lazy runs that actually serve
// traffic through the Recovering window (first-touch discharge racing the
// background sweeper, crashes landing mid-recovery) must keep the IFA
// oracle clean, and the availability decoupling must be visible: commits
// land while obligations are still pending.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/database.h"
#include "core/ifa_checker.h"
#include "core/on_demand.h"
#include "core/state_digest.h"
#include "fuzz/fuzzer.h"
#include "obs/instruments.h"
#include "workload/harness.h"

namespace smdb {
namespace {

std::vector<uint8_t> Value(uint8_t fill) {
  return std::vector<uint8_t>(22, fill);
}

/// The protocol presets the on-demand prefix applies to (the baselines
/// RebootAll / AbortDependents keep their own eager schemes).
std::vector<RecoveryConfig> OnDemandProtocols() {
  return {
      RecoveryConfig::VolatileSelectiveRedo(),
      RecoveryConfig::VolatileRedoAll(),
      RecoveryConfig::StableEagerRedoAll(),
      RecoveryConfig::StableTriggeredRedoAll(),
      RecoveryConfig::StableTriggeredSelectiveRedo(),
  };
}

/// Eager vs drain-immediately at one stream count: with the Recovering
/// window collapsed the two runs must be step-for-step identical, so every
/// digest (per recovery and final) matches bit for bit.
void ExpectLazyDrainMatchesEager(uint64_t seed, const RecoveryConfig& rc,
                                 uint32_t streams) {
  std::string where = "seed " + std::to_string(seed) + " protocol " +
                      rc.Name() + " streams=" + std::to_string(streams);
  FuzzCase fc = SampleFuzzCase(seed);

  HarnessConfig eager = MakeHarnessConfig(fc, rc);
  // On-demand discharge charges sim time per first touch, so under the
  // time-ordered schedule the pick order differs between the two runs by
  // design. The uniform schedule ignores clocks: same schedule, same digest.
  eager.schedule = SchedulePolicy::kUniform;
  eager.db.recovery.recovery_streams = streams;
  eager.capture_digests = true;
  Harness he(eager);
  auto eager_report = he.Run();
  ASSERT_TRUE(eager_report.ok())
      << where << ": " << eager_report.status().ToString();
  ASSERT_TRUE(eager_report->verify_status.ok())
      << where << ": " << eager_report->verify_status.ToString();

  HarnessConfig lazy = eager;
  lazy.db.recovery.on_demand = true;
  lazy.drain_recovery_immediately = true;
  Harness hl(lazy);
  auto lazy_report = hl.Run();
  ASSERT_TRUE(lazy_report.ok())
      << where << ": " << lazy_report.status().ToString();
  ASSERT_TRUE(lazy_report->verify_status.ok())
      << where << ": " << lazy_report->verify_status.ToString();

  ASSERT_EQ(lazy_report->recoveries.size(), eager_report->recoveries.size())
      << where;
  ASSERT_EQ(lazy_report->digests.size(), eager_report->digests.size())
      << where;
  for (size_t i = 0; i < eager_report->digests.size(); ++i) {
    ASSERT_EQ(lazy_report->digests[i], eager_report->digests[i])
        << where << " digest " << i
        << "\n  eager: " << eager_report->digests[i].ToString()
        << "\n  lazy:  " << lazy_report->digests[i].ToString();
  }
  // Transaction verdicts are part of the digest, but assert the headline
  // outcome fields directly for readable failures.
  for (size_t i = 0; i < eager_report->recoveries.size(); ++i) {
    EXPECT_EQ(lazy_report->recoveries[i].annulled,
              eager_report->recoveries[i].annulled)
        << where;
    EXPECT_EQ(lazy_report->recoveries[i].preserved,
              eager_report->recoveries[i].preserved)
        << where;
    EXPECT_EQ(lazy_report->recoveries[i].forced_aborts,
              eager_report->recoveries[i].forced_aborts)
        << where;
    EXPECT_EQ(lazy_report->recoveries[i].whole_machine_restart,
              eager_report->recoveries[i].whole_machine_restart)
        << where;
    // One ledger per recovery: the drain's work counts with the prefix's,
    // so the drained-at-once outcome does exactly the eager work.
    const RecoveryOutcome& l = lazy_report->recoveries[i];
    const RecoveryOutcome& e = eager_report->recoveries[i];
    EXPECT_EQ(l.redo_applied, e.redo_applied) << where;
    EXPECT_EQ(l.redo_skipped, e.redo_skipped) << where;
    EXPECT_EQ(l.undo_applied, e.undo_applied) << where;
    EXPECT_EQ(l.pages_reloaded, e.pages_reloaded) << where;
    EXPECT_EQ(l.lines_reinstalled, e.lines_reinstalled) << where;
    EXPECT_EQ(l.tag_undos, e.tag_undos) << where;
  }
  EXPECT_EQ(lazy_report->exec.committed, eager_report->exec.committed)
      << where;
}

void RunDigestMatrix(uint64_t begin, uint64_t end, uint32_t streams) {
  for (uint64_t seed = begin; seed < end; ++seed) {
    // All seven presets: on the baselines the knob must be a no-op.
    for (const RecoveryConfig& rc : CrashScheduleFuzzer::DefaultProtocols()) {
      ExpectLazyDrainMatchesEager(seed, rc, streams);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(OnDemandDigest, DrainMatchesEagerOneStreamShard0) {
  RunDigestMatrix(0, 12, 1);
}
TEST(OnDemandDigest, DrainMatchesEagerOneStreamShard1) {
  RunDigestMatrix(12, 24, 1);
}
TEST(OnDemandDigest, DrainMatchesEagerStreams4) { RunDigestMatrix(0, 8, 4); }
TEST(OnDemandDigest, DrainMatchesEagerStreams8) { RunDigestMatrix(8, 16, 8); }

// Serving traffic through the Recovering window: first-touch discharges
// race the background sweeper at several budgets, and the IFA oracle must
// stay clean (the harness defers verification until the final drain).
TEST(OnDemandServing, FirstTouchRacesSweeperCleanly) {
  for (uint64_t seed : {3u, 11u, 27u, 40u}) {
    for (int pump : {0, 1, 5}) {
      FuzzCase fc = SampleFuzzCase(seed);
      for (const RecoveryConfig& rc : OnDemandProtocols()) {
        HarnessConfig cfg = MakeHarnessConfig(fc, rc);
        cfg.db.recovery.on_demand = true;
        cfg.pump_recovery_per_step = pump;
        std::string where = "seed " + std::to_string(seed) + " pump " +
                            std::to_string(pump) + " " + rc.Name();
        Harness h(cfg);
        auto report = h.Run();
        ASSERT_TRUE(report.ok()) << where << ": "
                                 << report.status().ToString();
        EXPECT_TRUE(report->verify_status.ok())
            << where << ": " << report->verify_status.ToString();
      }
    }
  }
}

// A second crash landing while the first crash's obligations are still
// pending: RecoveryManager resets the driver and re-derives everything
// from stable state, so back-to-back crash plans with no draining traffic
// between them must still verify.
TEST(OnDemandServing, CrashDuringRecoveringWindowVerifies) {
  for (uint64_t seed : {5u, 19u, 33u}) {
    FuzzCase fc = SampleFuzzCase(seed);
    for (const RecoveryConfig& rc : OnDemandProtocols()) {
      HarnessConfig cfg = MakeHarnessConfig(fc, rc);
      cfg.db.recovery.on_demand = true;
      cfg.pump_recovery_per_step = 0;  // nothing sweeps between crashes
      // Stack a second crash plan right after each existing one so the
      // second recovery starts while the first window is still open.
      std::vector<CrashPlan> doubled;
      for (const CrashPlan& p : cfg.crashes) {
        doubled.push_back(p);
        CrashPlan follow = p;
        follow.at_step = p.at_step + 2;
        doubled.push_back(follow);
      }
      cfg.crashes = std::move(doubled);
      std::string where = "seed " + std::to_string(seed) + " " + rc.Name();
      Harness h(cfg);
      auto report = h.Run();
      ASSERT_TRUE(report.ok()) << where << ": " << report.status().ToString();
      EXPECT_TRUE(report->verify_status.ok())
          << where << ": " << report->verify_status.ToString();
    }
  }
}

struct Fx {
  explicit Fx(RecoveryConfig rc, uint16_t nodes = 4) : db(MakeCfg(rc, nodes)) {
    auto t = db.CreateTable(32);
    EXPECT_TRUE(t.ok());
    table = *t;
    EXPECT_TRUE(db.Checkpoint(0).ok());
  }
  static DatabaseConfig MakeCfg(RecoveryConfig rc, uint16_t nodes) {
    DatabaseConfig c;
    c.machine.num_nodes = nodes;
    rc.on_demand = true;
    c.recovery = rc;
    return c;
  }
  Database db;
  std::vector<RecordId> table;
};

// The decoupling itself: after the crash-time prefix returns, obligations
// are pending, new transactions commit, and the first touch of an
// unrecovered record serves its recovered (committed) value.
TEST(OnDemandServing, CommitsLandWhileObligationsPending) {
  Fx fx(RecoveryConfig::VolatileSelectiveRedo());
  // Survivor work on node 0 whose line migrates: committed, needs redo.
  Transaction* t0 = fx.db.txn().Begin(0);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[1], Value(0xC1)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t0).ok());
  // Crashed-node work: committed (forced) update on node 1.
  Transaction* t1 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t1, fx.table[2], Value(0xC2)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t1).ok());
  // Uncommitted update on node 1 — needs undo after the crash.
  Transaction* t2 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t2, fx.table[3], Value(0xBB)).ok());

  std::vector<RecoveryOutcome> closed;
  fx.db.on_demand().SetCloseHook(
      [&closed](const RecoveryOutcome& out) { closed.push_back(out); });
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(fx.db.RecoveringActive());
  EXPECT_GT(fx.db.on_demand().pending_objects(), 0u);
  EXPECT_TRUE(closed.empty()) << "the ledger stays open while Recovering";
  EXPECT_EQ(outcome->first_touch_discharges, 0u);
  EXPECT_EQ(outcome->sweep_discharges, 0u);

  // A brand-new transaction on an untouched record commits immediately,
  // while the crash's obligations are still pending.
  size_t pending_before = fx.db.on_demand().pending_objects();
  Transaction* t3 = fx.db.txn().Begin(2);
  ASSERT_TRUE(fx.db.txn().Update(t3, fx.table[9], Value(0x33)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t3).ok());
  EXPECT_TRUE(fx.db.RecoveringActive())
      << "an untouched-record commit must not force a full drain";

  // First touch of the unrecovered records discharges them on demand and
  // returns recovered values: the undone record shows its pre-t2 state,
  // the committed one its committed bytes.
  Transaction* t4 = fx.db.txn().Begin(2);
  auto v2 = fx.db.txn().Read(t4, fx.table[2]);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(*v2, Value(0xC2));
  auto v3 = fx.db.txn().Read(t4, fx.table[3]);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_NE(*v3, Value(0xBB)) << "uncommitted crash work must be undone";
  ASSERT_TRUE(fx.db.txn().Commit(t4).ok());
  EXPECT_LT(fx.db.on_demand().pending_objects(), pending_before);
  // The first touches count into the crash's ledger: t1's lost committed
  // update was redone on its first read.
  const RecoveryOutcome& ledger = fx.db.on_demand().outcome();
  EXPECT_GT(ledger.first_touch_discharges, 0u);
  EXPECT_GT(ledger.redo_applied, outcome->redo_applied);

  // The sweeper finishes the rest; the drained state verifies.
  while (fx.db.RecoveringActive()) {
    auto swept = fx.db.PumpRecovery(4);
    ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  }
  EXPECT_EQ(fx.db.on_demand().pending_objects(), 0u);
  EXPECT_GT(ledger.sweep_discharges, 0u);
  // The drain's end closes the ledger once, spanning the whole window.
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].first_touch_discharges, ledger.first_touch_discharges);
  EXPECT_EQ(closed[0].sweep_discharges, ledger.sweep_discharges);
  EXPECT_EQ(closed[0].redo_applied, ledger.redo_applied);
  EXPECT_GT(closed[0].recovery_time_ns, outcome->recovery_time_ns);
}

// Checkpoints truncate the stable logs lazy obligations still reference;
// Database::Checkpoint must drain first rather than corrupt the window.
TEST(OnDemandServing, CheckpointDrainsPendingObligations) {
  Fx fx(RecoveryConfig::VolatileRedoAll());
  Transaction* t0 = fx.db.txn().Begin(1);
  ASSERT_TRUE(fx.db.txn().Update(t0, fx.table[4], Value(0x44)).ok());
  ASSERT_TRUE(fx.db.txn().Commit(t0).ok());
  auto outcome = fx.db.Crash({1});
  ASSERT_TRUE(outcome.ok());
  ASSERT_TRUE(fx.db.RecoveringActive());
  ASSERT_TRUE(fx.db.Checkpoint(0).ok());
  EXPECT_FALSE(fx.db.RecoveringActive());
  auto slot = fx.db.records().SnoopSlot(fx.table[4]);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(slot->data, Value(0x44));
}

// The observatory's availability record splits the crash timeline: the
// eager prefix ends at recovery_end_ts, the last lazy obligation at
// drain_end_ts. With traffic between them, TTFC is decoupled from the
// total recovery span.
TEST(OnDemandServing, DrainTimestampExtendsPastEagerPrefix) {
  if (!kObsCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  RecoveryConfig rc = RecoveryConfig::VolatileSelectiveRedo();
  rc.on_demand = true;
  DatabaseConfig c;
  c.machine.num_nodes = 4;
  c.recovery = rc;
  c.obs.latency = true;
  Database db(c);
  auto t = db.CreateTable(32);
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db.Checkpoint(0).ok());
  Transaction* t0 = db.txn().Begin(1);
  ASSERT_TRUE(db.txn().Update(t0, (*t)[1], Value(0x77)).ok());
  ASSERT_TRUE(db.txn().Commit(t0).ok());
  ASSERT_TRUE(db.Crash({1}).ok());
  ASSERT_TRUE(db.RecoveringActive());

  // Commit through the Recovering window, then drain.
  Transaction* t1 = db.txn().Begin(0);
  ASSERT_TRUE(db.txn().Update(t1, (*t)[20], Value(0x78)).ok());
  ASSERT_TRUE(db.txn().Commit(t1).ok());
  ASSERT_TRUE(db.DrainRecovery().ok());

  LatencyReport rep = db.instruments().observatory().Snapshot();
  ASSERT_EQ(rep.availability.crashes.size(), 1u);
  const CrashAvailability& ca = rep.availability.crashes[0];
  EXPECT_GT(ca.recovery_end_ts, ca.crash_ts);
  EXPECT_GT(ca.drain_end_ts, ca.recovery_end_ts)
      << "lazy work must finish after the eager prefix";
  EXPECT_TRUE(ca.saw_commit_after);
  EXPECT_LT(ca.first_commit_ts, ca.drain_end_ts)
      << "TTFC must not wait for the full drain";
}

// The fuzzer's on-demand mode (Options::on_demand, smdb_fuzz
// --on-demand-recovery) composes with every default protocol and with the
// recovery-stream differential, and the flag round-trips through replay files.
// Runs the DEFAULT protocol set — including the baselines. The knob must
// be a strict no-op for RebootAll/AbortDependents: they delegate into the
// schemes (AbortDependents calls RunSelectiveRedo) and their contracts
// assume a fully recovered state on return, so only a configured Redo All
// or Selective Redo opens a Recovering window. Seed 23 caught exactly
// that: AbortDependents going lazy aborted dependents against a
// half-recovered state.
TEST(OnDemandFuzz, CampaignSliceRunsClean) {
  CrashScheduleFuzzer::Options opts;
  opts.on_demand = true;
  CrashScheduleFuzzer fuzzer(opts);
  for (uint64_t seed = 0; seed < 30; ++seed) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << " failed under " << failure->protocol.Name()
        << ": [" << failure->verdict.kind << "] " << failure->verdict.detail;
  }
  EXPECT_GT(fuzzer.stats().committed, 0u);
  EXPECT_GT(fuzzer.stats().crashes_fired, 0u);
}

// Regressions from a 2000-seed on-demand campaign, all under Selective
// Redo with a node restarted during the Recovering window:
//  * 223, 380, 1257, 1629: a second crash superseded the recovery before
//    its deferred tag scan ran. The restarted node was no longer dead, so
//    the superseding recovery ignored its pre-crash tags and an uncommitted
//    update (or index insert) survived. The superseding recovery now
//    inherits the old dead nodes' tags up to the old cutoff.
//  * 1710: the restarted node's new traffic pulled a tagged leaf line into
//    its own cache, which the deferred scan (crash-time survivors only)
//    never visited. The deferred scan now covers every live cache.
TEST(OnDemandFuzz, RestartDuringRecoveringKeepsTheRestartedNodesTags) {
  CrashScheduleFuzzer::Options opts;
  opts.on_demand = true;
  opts.protocols = {RecoveryConfig::VolatileSelectiveRedo()};
  CrashScheduleFuzzer fuzzer(opts);
  for (uint64_t seed : {223u, 380u, 1257u, 1629u, 1710u}) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << ": [" << failure->verdict.kind << "] "
        << failure->verdict.detail;
  }
}

TEST(OnDemandFuzz, FlagRoundTripsThroughReplays) {
  CrashScheduleFuzzer::Options opts;
  opts.on_demand = true;
  CrashScheduleFuzzer fuzzer(opts);
  FuzzFailure failure;
  failure.seed = 4;
  failure.fuzz_case = SampleFuzzCase(4);
  failure.protocol =
      fuzzer.EffectiveProtocol(RecoveryConfig::VolatileSelectiveRedo());
  failure.verdict = {true, "ifa-verify", "synthetic"};
  ASSERT_TRUE(failure.protocol.on_demand);
  std::string text = fuzzer.ReplayJson(failure, failure.fuzz_case);
  auto doc = CrashScheduleFuzzer::ParseReplay(text);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_TRUE(doc->protocol.on_demand);
}

}  // namespace
}  // namespace smdb
