// Differential test matrix for partitioned recovery streams: N-stream
// recovery must be *machine-state equivalent* to one-stream recovery.
//
// For every sampled fuzz scenario and every protocol preset, a one-stream
// run (recovery_streams = 1) captures a StateDigest — stable DB bytes,
// coherent heap/index pages, lock table, transaction verdicts — right after
// each recovery. Then, per fired recovery k and per stream count
// W ∈ {2, 4, 8}, the schedule re-runs with exactly recovery k at W streams
// (all earlier recoveries one-stream) and the k-th digest must match the
// one-stream run's bit for bit, along with the recovery outcome's logical
// counters. Digests past the partitioned recovery are not compared: CLR log
// placement is performer-dependent (performance state, like timing) and
// may legitimately steer later log forces differently.
//
// W = 1 re-runs double as a determinism check: the whole digest sequence,
// including the end-of-run digest, must be bit-identical.
//
// The matrix is sharded into four seed ranges so `ctest -j` runs them
// concurrently; together they cover 200 fuzz-style seeds x 7 protocols.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/fuzzer.h"

namespace smdb {
namespace {

/// Logical outcome fields that must be stream-count-invariant (everything
/// in RecoveryOutcome except recovery_time_ns, which is performance).
void ExpectSameOutcome(const RecoveryOutcome& serial,
                       const RecoveryOutcome& parallel,
                       const std::string& where) {
  EXPECT_EQ(serial.annulled, parallel.annulled) << where;
  EXPECT_EQ(serial.preserved, parallel.preserved) << where;
  EXPECT_EQ(serial.forced_aborts, parallel.forced_aborts) << where;
  EXPECT_EQ(serial.redo_applied, parallel.redo_applied) << where;
  EXPECT_EQ(serial.redo_skipped, parallel.redo_skipped) << where;
  EXPECT_EQ(serial.undo_applied, parallel.undo_applied) << where;
  EXPECT_EQ(serial.tag_undos, parallel.tag_undos) << where;
  EXPECT_EQ(serial.pages_reloaded, parallel.pages_reloaded) << where;
  EXPECT_EQ(serial.lines_reinstalled, parallel.lines_reinstalled) << where;
  EXPECT_EQ(serial.lcbs_rebuilt, parallel.lcbs_rebuilt) << where;
  EXPECT_EQ(serial.locks_dropped, parallel.locks_dropped) << where;
  EXPECT_EQ(serial.whole_machine_restart, parallel.whole_machine_restart)
      << where;
}

void RunSeedRange(uint64_t begin, uint64_t end) {
  const std::vector<RecoveryConfig> protocols =
      CrashScheduleFuzzer::DefaultProtocols();
  size_t parallel_runs = 0;
  for (uint64_t seed = begin; seed < end; ++seed) {
    FuzzCase fc = SampleFuzzCase(seed);
    for (const RecoveryConfig& rc : protocols) {
      std::string ctx_base =
          "seed " + std::to_string(seed) + " protocol " + rc.Name();
      HarnessConfig base = MakeHarnessConfig(fc, rc);
      base.capture_digests = true;

      Harness hs(base);
      auto serial = hs.Run();
      ASSERT_TRUE(serial.ok()) << ctx_base << ": " << serial.status().ToString();
      ASSERT_TRUE(serial->verify_status.ok())
          << ctx_base << ": " << serial->verify_status.ToString();

      // W = 1: full determinism — every digest, including the final one.
      {
        Harness h1(base);
        auto rerun = h1.Run();
        ASSERT_TRUE(rerun.ok()) << ctx_base;
        ASSERT_EQ(rerun->digests.size(), serial->digests.size()) << ctx_base;
        for (size_t i = 0; i < serial->digests.size(); ++i) {
          ASSERT_EQ(rerun->digests[i], serial->digests[i])
              << ctx_base << " digest " << i << " not deterministic";
        }
      }

      for (uint32_t w : {2u, 4u, 8u}) {
        for (size_t k = 0; k < serial->recoveries.size(); ++k) {
          std::string where = ctx_base + " W=" + std::to_string(w) +
                              " recovery #" + std::to_string(k);
          HarnessConfig cfg = base;
          cfg.recovery_stream_overrides.assign(k + 1, 1u);
          cfg.recovery_stream_overrides[k] = w;
          Harness hp(cfg);
          auto report = hp.Run();
          ASSERT_TRUE(report.ok())
              << where << ": " << report.status().ToString();
          EXPECT_TRUE(report->verify_status.ok())
              << where << ": " << report->verify_status.ToString();
          ASSERT_GT(report->recoveries.size(), k) << where;
          ASSERT_GT(report->digests.size(), k) << where;
          ASSERT_EQ(report->digests[k], serial->digests[k])
              << where << "\n  serial:   " << serial->digests[k].ToString()
              << "\n  parallel: " << report->digests[k].ToString();
          ExpectSameOutcome(serial->recoveries[k], report->recoveries[k],
                            where);
          ++parallel_runs;
        }
      }
    }
  }
  // The shard must actually exercise partitioned recoveries — a sampler
  // regression that stops firing crashes would otherwise pass vacuously.
  EXPECT_GT(parallel_runs, 0u);
}

TEST(RecoveryEquivalence, SeedsShard0) { RunSeedRange(0, 50); }
TEST(RecoveryEquivalence, SeedsShard1) { RunSeedRange(50, 100); }
TEST(RecoveryEquivalence, SeedsShard2) { RunSeedRange(100, 150); }
TEST(RecoveryEquivalence, SeedsShard3) { RunSeedRange(150, 200); }

// The fuzzer-integrated differential (Options::recovery_streams) must see
// the same clean matrix — this is the path `smdb_fuzz --recovery-streams`
// and its shrinker use.
TEST(RecoveryEquivalence, FuzzerDifferentialPathIsClean) {
  CrashScheduleFuzzer::Options opts;
  opts.recovery_streams = 4;
  CrashScheduleFuzzer fuzzer(opts);
  for (uint64_t seed = 200; seed < 212; ++seed) {
    auto failure = fuzzer.RunSeed(seed);
    ASSERT_FALSE(failure.has_value())
        << "seed " << seed << " under " << failure->protocol.Name() << ": ["
        << failure->verdict.kind << "] " << failure->verdict.detail;
  }
}

// Sweeping more streams than the machine has survivors (or nodes) must
// degrade gracefully to sharing performers, never crash or diverge.
TEST(RecoveryEquivalence, MoreStreamsThanSurvivors) {
  FuzzCase fc = SampleFuzzCase(3);
  RecoveryConfig rc = RecoveryConfig::VolatileRedoAll();
  HarnessConfig base = MakeHarnessConfig(fc, rc);
  base.capture_digests = true;
  Harness hs(base);
  auto serial = hs.Run();
  ASSERT_TRUE(serial.ok());
  for (size_t k = 0; k < serial->recoveries.size(); ++k) {
    HarnessConfig cfg = base;
    cfg.recovery_stream_overrides.assign(k + 1, 1u);
    cfg.recovery_stream_overrides[k] = 32;  // >> num_nodes
    Harness hp(cfg);
    auto report = hp.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_GT(report->digests.size(), k);
    EXPECT_EQ(report->digests[k], serial->digests[k]);
  }
}

}  // namespace
}  // namespace smdb
