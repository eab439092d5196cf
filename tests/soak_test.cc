// Soak test: many randomized configurations (protocol, machine size,
// record geometry, workload mix, crash schedule) each run end to end and
// verified against the IFA oracle. Catches interaction bugs that the
// targeted tests do not enumerate.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "workload/harness.h"

namespace smdb {
namespace {

RecoveryConfig PickProtocol(Rng& rng) {
  switch (rng.Uniform(6)) {
    case 0: return RecoveryConfig::VolatileSelectiveRedo();
    case 1: return RecoveryConfig::VolatileRedoAll();
    case 2: return RecoveryConfig::StableEagerRedoAll();
    case 3: return RecoveryConfig::StableTriggeredSelectiveRedo();
    case 4: return RecoveryConfig::BaselineAbortDependents();
    default: return RecoveryConfig::BaselineRebootAll();
  }
}

void RunRandomRounds(Rng& meta, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    HarnessConfig cfg;
    RecoveryConfig rc = PickProtocol(meta);
    cfg.db.recovery = rc;
    cfg.db.machine.num_nodes = static_cast<uint16_t>(meta.Range(2, 12));
    if (meta.Bernoulli(0.2)) {
      cfg.db.machine.coherence = CoherenceKind::kWriteBroadcast;
    }
    // Record geometry: 1, 2, 4 or 8 records per 128-byte line.
    uint16_t sizes[] = {118, 54, 22, 6};
    cfg.db.record_data_size = sizes[meta.Uniform(4)];
    cfg.db.lock_table.two_line_lcb = meta.Bernoulli(0.3);
    cfg.num_records = 32 + meta.Uniform(200);
    cfg.workload.txns_per_node = 4 + meta.Uniform(12);
    cfg.workload.ops_per_txn = 2 + meta.Uniform(8);
    cfg.workload.write_ratio = meta.NextDouble();
    cfg.workload.index_op_ratio = meta.Bernoulli(0.5) ? 0.2 : 0.0;
    cfg.workload.dirty_read_ratio = meta.Bernoulli(0.3) ? 0.1 : 0.0;
    cfg.workload.zipf_theta = meta.Bernoulli(0.3) ? 0.7 : 0.0;
    cfg.workload.voluntary_abort_ratio = meta.Bernoulli(0.5) ? 0.1 : 0.0;
    cfg.workload.seed = meta.Next();
    cfg.seed = meta.Next();
    cfg.steal_flush_prob = meta.Bernoulli(0.5) ? 0.02 : 0.0;
    cfg.checkpoint_every_steps = meta.Bernoulli(0.3) ? 150 : 0;
    cfg.max_steps = 400000;

    int crashes = static_cast<int>(meta.Uniform(3));
    uint64_t when = 40;
    for (int c = 0; c < crashes; ++c) {
      NodeId victim =
          static_cast<NodeId>(meta.Uniform(cfg.db.machine.num_nodes));
      cfg.crashes.push_back(
          CrashPlan{when, {victim}, meta.Bernoulli(0.5)});
      when += 60 + meta.Uniform(100);
    }

    SCOPED_TRACE("round " + std::to_string(round) + " protocol " +
                 rc.Name() + " nodes " +
                 std::to_string(cfg.db.machine.num_nodes) + " recsz " +
                 std::to_string(cfg.db.record_data_size) + " crashes " +
                 std::to_string(crashes));
    Harness h(cfg);
    auto report = h.Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->verify_status.ok())
        << report->verify_status.ToString();
    EXPECT_LT(report->steps, cfg.max_steps) << "did not quiesce";
    if (rc.ensures_ifa()) {
      EXPECT_EQ(report->unnecessary_aborts(), 0u);
    }
    auto alive = h.db().machine().AliveNodes();
    if (!alive.empty() && cfg.workload.index_op_ratio > 0) {
      EXPECT_TRUE(h.db().index().CheckStructure(alive[0]).ok());
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SoakTest, RandomConfigurations) {
  Rng meta(0xC0FFEE);
  RunRandomRounds(meta, 24);
}

}  // namespace
}  // namespace smdb
